import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langevin_kl.gaussian_oracle import GaussianLaw, kl_gaussian, target_law
from langevin_kl.planner import (
    PlanningError,
    StepPlan,
    WeakPlanInputs,
    discretization_error_bound,
    kl_init_bound,
    plan_halving,
    plan_strong,
    plan_strong_tv,
    plan_strong_w2,
    plan_weak,
)


def test_plan_strong_reference_case():
    plan = plan_strong(1, 2, 2, 0.1)
    # independent arithmetic: h = m eps/(16 d L^2), k = ceil(1280 ln 40)
    assert plan.h == pytest.approx(0.1 / 128.0, abs=1e-12)
    assert plan.k == math.ceil(1280.0 * math.log(40.0)) == 4722
    assert plan.regime == "strong"


def test_plan_strong_second_case():
    plan = plan_strong(1, 1, 1, 0.05)
    assert plan.h == pytest.approx(0.003125, abs=1e-12)
    assert plan.k == math.ceil(320.0 * math.log(20.0)) == 959


def test_plan_strong_rejects_large_epsilon():
    with pytest.raises(PlanningError, match="log"):
        plan_strong(1, 1, 1, 2.0)


def test_plan_strong_tv_delegates_with_delta_squared():
    plan = plan_strong_tv(1, 2, 2, 0.3)
    base = plan_strong(1, 2, 2, 0.09)
    assert (plan.h, plan.k, plan.epsilon) == (base.h, base.k, base.epsilon)
    assert plan_strong_tv(1, 1, 1, 0.2).epsilon == pytest.approx(0.04)
    with pytest.raises(PlanningError):
        plan_strong_tv(1, 1, 1, 2.0)


def test_plan_strong_w2_uses_tight_epsilon():
    assert plan_strong_w2(1, 1, 1, 0.4).epsilon == pytest.approx(0.08)
    assert plan_strong_w2(2, 2, 1, 0.1).epsilon == pytest.approx(0.01)
    with pytest.raises(PlanningError):
        plan_strong_w2(1, 1, 1, 0.0)


def test_plan_weak_reference_case():
    plan = plan_weak(WeakPlanInputs(1.0, 1.0, math.inf, math.e), 1, 1, 0.1)
    assert plan.h == pytest.approx(0.1**2 / 48.0, abs=1e-12)
    assert plan.k == 105600
    assert plan.regime == "weak"


def test_plan_weak_h_prime_cap_binds():
    plan = plan_weak(WeakPlanInputs(1.0, 10.0, 1e-6, math.e), 1, 1, 0.1)
    assert plan.h == pytest.approx(1e-6 / 48.0, abs=1e-18)
    assert "h_prime" in plan.notes


def test_plan_weak_log_term_clamped():
    plan = plan_weak(WeakPlanInputs(1.0, 1.0, math.inf, 0.5), 1, 1, 0.1)
    assert plan.k == 96000


def test_plan_weak_rejects_nonpositive_inputs():
    with pytest.raises(PlanningError):
        WeakPlanInputs(0.0, 1.0, math.inf, 1.0)
    with pytest.raises(PlanningError):
        plan_weak(WeakPlanInputs(1.0, 1.0, math.inf, 1.0), 1, 1, 0.0)


def test_plan_halving_reference_case():
    stages = plan_halving(1, 1, 1, 0.25, 1.0)
    assert [s.epsilon for s in stages] == [0.5, 0.25]
    for j, s in enumerate(stages):
        eps_j = 1.0 / 2.0 ** (j + 1)
        assert s.h == pytest.approx(eps_j / 16.0, abs=1e-15)
        assert s.k == math.ceil(16.0 * math.log(2.0) / eps_j)
        assert s.regime == "halving-stage"


def test_plan_halving_converged_input():
    assert plan_halving(1, 1, 1, 0.25, 0.2) == []


def test_plan_halving_counts_stages_without_overflow():
    # kl0/eps = 1.5e300: stage j targets kl0/2^(j+1), and the last is the first at or below eps
    stages = plan_halving(1, 1, 1, 1e-300, 1.5)
    eps = [s.epsilon for s in stages]
    assert eps[-1] <= 1e-300 < eps[-2]
    assert eps == [1.5 / 2.0 ** (j + 1) for j in range(len(eps))]
    assert stages[-1].k == math.ceil(16.0 * math.log(2.0) / eps[-1])


def test_plan_halving_targets_stay_below_the_init_bound():
    # stage 0 targets kl0/2, which must be below d*L/m like any strong-convexity target
    assert plan_halving(1, 2, 2, 0.1, 7.9)[0].h < 1.0 / (16 * 2)
    with pytest.raises(PlanningError, match="too large"):
        plan_halving(1, 2, 2, 0.1, 8.0)
    with pytest.raises(PlanningError, match="finite"):
        plan_halving(1, 2, 2, 0.1, math.inf)


def test_plan_halving_beats_single_run_from_kl_init_bound():
    # kl0 = d L / m for (m, L, d) = (1, 2, 2)
    kl0 = kl_init_bound(1, 2, 2)
    stages = plan_halving(1, 2, 2, 0.1, kl0)
    single = plan_strong(1, 2, 2, 0.1)
    # independent arithmetic for each stage count
    expected = [math.ceil(16.0 * 4.0 * 2.0 * math.log(2.0) / (kl0 / 2.0 ** (j + 1))) for j in range(6)]
    assert [s.k for s in stages] == expected
    assert sum(s.k for s in stages) <= single.k


def test_discretization_error_bound_values():
    assert discretization_error_bound(1, 0.01, 1, 4) == pytest.approx(0.24, abs=1e-12)
    assert discretization_error_bound(1, 0.0, 5, 7) == 0.0


def test_discretization_error_bound_at_planned_stepsize():
    # m = 1, d = 1, eps = 0.04 gives h = m*eps/(16*d*L^2) = 0.0025 and
    # second moment cap 4d/m = 4; direct arithmetic: 2*0.0025*2 + 2*0.05 = 0.11.
    # The per-term combination from the planned h caps the first term by
    # sqrt(m*eps)/4 and makes the second exactly sqrt(m*eps)/2, so the sum is
    # bounded by 0.75*sqrt(m*eps) = 0.15 (the tighter 0.5*sqrt(m*eps) = 0.1 is
    # NOT attained: the value is 0.11).
    m, eps, d, L = 1.0, 0.04, 1, 1.0
    h = m * eps / (16.0 * d * L * L)
    val = discretization_error_bound(L, h, d, 4.0 * d / m)
    assert val == pytest.approx(0.11, abs=1e-12)
    assert val <= 0.75 * math.sqrt(m * eps) + 1e-12
    assert val > 0.5 * math.sqrt(m * eps)  # documents the unattainable claim


def test_kl_init_bound_values():
    assert kl_init_bound(1, 2, 3) == 6.0
    assert kl_init_bound(0.5, 0.5, 7) == 7.0


def test_kl_init_bound_dominates_exact_gaussian_kl():
    # p0 = N(0, I/m) vs target N(0, A^{-1}) for A = diag(1, 2), m = 1
    p0 = GaussianLaw(np.zeros(2), np.eye(2))
    exact = kl_gaussian(p0, target_law(np.diag([1.0, 2.0])))
    assert exact == pytest.approx(0.5 * (1.0 - math.log(2.0)), abs=1e-12)
    assert exact <= kl_init_bound(1, 2, 2)


def test_step_plan_invariants_enforced():
    with pytest.raises(PlanningError):
        StepPlan(h=0.0, k=5, epsilon=0.1, regime="strong")
    with pytest.raises(PlanningError):
        StepPlan(h=0.1, k=0, epsilon=0.1, regime="strong")
    with pytest.raises(PlanningError):
        StepPlan(h=0.1, k=5, epsilon=0.0, regime="strong")


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(1e-3, 10.0),
    lf=st.floats(1.0, 50.0),
    d=st.integers(1, 40),
    frac=st.floats(1e-3, 0.9),
)
def test_strong_plan_stepsize_and_horizon(m, lf, d, frac):
    L = m * lf
    eps = frac * d * L / m  # keeps the log argument 1/frac > 1
    plan = plan_strong(m, L, d, eps)
    assert plan.h <= 1.0 / L * (1 + 1e-12)
    horizon = math.log(d * L / (m * eps)) / m
    assert plan.h * plan.k >= horizon * (1 - 1e-9)


@settings(max_examples=100, deadline=None)
@given(
    m=st.floats(0.01, 5.0),
    lf=st.floats(1.0, 20.0),
    d=st.integers(1, 20),
    frac=st.floats(1e-3, 0.4),
)
def test_halving_epsilon_at_most_doubles_k_per_log_factor(m, lf, d, frac):
    L = m * lf
    eps = frac * d * L / m
    k1 = plan_strong(m, L, d, eps).k
    k2 = plan_strong(m, L, d, eps / 2.0).k
    r1 = math.log(d * L / (m * eps))
    r2 = math.log(2.0 * d * L / (m * eps))
    assert k2 <= 2.0 * (k1 + 1) * r2 / r1


@settings(max_examples=100, deadline=None)
@given(
    c1=st.floats(0.1, 10.0),
    c2=st.floats(0.1, 10.0),
    hp=st.one_of(st.just(math.inf), st.floats(1e-8, 1.0)),
    kl0=st.floats(0.01, 100.0),
    L=st.floats(0.1, 10.0),
    d=st.integers(1, 20),
    eps=st.floats(1e-3, 1.0),
)
def test_weak_plan_matches_printed_caps(c1, c2, hp, kl0, L, d, eps):
    plan = plan_weak(WeakPlanInputs(c1, c2, hp, kl0), L, d, eps)
    cap = min(eps / (c1 * (c1 + c2) * L * L), eps * eps / (c1 * c1 * d * L * L), hp)
    assert plan.h == cap / 48.0
    assert plan.h <= hp


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: plan_strong(1.0, 2.0, 2, 0.0), "epsilon must be positive"),
        (lambda: plan_strong_tv(1.0, 2.0, 2, 0.0), "TV target delta must be positive"),
        (lambda: plan_strong_tv(1.0, 2.0, 2, 1e-200), "TV target delta=1e-200 is too small: .* underflows to 0"),
        (lambda: plan_strong_w2(1.0, 2.0, 2, 1e-200), "W2 target delta=1e-200 is too small: .* underflows to 0"),
        (lambda: discretization_error_bound(-1.0, 0.1, 1, 1.0), "all inputs must be nonnegative"),
        *[
            (lambda args=args: discretization_error_bound(*args), "all inputs must be nonnegative")
            for args in ((math.nan, 0.1, 1, 1.0), (1.0, math.nan, 1, 1.0), (1.0, 0.1, 1, math.nan))
        ],
    ],
    ids=[
        "strong-epsilon-zero",
        "tv-delta-zero",
        "tv-delta-squared-underflows",
        "w2-delta-squared-underflows",
        "bound-negative-L",
        "bound-nan-L",
        "bound-nan-h",
        "bound-nan-moment",
    ],
)
def test_planner_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()
