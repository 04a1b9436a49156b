import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langevin_kl import chain, gaussian_oracle, grid_oracle
from langevin_kl.chain import GAUSSIAN_1_OVER_M, PointInit, coupled_run, init_ensemble, run, step
from langevin_kl.cli import ConfigError, load_config
from langevin_kl.gaussian_oracle import (
    GaussianLaw,
    GaussianPath,
    kl_gaussian,
    stationary_law,
    target_law,
    ula_step_law,
)
from langevin_kl.grid_oracle import discretize_gaussian, stationary_grid, target_density_grid, ula_step_grid
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
from langevin_kl.potentials import huber, quadratic_diagonal


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
        (lambda: plan_weak(WeakPlanInputs(1.0, 1.0, math.inf, 1.0), 1.0, 1, -1.0), "epsilon must be positive"),
        (lambda: plan_halving(1.0, 2.0, 2, 0.0, 1.0), "epsilon must be positive"),
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
        "weak-epsilon-negative",
        "halving-epsilon-zero",
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


_POT = quadratic_diagonal([1.0])
_ENSEMBLE = init_ensemble(_POT, GAUSSIAN_1_OVER_M, 4, seed=0)
_LAW = GaussianLaw([0.5], [1.0])
_GRID = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 256)
_TARGET = target_density_grid(_POT, -8.0, 8.0, 256)
# every entry point that steps: a call at (h, k), and the least k it takes (None: it takes no k)
_STEPPERS = {
    "StepPlan": (lambda h, k: StepPlan(h=h, k=k, epsilon=0.5, regime="strong"), 1),
    "step": (lambda h, k: step(_ENSEMBLE, h), None),
    "run": (lambda h, k: run(_ENSEMBLE, StepPlan(h=h, k=k, epsilon=0.5, regime="strong")), 1),
    "coupled_run": (lambda h, k: coupled_run(_POT, PointInit([0.0]), PointInit([1.0]), h, k, 2, 0), 1),
    "ula_step_law": (lambda h, k: ula_step_law(_LAW, np.eye(1), h, k), 0),
    "GaussianPath.jump": (lambda h, k: GaussianPath(_LAW, np.eye(1)).jump(h, k), 0),
    "GaussianPath.stats": (lambda h, k: GaussianPath(_LAW, np.eye(1)).stats(h, k), 0),
    "stationary_law": (lambda h, k: stationary_law(np.eye(1), h), None),
    "ula_step_grid": (lambda h, k: ula_step_grid(_GRID, _POT, h, k), 1),
    "stationary_grid": (lambda h, k: stationary_grid(_POT, h, _TARGET), None),
}


def _bad_steps():
    for name, (_, least) in _STEPPERS.items():
        for h in (0.0, -1.0, math.nan, math.inf):
            yield pytest.param(name, h, 3, "step size must be positive and finite", id=f"{name}-h={h}")
        if least is not None:
            word = "positive" if least else "nonnegative"
            for k in (2.5, math.nan, math.inf, *([0] if least else [])):
                yield pytest.param(name, 0.1, k, f"step count must be a {word} integer", id=f"{name}-k={k}")


@pytest.fixture
def no_work(monkeypatch):
    """Drawing an ensemble, a chain step's noise, a Gaussian law's steps or a grid law's drift map or density fails."""

    def work(*args, **kwargs):
        raise AssertionError("an ensemble was drawn or a law stepped before the inputs were checked")

    work_sites = [
        (chain, "init_ensemble"),
        (chain, "_normals"),
        (gaussian_oracle, "_decay"),
        (grid_oracle, "grad_u"),
        (grid_oracle, "u_value"),
    ]
    for module, attr in work_sites:
        monkeypatch.setattr(module, attr, work)


@pytest.mark.parametrize("name, h, k, message", _bad_steps())
def test_every_stepper_refuses_a_bad_h_or_k_by_one_rule_before_any_work(name, h, k, message, no_work):
    expected = PlanningError if name in ("StepPlan", "run") else ValueError
    with pytest.raises(expected, match=message) as info:
        _STEPPERS[name][0](h, k)
    assert type(info.value) is expected


_PLAN = StepPlan(h=0.1, k=3, epsilon=0.5, regime="strong")
_WEAK = WeakPlanInputs(1.0, 1.0, math.inf, 2.0)
_CONFIG = "[run]\n{}\n[potential]\nkind = quadratic-diagonal\ndiag = 1\n"
_DIMENSION = rf"dimension must be an integer in \[1, {2**53}\], got 2.5"


# each input, the rule's message, and the error it raises: a count, a positive number, a matrix, a grid box
_RULE_CASES = {
    "StepPlan-k-True": (
        lambda: StepPlan(h=0.1, k=True, epsilon=0.5, regime="strong"),
        "step count must be a positive integer, got True",
    ),
    **{
        f"init_ensemble-n={n}": (
            lambda n=n: init_ensemble(_POT, GAUSSIAN_1_OVER_M, n, 0),
            f"chain count must be a positive integer, got {n!r}",
        )
        for n in (2.5, math.nan, True)
    },
    **{
        f"run-record_every={r}": (
            lambda r=r: run(_ENSEMBLE, _PLAN, record_every=r),
            f"record_every must be a positive integer, got {r!r}",
        )
        for r in (math.nan, 2.5)
    },
    "coupled_run-n=2.5": (
        lambda: coupled_run(_POT, PointInit([0.0]), PointInit([1.0]), 0.1, 3, 2.5, 0),
        "chain count must be a positive integer, got 2.5",
    ),
    "huber-dim-True": (lambda: huber(1.0, dim=True), "dimension must be a positive integer, got True"),
    "huber-delta-inf": (lambda: huber(math.inf), "huber threshold delta must be positive and finite, got inf"),
    "plan_strong-d=2.5": (lambda: plan_strong(1.0, 2.0, 2.5, 0.1), _DIMENSION),
    "plan_weak-d=2.5": (lambda: plan_weak(_WEAK, 1.0, 2.5, 0.1), _DIMENSION),
    "kl_init_bound-d=2.5": (lambda: kl_init_bound(1.0, 2.0, 2.5), _DIMENSION),
    "plan_weak-epsilon-inf": (
        lambda: plan_weak(_WEAK, 1.0, 1, math.inf),
        "epsilon must be positive and finite, got inf",
    ),
    "WeakPlanInputs-c1-inf": (
        lambda: WeakPlanInputs(math.inf, 1.0, 1.0, 2.0),
        "c1 must be positive and finite, got inf",
    ),
    "target_density_grid-n=8.5": (
        lambda: target_density_grid(_POT, -24.0, 24.0, 8.5),
        "cell count must be an integer >= 8, got 8.5",
    ),
    "target_density_grid-x_max-inf": (
        lambda: target_density_grid(_POT, -24.0, math.inf, 64),
        r"need x_max > x_min, both finite, got \[-24.0, inf\]",
    ),
    "target_law-0x0": (
        lambda: target_law(np.zeros((0, 0))),
        r"matrix must be square and non-empty, got shape \(0, 0\)",
    ),
    "GaussianLaw-0x0": (
        lambda: GaussianLaw(np.zeros(0), np.zeros((0, 0))),
        r"covariance must be square and non-empty, got shape \(0, 0\)",
    ),
}
# load_config checks its counts and positive numbers by the same rules: ConfigError, which `run` exits 2 on
_CONFIG_CASES = {
    "epsilon = 0.1\nn_chains = 1": "run.n_chains must be an integer >= 2, got 1",
    "epsilon = 0.1\nrecord_every = 0": "run.record_every must be a positive integer, got 0",
    "epsilon = inf": "run.epsilon must be positive and finite, got inf",
    "epsilon = 0.1\n[oracles]\ngrid = true\ngrid_n = 4": "oracles.grid_n must be an integer >= 8, got 4",
    "regime = halving\nepsilon = 0.1\n[halving]\nkl0 = inf": "halving.kl0 must be positive and finite, got inf",
}
_PLANNERS = ("StepPlan", "plan_strong", "plan_weak", "kl_init_bound", "WeakPlanInputs")


def _rule_cases():
    for name, (call, message) in _RULE_CASES.items():
        yield pytest.param(call, PlanningError if name.startswith(_PLANNERS) else ValueError, message, id=name)
    for text, message in _CONFIG_CASES.items():
        yield pytest.param(_CONFIG.format(text), ConfigError, message, id=f"config-{text.splitlines()[-1]}")


@pytest.mark.parametrize("call, expected, message", _rule_cases())
def test_every_count_positive_number_matrix_and_box_is_refused_by_its_rule_before_any_work(
    call, expected, message, no_work, tmp_path
):
    if isinstance(call, str):  # a run config's text
        path = tmp_path / "bad.ini"
        path.write_text(call)
        call = lambda: load_config(str(path))  # noqa: E731
    with pytest.raises(expected, match=message) as info:
        call()
    assert type(info.value) is expected


def test_a_numpy_integer_is_a_step_count():
    assert StepPlan(h=0.1, k=np.int64(3), epsilon=0.5, regime="strong").k == 3
    assert ula_step_law(_LAW, np.eye(1), 0.1, np.int64(0)) is _LAW
    assert ula_step_grid(_GRID, _POT, 0.1, np.int64(2)).n == _GRID.n
