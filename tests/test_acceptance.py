"""End-to-end acceptance criteria A1-A8, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and margins.
"""

import math

import numpy as np
import pytest

import langevin_kl as lk
from langevin_kl.cli import SUITES


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------


def test_a1_strong_kl_convergence_and_tv_w2_targets():
    # A = diag(1, 2): m = 1, L = 2, d = 2; p0 = N(0, I/m) = N(0, I)
    plan = lk.plan_strong(1, 2, 2, 0.1)
    assert (plan.h, plan.k) == (pytest.approx(7.8125e-4, abs=1e-12), 4722)
    A = np.diag([1.0, 2.0])
    traj = lk.kl_trajectory(A, lk.GaussianLaw(np.zeros(2), np.eye(2)), plan.h, plan.k)
    _report("A1 strong-convexity KL target", traj[-1] <= 0.1, f"final KL {traj[-1]:.3e} <= 0.1")

    # A1b: rescaled 1-D problem m = L = 1, eps = 0.05 for the TV/W2 targets
    plan_b = lk.plan_strong(1, 1, 1, 0.05)
    assert (plan_b.h, plan_b.k) == (pytest.approx(0.003125, abs=1e-15), 959)
    A1 = np.array([[1.0]])
    law = lk.GaussianLaw([0.0], [[1.0]])
    for _ in range(plan_b.k):
        law = lk.ula_step_law(law, A1, plan_b.h)
    tgt = lk.target_law(A1)
    tv = lk.tv_gaussian_1d(law, tgt)
    w2 = lk.w2_gaussian(law, tgt)
    _report(
        "A1b TV target", tv <= math.sqrt(0.05), f"tv {tv:.3e} <= sqrt(eps) {math.sqrt(0.05):.4f}"
    )
    _report(
        "A1b W2 target",
        w2 <= math.sqrt(2 * 0.05 / 1),
        f"w2 {w2:.3e} <= sqrt(2 eps/m) {math.sqrt(0.1):.4f}",
    )


def test_a2_moment_bound_exact_and_empirical():
    """The empirical 5-SE gate failed on 0 of 200 seeds (0-199) at this size: its false-fail rate is at most 1.5%
    (one-sided 95% Clopper-Pearson bound). Its margin never fell below 6.03: the ensemble's second moment
    stays near its start's 2 while the bound is 4d/m = 8, so this gate is far from its edge."""
    plan = lk.plan_strong(1, 2, 2, 0.1)
    A = np.diag([1.0, 2.0])
    bound = 4.0 * 2 / 1.0  # 4d/m = 8

    law = lk.GaussianLaw(np.zeros(2), np.eye(2))
    worst = -math.inf
    for _ in range(plan.k):
        law = lk.ula_step_law(law, A, plan.h)
        worst = max(worst, float(np.trace(law.cov) + law.mean @ law.mean))
    _report("A2 exact second-moment bound", worst <= bound + 1e-9, f"max {worst:.6f} <= 8 + 1e-9")

    pot = lk.quadratic_diagonal([1.0, 2.0])
    ens = lk.init_ensemble(pot, lk.GAUSSIAN_1_OVER_M, 20_000, seed=20240211)
    _, rows = lk.run(ens, plan, record_every=100)
    margin = min(bound + 5.0 * r.second_moment_se - r.second_moment for r in rows)
    _report(
        "A2 empirical second-moment bound",
        margin >= 0.0,
        f"min margin {margin:.4f} over {len(rows)} recorded steps",
    )


def test_a3_w2_contraction_oracle_and_coupled():
    """The coupled Huber 5-SE gate failed on 0 of 200 seeds (0-199) at this size: its false-fail rate is at most
    1.5% (one-sided 95% Clopper-Pearson bound). Its smallest margin over those seeds was 0.0081."""
    plan = lk.plan_strong(1, 2, 2, 0.1)
    A = np.diag([1.0, 2.0])
    pi_h = lk.stationary_law(A, plan.h)
    law = lk.GaussianLaw(np.zeros(2), np.eye(2))
    prev = lk.w2_gaussian(law, pi_h)
    worst = math.inf
    for _ in range(plan.k):
        law = lk.ula_step_law(law, A, plan.h)
        now = lk.w2_gaussian(law, pi_h)
        worst = min(worst, prev - now)
        prev = now
    _report(
        "A3 oracle W2 contraction",
        worst >= -1e-12,
        f"worst per-step increase {-worst:.3e} <= 1e-12",
    )

    hub = lk.huber(1.0)
    tr = lk.coupled_run(
        hub,
        lk.GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, 4.0)),
        lk.GaussianInit(mean=np.full(1, 1.5), cov_diag=np.ones(1)),
        h=0.1,
        k=200,
        n=10_000,
        seed=99,
    )
    margin = float(np.min(tr.rms[:-1] + 5.0 * tr.se[:-1] - tr.rms[1:]))
    _report("A3 coupled huber contraction", margin >= 0.0, f"min 5-SE margin {margin:.4f}")


def test_a4_sampler_matches_oracle():
    """The max |z| <= 5 gate failed on 0 of 200 seeds (0-199) at this size: its false-fail rate is at most 1.5%
    (one-sided 95% Clopper-Pearson bound). The largest max |z| over those seeds was 3.19."""
    pot = lk.quadratic_diagonal([1.0, 2.0])
    A = np.diag([1.0, 2.0])
    ens = lk.init_ensemble(pot, lk.GAUSSIAN_1_OVER_M, 50_000, seed=4242)
    law = lk.GaussianLaw(np.zeros(2), np.eye(2))
    for _ in range(200):
        ens = lk.step(ens, 0.01)
        law = lk.ula_step_law(law, A, 0.01)
    z = lk.z_scores_vs_oracle(lk.summarize(ens), law)
    zmax = max(
        float(np.max(np.abs(z["mean"]))),
        float(np.max(np.abs(z["cov"]))),
        abs(z["second_moment"]),
    )
    _report("A4 sampler vs oracle z-scores", zmax <= 5.0, f"max |z| = {zmax:.3f} <= 5")


def test_a4_gate_fails_a_planted_wrong_oracle_at_the_strong_d2_shape():
    """sampler_matches_oracle (max |z| <= 5) at the strong-d2 run's shape fails an oracle of the wrong target.

    The shape: diag(1, 2) from N(0, I), 20,000 chains, and the h and k of plan_strong(1, 2, 2, 0.75). At seed
    12345 the right oracle reads max |z| = 0.97, and an oracle on diag(1, 2.2) reads 9.03 and fails.
    What this gate cannot see at this shape: an oracle stepped at 1.1h reads 0.97, because both laws keep
    the mean 0 and the mean's z-score leads; one stepped k/2 times reads 3.18. Both pass.
    """
    plan = lk.plan_strong(1, 2, 2, 0.75)
    ens = lk.init_ensemble(lk.quadratic_diagonal([1.0, 2.0]), lk.GAUSSIAN_1_OVER_M, 20_000, seed=12345)
    summary = lk.summarize(lk.run(ens, plan, record_every=100)[0])

    def zmax(diag):
        law = lk.GaussianLaw(np.zeros(2), np.eye(2))
        for _ in range(plan.k):
            law = lk.ula_step_law(law, np.diag(diag), plan.h)
        z = lk.z_scores_vs_oracle(summary, law)
        return max(float(np.max(np.abs(z["mean"]))), float(np.max(np.abs(z["cov"]))), abs(z["second_moment"]))

    right, planted = zmax([1.0, 2.0]), zmax([1.0, 2.2])
    _report("A4 gate passes the right oracle", right <= 5.0, f"max |z| = {right:.3f} <= 5")
    _report("A4 gate fails a planted diag(1, 2.2) oracle", planted > 5.0, f"max |z| = {planted:.3f} > 5")


def test_a5_oracle_equivalence():
    [(_, margin)] = SUITES["oracle-equivalence"](0)  # 1e-3 minus the worst |dKL|
    _report("A5 grid vs gaussian oracle", margin >= 0.0, f"max |dKL| = {1e-3 - margin:.3e} <= 1e-3")


def test_a6_weak_convexity_properties():
    hub = lk.huber(1.0)
    target, _ = lk.default_grid(hub)
    lo, hi, n = target.x_min, target.x_max, target.n
    tgt = lk.target_density_grid(hub, lo, hi, n)
    p0 = lk.discretize_gaussian(0.0, 4.0, lo, hi, n)
    c1 = lk.w2_grid_1d(p0, tgt)
    c2 = math.sqrt(lk.second_moment_grid(tgt))
    kl0 = lk.kl_grid(p0, tgt)

    # (i) strict KL decrease for 500 steps at h = 0.01
    p = p0
    kls = [kl0]
    cap = 4.0 * (c1 * c1 + c2 * c2)
    sm_ok = lk.second_moment_grid(p) <= cap
    for _ in range(500):
        p = lk.ula_step_grid(p, hub, 0.01)
        kls.append(lk.kl_grid(p, tgt))
        sm_ok = sm_ok and lk.second_moment_grid(p) <= cap
    diffs = np.diff(kls)
    _report(
        "A6(i) strict KL decrease",
        bool(np.all(diffs < 0)),
        f"max step change {diffs.max():.3e} < 0 over 500 steps",
    )
    # (ii) weak-case second-moment bound with on-grid C1, C2
    _report("A6(ii) weak second-moment bound", sm_ok, f"cap 4(C1^2+C2^2) = {cap:.3f}")

    # (iii) planned weak run with grid-estimated h' and kl0
    h_prime = lk.estimate_h_prime(hub, c1, tgt)
    plan = lk.plan_weak(lk.WeakPlanInputs(c1, c2, h_prime, kl0), hub.L, 1, 0.2)
    final = lk.kl_grid(lk.ula_step_grid(p0, hub, plan.h, plan.k), tgt)
    _report(
        "A6(iii) weak plan reaches target",
        final <= 0.2,
        f"final KL {final:.4f} <= 0.2 after {plan.k} steps (h' est {h_prime:.3g})",
    )


def test_a7_inequality_suites():
    margins = dict(SUITES["inequalities"](20240807))
    for name, label in [
        ("pinsker_tv_le_sqrt_kl_half", "A7 Pinsker tv <= sqrt(kl/2)"),
        ("talagrand_w2sq_le_2kl_over_m", "A7 Talagrand-type w2^2 <= 2kl/m"),
        ("log_sobolev_kl_le_fisher_over_2m", "A7 log-Sobolev-type kl <= fisher/2m"),
        ("convex_kl_le_sqrt_fisher_times_w2", "A7 weak bound kl <= sqrt(fisher) w2"),
    ]:
        _report(label, margins[name] >= -1e-9, f"min margin {margins[name]:.3e}")
    dis = margins["dissipation_dkl_dt_eq_minus_fisher"]
    _report("A7 dissipation identity", dis >= -1e-9, f"min relative margin {dis:.3e}")


def test_a8_planner_regression():
    plan = lk.plan_strong(1, 2, 2, 0.1)
    ok_h = abs(plan.h - 0.1 / 128.0) <= 1e-12
    ok_k = plan.k == 4722
    weak = lk.plan_weak(lk.WeakPlanInputs(1.0, 1.0, math.inf, math.e), 1, 1, 0.1)
    ok_wh = abs(weak.h - 0.1**2 / 48.0) <= 1e-12
    ok_wk = weak.k == 105600
    ok_init = lk.kl_init_bound(1, 2, 3) == 6.0
    ok_disc = abs(lk.discretization_error_bound(1, 0.01, 1, 4) - 0.24) <= 1e-12
    _report(
        "A8 planner regression",
        ok_h and ok_k and ok_wh and ok_wk and ok_init and ok_disc,
        f"strong=({plan.h!r},{plan.k}) weak=({weak.h!r},{weak.k}) "
        f"kl_init={lk.kl_init_bound(1, 2, 3)} disc={lk.discretization_error_bound(1, 0.01, 1, 4)!r}",
    )
