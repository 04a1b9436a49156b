import math

import numpy as np
import pytest
from scipy.integrate import quad

from langevin_kl.gaussian_oracle import (
    GaussianLaw,
    GaussianPath,
    exact_flow_law,
    fisher_info_relative,
    gaussian_1d,
    kl_gaussian,
    kl_trajectory,
    stationary_law,
    target_law,
    tv_gaussian_1d,
    ula_step_law,
    w2_gaussian,
)
from langevin_kl.planner import plan_strong


def _pdf(x, mu, var):
    return np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def _kl_quadrature(mp, vp, mq, vq):
    """Independent 1-D KL oracle by adaptive quadrature of p log(p/q)."""
    lo = mp - 12.0 * math.sqrt(vp)
    hi = mp + 12.0 * math.sqrt(vp)
    val, _ = quad(
        lambda x: _pdf(x, mp, vp) * (np.log(_pdf(x, mp, vp)) - np.log(_pdf(x, mq, vq))),
        lo,
        hi,
        limit=200,
    )
    return val


def _fisher_quadrature(mp, vp, a):
    """Independent oracle for E_p (a x - (x - mp)/vp)^2 against N(0, 1/a)."""
    lo = mp - 12.0 * math.sqrt(vp)
    hi = mp + 12.0 * math.sqrt(vp)
    val, _ = quad(lambda x: (a * x - (x - mp) / vp) ** 2 * _pdf(x, mp, vp), lo, hi, limit=200)
    return val


def _random_spd(rng, d):
    w = rng.uniform(0.3, 3.0, size=d)
    if d == 1:
        return np.array([[w[0]]])
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * w) @ q.T


def _random_law(rng, d):
    return GaussianLaw(rng.normal(0.0, 1.0, size=d), _random_spd(rng, d))


# ---------------------------------------------------------------------------
# construction


def test_law_validation():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianLaw(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        GaussianLaw(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        GaussianLaw(np.zeros(2), np.eye(3))


def test_diagonal_cov_argument_is_read_as_diagonal():
    law = GaussianLaw(np.zeros(2), np.array([1.0, 2.0]))
    assert np.allclose(law.cov, np.diag([1.0, 2.0]))


# ---------------------------------------------------------------------------
# law propagation


def test_ula_step_law_variance_update():
    for v in (0.5, 1.0, 2.0):
        out = ula_step_law(gaussian_1d(0.0, v), np.array([[1.0]]), 0.25)
        assert out.cov[0, 0] == pytest.approx(0.5625 * v + 0.5, abs=1e-14)


def test_ula_step_law_mean_annihilated_at_h_equal_inverse_a():
    out = ula_step_law(GaussianLaw([1.0], [[1.0]]), np.array([[1.0]]), 1.0)
    assert out.mean[0] == 0.0


def test_ula_step_law_fixed_point_is_stationary_law():
    # v* solves v = (1 - h a)^2 v + 2h => v* = 2h/(1 - (1-ha)^2) = 8/7
    h, a = 0.25, 1.0
    vstar = 2.0 * h / (1.0 - (1.0 - h * a) ** 2)
    assert vstar == pytest.approx(8.0 / 7.0)
    st = stationary_law(np.array([[a]]), h)
    assert st.cov[0, 0] == pytest.approx(vstar, abs=1e-14)
    out = ula_step_law(st, np.array([[a]]), h)
    assert abs(out.cov[0, 0] - st.cov[0, 0]) <= 1e-12


def test_ula_step_law_instability_rejected():
    with pytest.raises(ValueError, match="unstable"):
        ula_step_law(gaussian_1d(0.0, 1.0), np.array([[1.0]]), 2.0)
    with pytest.raises(ValueError, match="unstable"):
        stationary_law(np.array([[4.0]]), 0.5)


def test_stationary_law_values():
    assert stationary_law(np.array([[1.0]]), 0.5).cov[0, 0] == pytest.approx(4.0 / 3.0)
    # h -> 0 recovers the target variance 1/a
    st = stationary_law(np.diag([1.0, 2.0]), 1e-8)
    assert np.allclose(np.diagonal(st.cov), [1.0, 0.5], atol=1e-6)


def test_stationary_law_fixed_point_full_matrix():
    rng = np.random.default_rng(7)
    A = _random_spd(rng, 3)
    h = 0.3 / float(np.linalg.eigvalsh(A)[-1])
    st = stationary_law(A, h)
    out = ula_step_law(st, A, h)
    assert np.allclose(out.cov, st.cov, atol=1e-12)
    assert np.allclose(out.mean, 0.0, atol=1e-15)


def test_semigroup_matches_direct_power_formula():
    # independent oracle: M^k law plus the geometric noise sum by eigenexpansion
    rng = np.random.default_rng(3)
    A = _random_spd(rng, 3)
    law = _random_law(rng, 3)
    h = 0.2 / float(np.linalg.eigvalsh(A)[-1])
    k = 37
    stepped = law
    for _ in range(k):
        stepped = ula_step_law(stepped, A, h)
    M = np.eye(3) - h * A
    Mk = np.linalg.matrix_power(M, k)
    w, Q = np.linalg.eigh(M)
    geo = (1.0 - (w * w) ** k) / (1.0 - w * w)
    noise = (Q * (2.0 * h * geo)) @ Q.T
    mean = Mk @ law.mean
    cov = Mk @ law.cov @ Mk.T + noise
    assert np.allclose(stepped.mean, mean, atol=1e-12)
    assert np.allclose(stepped.cov, cov, atol=1e-12)


def test_exact_flow_law():
    A = np.array([[1.0]])
    init = gaussian_1d(0.0, 2.0)
    same = exact_flow_law(A, init, 0.0)
    assert same.cov[0, 0] == pytest.approx(2.0)
    late = exact_flow_law(A, init, 50.0)
    assert late.cov[0, 0] == pytest.approx(1.0, abs=1e-12)
    mid = exact_flow_law(A, init, math.log(2.0) / 2.0)
    assert mid.cov[0, 0] == pytest.approx(1.5, abs=1e-14)


def test_exact_flow_law_rotated_matches_diagonal_formula():
    # a rotated pair (A, init) flows to the rotation of the coordinatewise
    # solution 1/a + (v0 - 1/a) exp(-2at), exp(-at) mean
    rng = np.random.default_rng(43)
    for _ in range(5):
        a = rng.uniform(0.3, 3.0, size=3)
        m0 = rng.normal(size=3)
        v0 = rng.uniform(0.2, 3.0, size=3)
        t = float(rng.uniform(0.0, 2.0))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        got = exact_flow_law((Q * a) @ Q.T, GaussianLaw(Q @ m0, (Q * v0) @ Q.T), t)
        mean = Q @ (np.exp(-a * t) * m0)
        cov = (Q * (1.0 / a + (v0 - 1.0 / a) * np.exp(-2.0 * a * t))) @ Q.T
        assert np.allclose(got.mean, mean, rtol=0.0, atol=1e-13)
        assert np.allclose(got.cov, cov, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# divergences


def test_kl_gaussian_basics():
    p = gaussian_1d(0.0, 8.0 / 7.0)
    q = gaussian_1d(0.0, 1.0)
    assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)
    closed = 0.5 * (math.log(7.0 / 8.0) + 8.0 / 7.0 - 1.0)
    assert kl_gaussian(p, q) == pytest.approx(closed, abs=1e-14)
    assert closed == pytest.approx(4.663e-3, abs=1e-6)


def test_kl_gaussian_matches_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(10):
        mp, mq = rng.normal(0, 1, size=2)
        vp, vq = rng.uniform(0.4, 3.0, size=2)
        got = kl_gaussian(gaussian_1d(mp, vp), gaussian_1d(mq, vq))
        assert got == pytest.approx(_kl_quadrature(mp, vp, mq, vq), abs=1e-9)


def _kl_50_digits(p: GaussianLaw, q: GaussianLaw, diagonal: bool) -> float:
    """KL(p || q) in 50-digit arithmetic from the laws' own float entries, coordinate by coordinate if diagonal."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        if diagonal:
            vp, vq, dm = (list(map(mp.mpf, a)) for a in (np.diagonal(p.cov), np.diagonal(q.cov), p.mean - q.mean))
            return float(mp.fsum(a / b - 1 - mp.log(a / b) + m * m / b for a, b, m in zip(vp, vq, dm)) / 2)
        Sp, Sq, dm = (mp.matrix(a.tolist()) for a in (p.cov, q.cov, p.mean - q.mean))
        inv = mp.inverse(Sq)
        tr = mp.fsum((inv * Sp)[i, i] for i in range(p.d))
        return float((tr - p.d + mp.log(mp.det(Sq) / mp.det(Sp)) + (dm.T * inv * dm)[0, 0]) / 2)


@pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
def test_kl_gaussian_keeps_its_precision_near_convergence(delta, rotated):
    """Relative error <= 1e-9 against a 50-digit KL, down to KL ~ 3e-14.

    q = N(0, diag(1/w)), w = linspace(1, 2, d), and p has variances
    (1/w)(1 + delta u), u ~ U(0.5, 1.5), and means delta U(-1, 1): d = 100, or
    d = 6 with both covariances rotated by one orthogonal matrix. Measured at
    delta = 1e-5 and 1e-7: 6.7e-13 and 2.9e-11 (diagonal), 1.0e-12 and 2.1e-10
    (rotated), where the form tr - d + log-det difference was off by 2.3e-6 and
    1.0e-2 (diagonal), 4.6e-7 and 8.3e-3 (rotated). The rest is x - log1p(x),
    whose relative error at small x is about 2^-53 / x.
    """
    d = 6 if rotated else 100
    rng = np.random.default_rng(0)
    w = np.linspace(1.0, 2.0, d)
    vp = (1.0 + delta * rng.uniform(0.5, 1.5, d)) / w
    mean = delta * rng.uniform(-1.0, 1.0, d)
    Q = np.linalg.qr(rng.normal(size=(d, d)))[0] if rotated else np.eye(d)
    p = GaussianLaw(mean, (Q * vp) @ Q.T)
    q = GaussianLaw(np.zeros(d), (Q / w) @ Q.T)
    exact = _kl_50_digits(p, q, diagonal=not rotated)
    assert abs(kl_gaussian(p, q) - exact) <= 1e-9 * exact


def test_w2_gaussian_basics():
    assert w2_gaussian(gaussian_1d(0, 1), gaussian_1d(1, 1)) == pytest.approx(1.0)
    p = gaussian_1d(0.3, 2.0)
    assert w2_gaussian(p, p) == 0.0
    assert w2_gaussian(gaussian_1d(0, 4), gaussian_1d(0, 1)) == pytest.approx(1.0)


def test_w2_gaussian_bures_agrees_with_diagonal_under_rotation():
    # W2 is invariant under a common rotation; rotating a diagonal pair makes
    # the Bures code path reproduce the diagonal fast path value
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = 3
        mp, mq = rng.normal(size=(2, d))
        vp, vq = rng.uniform(0.3, 3.0, size=(2, d))
        diag_val = math.sqrt(np.sum((mp - mq) ** 2) + np.sum((np.sqrt(vp) - np.sqrt(vq)) ** 2))
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        p = GaussianLaw(Q @ mp, Q @ np.diag(vp) @ Q.T)
        q = GaussianLaw(Q @ mq, Q @ np.diag(vq) @ Q.T)
        assert w2_gaussian(p, q) == pytest.approx(diag_val, abs=1e-10)


def test_tv_gaussian_1d_basics():
    p = gaussian_1d(0.0, 1.0)
    assert tv_gaussian_1d(p, p) == 0.0
    from scipy.special import ndtr

    shifted = tv_gaussian_1d(p, gaussian_1d(1.0, 1.0))
    assert shifted == pytest.approx(2.0 * ndtr(0.5) - 1.0, abs=1e-8)
    assert shifted == pytest.approx(0.38292, abs=1e-5)
    with pytest.raises(ValueError, match="d = 1"):
        tv_gaussian_1d(GaussianLaw(np.zeros(2), np.eye(2)), GaussianLaw(np.zeros(2), np.eye(2)))


def test_pinsker_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = gaussian_1d(rng.normal(0, 2), rng.uniform(0.3, 4.0))
        q = gaussian_1d(rng.normal(0, 2), rng.uniform(0.3, 4.0))
        assert tv_gaussian_1d(p, q) <= math.sqrt(kl_gaussian(p, q) / 2.0) + 1e-8


def _tv_40_digits(mp_, vp_, mq_, vq_) -> float:
    """TV(N(mp, vp), N(mq, vq)) in 40-digit arithmetic: |P(I) - Q(I)| on the interval I between the crossings."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        m1, v1, m2, v2 = (mp.mpf(v) for v in (mp_, vp_, mq_, vq_))
        if v1 == v2:
            lo, hi = (m1 + m2) / 2, mp.inf
        else:  # the crossings solve (v2 - v1) x^2 - 2 (v2 m1 - v1 m2) x + c = 0
            a, b = v2 - v1, -2 * (v2 * m1 - v1 * m2)
            c = v2 * m1**2 - v1 * m2**2 - v1 * v2 * mp.log(v2 / v1)
            r = mp.sqrt(b * b - 4 * a * c)
            lo, hi = sorted(((-b - r) / (2 * a), (-b + r) / (2 * a)))

        def mass(m, v):
            return mp.ncdf(hi, m, mp.sqrt(v)) - mp.ncdf(lo, m, mp.sqrt(v))

        return float(abs(mass(m1, v1) - mass(m2, v2)))


def test_tv_gaussian_1d_matches_a_40_digit_reference():
    """Within 1e-15 of the 40-digit TV on 401 pairs: Pinsker-style, near-converged, and far apart.

    Near-converged pairs perturb the mean, the variance or both by 1e-8 to
    1e-2; each pair is checked in both orders. Measured: at most 3.1e-16.
    Adaptive quadrature of |p - q| was off by 8.9e-6 on N(0, 1e-4) vs
    N(0, 1e4).
    """
    rng = np.random.default_rng(3)
    pairs = [(0.0, 1e-4, 0.0, 1e4)]
    for _ in range(200):
        pairs.append((rng.normal(0, 2), rng.uniform(0.3, 4.0), rng.normal(0, 2), rng.uniform(0.3, 4.0)))
    for i in range(200):
        m, v = rng.normal(0, 2), rng.uniform(0.3, 4.0)
        e = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -2.0)
        dm, dv = (e, 0.0) if i % 3 == 0 else (0.0, e) if i % 3 == 1 else (e, -e)
        pairs.append((m, v, m + dm, v * (1.0 + dv)))
    for pair in pairs:
        p, q = gaussian_1d(*pair[:2]), gaussian_1d(*pair[2:])
        exact = _tv_40_digits(*pair)
        assert abs(tv_gaussian_1d(p, q) - exact) <= 1e-15, pair
        assert abs(tv_gaussian_1d(q, p) - exact) <= 1e-15, pair


def test_ndtr_matches_scipy_and_a_40_digit_reference():
    """_ndtr on [-20, 9] is within (1 + x^2) * 2^-51 of the 40-digit CDF, relative, and so is scipy's ndtr.

    Rounding x / sqrt(2) moves the CDF by up to about x^2 * 2^-53 relative
    (its relative condition number in the lower tail is about x^2), so no
    double-precision CDF does better; the factor 4 over that covers a few ulp
    of erf/erfc. Measured on these points: _ndtr reaches 0.40 of the bound,
    scipy 0.84, and the two differ by at most 1.1e-16 absolute and 1.5e-14
    relative.
    """
    from scipy.special import ndtr

    from langevin_kl.gaussian_oracle import _ndtr

    mp = pytest.importorskip("mpmath").mp
    x = np.concatenate([np.linspace(-20.0, 9.0, 2901), np.random.default_rng(0).uniform(-20.0, 9.0, 500)])
    with mp.workdps(40):
        exact = np.array([float(mp.ncdf(mp.mpf(float(v)))) for v in x])
    bound = (1.0 + x * x) * 2.0**-51 * exact
    ours = _ndtr(x)
    assert ours.shape == x.shape and ours.dtype == np.float64
    assert np.all(np.abs(ours - exact) <= bound)
    assert np.all(np.abs(ndtr(x) - exact) <= bound)
    assert np.all(np.abs(ours - ndtr(x)) <= 2.0 * bound)
    assert _ndtr(np.array([0.0, -40.0, 40.0])).tolist() == [0.5, 0.0, 1.0]


def test_fisher_info_basics():
    A = np.array([[1.0]])
    assert fisher_info_relative(target_law(A), A) == pytest.approx(0.0, abs=1e-12)
    # 1-D centered: (v - 1/a)^2 a^2 / v = (av - 1)^2/v = 0.5 at v = 2, a = 1
    assert fisher_info_relative(gaussian_1d(0.0, 2.0), A) == pytest.approx(0.5, abs=1e-14)


def test_fisher_info_matches_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(10):
        mp = rng.normal(0, 1)
        vp = rng.uniform(0.4, 3.0)
        a = rng.uniform(0.4, 3.0)
        got = fisher_info_relative(gaussian_1d(mp, vp), np.array([[a]]))
        assert got == pytest.approx(_fisher_quadrature(mp, vp, a), rel=1e-9)


def test_log_sobolev_type_bound_on_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        A = _random_spd(rng, d)
        m = float(np.linalg.eigvalsh(A)[0])
        p = _random_law(rng, d)
        kl = kl_gaussian(p, target_law(A))
        assert kl <= fisher_info_relative(p, A) / (2.0 * m) + 1e-12


def test_talagrand_type_bound_on_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        A = _random_spd(rng, d)
        m = float(np.linalg.eigvalsh(A)[0])
        p = _random_law(rng, d)
        tgt = target_law(A)
        assert w2_gaussian(p, tgt) ** 2 <= (2.0 / m) * kl_gaussian(p, tgt) + 1e-9


def test_weak_convexity_bound_on_random_pairs():
    rng = np.random.default_rng(37)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        A = _random_spd(rng, d)
        p = _random_law(rng, d)
        tgt = target_law(A)
        kl = kl_gaussian(p, tgt)
        assert kl <= math.sqrt(fisher_info_relative(p, A)) * w2_gaussian(p, tgt) + 1e-9


def test_dissipation_identity_along_exact_flow():
    # centered difference of KL along the flow vs -fisher, 20 diagonal cases
    rng = np.random.default_rng(41)
    delta = 1e-5
    for _ in range(20):
        d = int(rng.integers(1, 4))
        a = rng.uniform(0.3, 3.0, size=d)
        A = np.diag(a)
        init = GaussianLaw(rng.uniform(-2, 2, size=d), np.diag(rng.uniform(0.4, 3.0, size=d)))
        t = float(rng.uniform(0.05, 1.0))
        tgt = target_law(A)
        dkl = (
            kl_gaussian(exact_flow_law(A, init, t + delta), tgt)
            - kl_gaussian(exact_flow_law(A, init, t - delta), tgt)
        ) / (2.0 * delta)
        fisher = fisher_info_relative(exact_flow_law(A, init, t), A)
        assert abs(dkl + fisher) <= 1e-3 * fisher


# ---------------------------------------------------------------------------
# trajectories


def test_kl_trajectory_reference_run():
    plan = plan_strong(1, 2, 2, 0.1)
    A = np.diag([1.0, 2.0])
    traj = kl_trajectory(A, GaussianLaw(np.zeros(2), np.eye(2)), plan.h, plan.k)
    assert len(traj) == plan.k + 1
    assert traj[-1] <= 0.1
    # monotone non-increasing while the gap is above the target
    arr = np.asarray(traj)
    above = arr[:-1] >= 0.1
    assert np.all(np.diff(arr)[above] <= 1e-15)


def test_kl_trajectory_from_target_rises_to_stationary_gap():
    A = np.array([[1.0]])
    traj = kl_trajectory(A, target_law(A), 0.01, 200)
    assert traj[0] == pytest.approx(0.0, abs=1e-12)
    assert traj[-1] > traj[0]
    gap = kl_gaussian(stationary_law(A, 0.01), target_law(A))
    assert traj[-1] <= gap + 1e-12


# ---------------------------------------------------------------------------
# closed form against the step recursion
#
# The recursion mean' = M mean, cov' = M cov M^T + 2h I with M = I - hA is
# written out here, independently of the package's eigenbasis form. It
# carries its own rounding (about k*eps on the mean, eps/(h*lambda) on the
# covariance), far below the 1e-12 the two are held to.


def _recursion(law, A, h, k):
    """(mean, cov) after 1, ..., k ULA steps, one matrix recursion step at a time."""
    M = np.eye(law.d) - h * np.asarray(A, dtype=float)
    mean, cov = law.mean, law.cov
    for _ in range(k):
        mean = M @ mean
        cov = M @ cov @ M.T + 2.0 * h * np.eye(law.d)
        yield mean, cov


def _kl_to_target(mean, cov, A):
    """KL(N(mean, cov) || N(0, A^-1)) without cancellation: x = eig(A^1/2 cov A^1/2) - 1."""
    w, Q = np.linalg.eigh(A)
    root = (Q * np.sqrt(w)) @ Q.T
    x = np.linalg.eigvalsh(root @ cov @ root) - 1.0
    am = root @ mean
    return 0.5 * (float(np.sum(x - np.log1p(x))) + float(am @ am))


def _close(got, want, rel=1e-12):
    """Entries within rel of the largest entry of want (exact when want is 0)."""
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# (A, init, h, k): the A1-A3 schedule plan_strong(1, 2, 2, 0.1) on diag(1, 2)
# and A1b's plan_strong(1, 1, 1, 0.05), plus a rotated target with a
# non-isotropic init. The inits keep the KL at 1e-4 or more: from A1's
# N(0, I) the KL falls to 2e-7, where the recursion's own covariance
# rounding moves it by up to 3e-12 relative.
_SCHEDULES = {
    "a1-a3": (np.diag([1.0, 2.0]), GaussianLaw([0.5, -1.0], [1.0, 1.0]), 7.8125e-4, 4722),
    "a1b": (np.array([[1.0]]), gaussian_1d(0.5, 2.0), 0.003125, 959),
    "rotated": (
        np.array([[2.0, 0.5, 0.1], [0.5, 1.0, -0.3], [0.1, -0.3, 1.5]]),
        GaussianLaw([0.3, -0.2, 0.6], [[1.4, 0.3, 0.0], [0.3, 0.6, 0.1], [0.0, 0.1, 2.0]]),
        0.01,
        300,
    ),
}


@pytest.mark.parametrize("name", sorted(_SCHEDULES))
def test_closed_form_matches_recursion(name):
    A, law, h, k = _SCHEDULES[name]
    path = GaussianPath(law, A)
    second, w2_pi_h = path.stats(h, k)
    kl, w2 = path.target_stats(h, k)
    assert kl.tolist() == kl_trajectory(A, law, h, k)
    pi_h, target = stationary_law(A, h), target_law(A)
    checked = 0
    for j, (mean, cov) in enumerate(_recursion(law, A, h, k), start=1):
        assert abs(kl[j] - _kl_to_target(mean, cov, A)) <= 1e-12 * kl[j]
        assert abs(second[j] - (np.trace(cov) + mean @ mean)) <= 1e-12 * second[j]
        assert abs(w2_pi_h[j] - w2_gaussian(GaussianLaw(mean, cov), pi_h)) <= 1e-12
        assert abs(w2[j] - w2_gaussian(GaussianLaw(mean, cov), target)) <= 1e-12
        if j % 97 == 0 or j == k:
            closed = path.jump(h, j).law
            assert _close(closed.mean, mean)
            assert _close(closed.cov, cov)
            assert abs(kl[j] - _kl_to_target(closed.mean, closed.cov, A)) <= 1e-12 * kl[j]
            checked += 1
    assert checked == k // 97 + (k % 97 != 0)


def test_rotated_init_takes_the_batched_w2_path():
    # a non-isotropic covariance on a rotated A is not diagonal in A's eigenbasis
    A, law, h, k = _SCHEDULES["rotated"]
    w, Q = np.linalg.eigh(A)
    assert np.abs(Q.T @ law.cov @ Q - np.diag(np.diagonal(Q.T @ law.cov @ Q))).max() > 0.1
    path = GaussianPath(law, A)
    second, w2_pi_h = path.stats(h, k, first=k - 9)
    kl, w2 = path.target_stats(h, k, first=k - 9)
    assert w2_pi_h.shape == kl.shape == (10,)
    end = path.jump(h, k).law
    assert w2_pi_h[-1] == pytest.approx(w2_gaussian(end, stationary_law(A, h)), abs=1e-12)
    assert w2[-1] == pytest.approx(w2_gaussian(end, target_law(A)), abs=1e-12)
    assert abs(kl[-1] - _kl_to_target(end.mean, end.cov, A)) <= 1e-12 * kl[-1]
    assert second[-1] == pytest.approx(end.second_moment, rel=1e-12)


def test_path_pass_from_step_zero_reads_the_held_law():
    # step 0 of a pass is the law itself, also at h*lambda = 1 where (1 - h lambda)^0 = 0^0
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    law = GaussianLaw([0.4, -0.3], [[0.5, 0.1], [0.1, 1.8]])
    h = 1.0 / float(np.linalg.eigvalsh(A)[-1])
    second, w2_pi_h = GaussianPath(law, A).stats(h, 0)
    kl, w2 = GaussianPath(law, A).target_stats(h, 0)
    target = target_law(A)
    assert second[0] == pytest.approx(law.second_moment, rel=1e-12)
    assert w2_pi_h[0] == pytest.approx(w2_gaussian(law, stationary_law(A, h)), abs=1e-12)
    assert kl[0] == pytest.approx(kl_gaussian(law, target), rel=1e-12)
    assert w2[0] == pytest.approx(w2_gaussian(law, target), abs=1e-12)
    path = GaussianPath(law, np.diag([1.0, 4.0]))
    stats = path.stats(0.25, 5) + path.target_stats(0.25, 5)
    assert all(np.isfinite(s).all() for s in stats)


def test_path_decomposes_a_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(1) or eigh(M))
    A, law, h, k = _SCHEDULES["rotated"]
    path = GaussianPath(law, A)
    for _ in range(3):
        path.stats(h, k, first=k - 2)
        path.target_stats(h, k, first=k - 2)
        path = path.jump(h, k)
    path.law
    assert len(calls) == 1
    path = GaussianPath(law, np.diag([1.0, 2.0, 3.0]))
    path.jump(h, k).stats(h, 5)
    path.jump(h, k).target_stats(h, 5)
    assert len(calls) == 1  # a diagonal A is its own eigenbasis


def test_diagonal_target_keeps_covariance_exactly_diagonal():
    law = ula_step_law(GaussianLaw([1.0, -2.0, 0.5], [0.3, 2.0, 1.0]), np.diag([1.0, 3.0, 0.5]), 0.1, 250)
    assert np.count_nonzero(law.cov - np.diag(np.diagonal(law.cov))) == 0


def test_h_lambda_one_and_close_to_two():
    # h*lambda = 1 annihilates that coordinate of the mean and puts its
    # variance at v = 2/lambda in one step, exactly
    A = np.diag([1.0, 4.0])
    law = GaussianLaw([1.0, 3.0], [2.0, 5.0])
    for k in (1, 2, 7):
        out = ula_step_law(law, A, 0.25, k)
        assert out.mean[1] == 0.0
        assert out.cov[1, 1] == 0.5
    # h*lambda = 1.99: r = -0.99 alternates the sign of the mean every step
    A = np.array([[1.0, 0.2], [0.2, 0.5]])
    h = 1.99 / float(np.linalg.eigvalsh(A)[-1])
    law = GaussianLaw([1.0, -0.5], [[1.0, 0.2], [0.2, 0.7]])
    for j, (mean, cov) in enumerate(_recursion(law, A, h, 60), start=1):
        closed = ula_step_law(law, A, h, j)
        assert _close(closed.mean, mean)
        assert _close(closed.cov, cov)


def test_halving_stages_compose_stage_by_stage():
    A = np.diag([1.0, 2.0])
    stages = [(0.05, 40), (0.025, 80), (0.0125, 160)]
    law = GaussianLaw([0.5, -1.0], [1.0, 1.0])
    mean, cov = law.mean, law.cov
    for h, k in stages:
        *_, (mean, cov) = _recursion(GaussianLaw(mean, cov), A, h, k)
        law = ula_step_law(law, A, h, k)
        assert _close(law.mean, mean)
        assert _close(law.cov, cov)


def test_zero_steps_and_bad_counts():
    law = GaussianLaw([1.0], [2.0])
    assert ula_step_law(law, np.array([[1.0]]), 0.1, 0) is law
    with pytest.raises(ValueError, match="nonnegative"):
        ula_step_law(law, np.array([[1.0]]), 0.1, -1)
    with pytest.raises(ValueError, match="positive definite"):
        ula_step_law(GaussianLaw(np.zeros(2), np.eye(2)), np.diag([1.0, -1.0]), 0.1)


_LAW1 = GaussianLaw([0.0], [1.0])
_LAW2 = GaussianLaw(np.zeros(2), np.eye(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: target_law(np.ones((2, 3))), "matrix must be square and non-empty, got shape"),
        (lambda: target_law(np.array([[1.0, 0.5], [0.0, 1.0]])), "matrix must be symmetric"),
        (lambda: ula_step_law(_LAW1, np.eye(1), 0.0), "step size must be positive"),
        (lambda: GaussianPath(_LAW2, np.eye(1)), "dimension mismatch: law d=2"),
        (lambda: GaussianPath(_LAW1, np.eye(1)).stats(0.1, 2, first=3), "need 0 <= first <= k"),
        *[
            (lambda t=t: exact_flow_law(np.eye(1), _LAW1, t), "time must be finite and nonnegative")
            for t in (-1.0, math.nan, math.inf)
        ],
        (lambda: kl_gaussian(_LAW1, _LAW2), "dimension mismatch: 1 vs 2"),
        (lambda: w2_gaussian(_LAW1, _LAW2), "dimension mismatch: 1 vs 2"),
        (lambda: fisher_info_relative(_LAW1, np.eye(2)), "dimension mismatch: law d=1"),
        (lambda: GaussianLaw([math.nan], [[1.0]]), "mean must be finite"),
        (lambda: GaussianLaw([0.0], [[math.inf]]), "covariance must be finite"),
    ],
    ids=[
        "not-square",
        "not-symmetric",
        "zero-step",
        "path-dimension",
        "first-after-k",
        "flow-time-negative",
        "flow-time-nan",
        "flow-time-inf",
        "kl-dimension",
        "w2-dimension",
        "fisher-dimension",
        "law-mean-nan",
        "law-cov-inf",
    ],
)
def test_gaussian_oracle_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()
