import functools
import math
import re
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from langevin_kl import gaussian_oracle, grid_oracle
from langevin_kl.chain import GaussianInit, PointInit
from langevin_kl.gaussian_oracle import GaussianLaw, gaussian_1d, kl_gaussian, target_law, ula_step_law
from langevin_kl.grid_oracle import (
    GridCoverageError,
    GridDensity,
    default_grid,
    discretize_gaussian,
    discretize_law,
    discretize_point,
    estimate_h_prime,
    kl_grid,
    second_moment_grid,
    stationary_grid,
    target_density_grid,
    tv_grid,
    ula_step_grid,
    w2_grid_1d,
)
from langevin_kl.potentials import huber, quadratic_diagonal, u_value


def _tail_taps(ndtr, offs, dx, sd):
    """The noise kernel's taps written out: tap t spans (t -/+ 1/2) dx and takes its mass from its own tail.

    Phi(-|x|) at both edges; a tap below 0 is the upper edge's tail less the lower's, a tap above 0 the mirror of
    that, and the centre tap 1 less both tails.
    """
    lo, hi = ndtr(-np.abs(offs - 0.5 * dx) / sd), ndtr(-np.abs(offs + 0.5 * dx) / sd)
    taps = np.where(offs < 0, hi - lo, lo - hi)
    mid = offs == 0
    taps[mid] = 1.0 - lo[mid] - hi[mid]
    return taps


def _box(pot, init=None, n=None):
    """The box default_grid works out, read from the target law it returns."""
    target, _ = default_grid(pot, init, n)
    return target.x_min, target.x_max, target.n


def test_discretize_gaussian_mass_and_symmetry():
    g = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    assert g.mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(np.abs(g.mass - g.mass[::-1]).max()) <= 1e-12


def test_discretize_gaussian_coverage_error():
    with pytest.raises(GridCoverageError, match="cover"):
        discretize_gaussian(0.0, 1.0, -1.0, 1.0, 256)


def test_discretize_point_single_cell_when_on_a_center():
    g = discretize_point(0.0, -8.0, 8.0, 4095)  # odd n puts a center at 0
    assert np.count_nonzero(g.mass) == 1
    assert second_moment_grid(g) == pytest.approx(0.0, abs=1e-12)


def test_discretize_point_second_moment():
    g = discretize_point(3.0, -8.0, 8.0, 8192)
    assert second_moment_grid(g) == pytest.approx(9.0, abs=1e-6)
    assert np.sum(g.mass * g.centers) == pytest.approx(3.0, abs=1e-12)


def test_discretize_point_outside_grid():
    with pytest.raises(GridCoverageError, match="outside"):
        discretize_point(9.0, -8.0, 8.0, 256)


def test_discretize_law_dispatch():
    a = discretize_law(GaussianInit(mean=np.zeros(1), cov_diag=np.ones(1)), -8, 8, 1024)
    b = discretize_gaussian(0.0, 1.0, -8, 8, 1024)
    assert np.array_equal(a.mass, b.mass)
    c = discretize_law(PointInit(np.array([0.5])), -8, 8, 1024)
    assert np.sum(c.mass * c.centers) == pytest.approx(0.5, abs=1e-12)


def test_grid_density_flags_boundary_mass():
    m = np.full(64, 1.0 / 64)
    with pytest.raises(GridCoverageError, match="boundary"):
        GridDensity(-1.0, 1.0, 64, m)


def test_second_moment_of_standard_normal():
    g = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 8192)
    assert second_moment_grid(g) == pytest.approx(1.0, abs=1e-6)


def test_ula_step_grid_matches_gaussian_oracle_one_step():
    pot = quadratic_diagonal([1.0])
    p = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    p1 = ula_step_grid(p, pot, 0.1)
    # exact law after one step: variance 0.81 + 0.2 = 1.01, mean 0
    assert np.sum(p1.mass * p1.centers) == pytest.approx(0.0, abs=1e-12)
    assert second_moment_grid(p1) == pytest.approx(1.01, abs=1e-4)


def test_ula_step_grid_tiny_step_is_near_identity():
    pot = quadratic_diagonal([1.0])
    p = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    p1 = ula_step_grid(p, pot, 1e-6)
    assert tv_grid(p1, p) <= 1e-6


def test_ula_step_grid_huber_tail_drift():
    pot = huber(1.0)
    lo, hi, n = _box(pot)
    p = discretize_point(5.0, lo, hi, n)
    p1 = ula_step_grid(p, pot, 0.1)
    # gradient is exactly delta = 1 in the tail and the kernel is centered
    assert np.sum(p1.mass * p1.centers) - np.sum(p.mass * p.centers) == pytest.approx(-0.1, abs=1e-9)


def test_ula_step_grid_monotonicity_guard():
    pot = quadratic_diagonal([1.0])
    p = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 1024)
    with pytest.raises(ValueError, match="monotone"):
        ula_step_grid(p, pot, 3.0)


@pytest.mark.parametrize("k", [0, -1, 2.5])
def test_ula_step_grid_needs_a_positive_integer_step_count(k):
    p = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 1024)
    with pytest.raises(ValueError, match="step count must be a positive integer"):
        ula_step_grid(p, quadratic_diagonal([1.0]), 0.1, k)


@pytest.mark.parametrize("h", [math.inf, math.nan])
def test_grid_steps_reject_a_non_finite_step_size(h):
    pot = quadratic_diagonal([1.0])
    p = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 1024)
    with pytest.raises(ValueError, match="positive and finite"):
        ula_step_grid(p, pot, h)
    with pytest.raises(ValueError, match="positive and finite"):
        stationary_grid(pot, h, target_density_grid(pot, -8.0, 8.0, 1024))


def test_fresh_grid_laws_start_an_empty_error_budget():
    pot = huber(1.0)
    lo, hi, n = _box(pot)
    raw = np.ones(64)
    raw[[0, -1]] = 1e-10, 3e-10  # boundary cells below the 1e-9 coverage limit
    for p in (
        discretize_gaussian(0.5, 4.0, lo, hi, n),
        discretize_point(1.3, lo, hi, n),
        target_density_grid(pot, lo, hi, n),
        GridDensity(-3.0, 3.0, 64, raw / raw.sum()),
    ):
        assert p.renorm_drift_abs_sum == 0.0
        assert p.boundary_mass_max == max(p.mass[0], p.mass[-1])
    assert p.boundary_mass_max > 0.0


@pytest.mark.parametrize(
    "pot, lo, hi, n, mean, var, h, k",
    [
        (huber(1.0), -24.0, 24.0, 4096, 0.0, 4.0, 0.00144, 100),  # the huber-weak-grid run's step
        (huber(0.5), -12.0, 12.0, 1000, 1.0, 0.5, 0.05, 7),  # n not a multiple of the block side
        (quadratic_diagonal([2.0]), -8.0, 8.0, 512, -0.5, 0.3, 0.2, 3),
    ],
)
def test_ula_step_grid_k_steps_are_k_single_steps_bit_for_bit(pot, lo, hi, n, mean, var, h, k):
    # twice from the same law: the second interval carries the first one's budget on
    p = q = discretize_gaussian(mean, var, lo, hi, n)
    for _ in range(2):
        p = ula_step_grid(p, pot, h, k)
        for _ in range(k):
            q = ula_step_grid(q, pot, h)
        assert np.array_equal(p.mass, q.mass)
        assert p.renorm_drift_abs_sum == q.renorm_drift_abs_sum
        assert p.boundary_mass_max == q.boundary_mass_max


def test_w2_breaks_match_union1d():
    """w2_grid_1d's sort-and-dedup breaks are np.union1d's, so the distance is bit-exact with it."""

    def w2_union1d(p, q):
        c, cp, cq = p.centers, np.cumsum(p.mass), np.cumsum(q.mass)
        cp /= cp[-1]
        cq /= cq[-1]
        breaks = np.union1d(cp, cq)
        seg = np.diff(breaks, prepend=0.0)
        ip = np.minimum(np.searchsorted(cp, breaks, side="left"), p.n - 1)
        iq = np.minimum(np.searchsorted(cq, breaks, side="left"), p.n - 1)
        return math.sqrt(float(np.sum(seg * (c[ip] - c[iq]) ** 2)))

    rng = np.random.default_rng(4)
    for _ in range(50):
        raw = rng.exponential(size=(2, 64)) * (rng.uniform(size=(2, 64)) < 0.7)
        raw[:, [0, -1]] = 0.0  # empty boundary cells, and repeated CDF values wherever a cell is empty
        p, q = (GridDensity(-4.0, 4.0, 64, r / r.sum()) for r in raw)
        assert w2_grid_1d(p, q) == w2_union1d(p, q)
    assert w2_grid_1d(p, p) == 0.0
    # the huber-weak-grid run's own 4,096-cell laws, where the merge runs
    pot = huber(1.0)
    lo, hi, n = _box(pot)
    target = target_density_grid(pot, lo, hi, n)
    start = discretize_gaussian(0.0, 4.0, lo, hi, n)
    later = ula_step_grid(start, pot, 0.00144, 500)
    for p in (start, later):
        assert w2_grid_1d(p, target) == w2_union1d(p, target) > 0.0
    assert w2_grid_1d(target, target) == w2_union1d(target, target) == 0.0


def test_ula_step_grid_memo_is_bit_exact_and_keyed_per_operator():
    import langevin_kl.grid_oracle as grid_mod
    from langevin_kl.gaussian_oracle import _ndtr as ndtr
    from langevin_kl.potentials import grad_u

    def fresh_step(p, pot, h):  # the step with nothing reused
        c = p.centers
        pos = (c - h * grad_u(pot, c[:, None]).ravel() - p.x_min) / p.dx - 0.5
        j = np.clip(np.floor(pos).astype(int), 0, p.n - 2)
        f = np.clip(pos - j, 0.0, 1.0)
        pushed = np.bincount(j, weights=p.mass * (1.0 - f), minlength=p.n)
        pushed += np.bincount(j + 1, weights=p.mass * f, minlength=p.n)
        sd = math.sqrt(2.0 * h)
        offs = np.arange(-math.ceil(8.0 * sd / p.dx), math.ceil(8.0 * sd / p.dx) + 1) * p.dx
        kern = _tail_taps(ndtr, offs, p.dx, sd)
        kern /= kern.sum()
        # the convolution's band built column by column: row i of a block's
        # window of padded cells feeds its output cell r with kern[K - 1 - (i - r)]
        B, K = grid_mod._BLOCK, kern.size
        nb = -(-p.n // B)
        band = np.zeros((B + K - 1, B))
        for r in range(B):
            band[r : r + K, r] = kern[::-1]
        pad = np.zeros(nb * B + K - 1)
        pad[K // 2 : K // 2 + p.n] = pushed
        windows = np.array([pad[b * B : b * B + B + K - 1] for b in range(nb)])
        # in the step's chunks of blocks (one product in every case but h = 1): BLAS
        # may round a row differently in a product of another height
        rows = grid_mod._COLUMN_BYTES // (8 * (B + K - 1))
        mixed = np.concatenate([windows[b : b + rows] @ band for b in range(0, nb, rows)]).ravel()[: p.n]
        return mixed / mixed.sum()

    p = discretize_gaussian(0.5, 2.0, -12.0, 12.0, 1024)
    start = discretize_gaussian(0.0, 4.0, -24.0, 24.0, 4096)  # the huber-weak-grid run's start
    hub, other = huber(1.0), huber(0.5)
    # the last two: the run's own operator (2 runs, pushed by slices) and h = 1/L (172 runs, by bincount)
    cases = [(p, hub, 0.1), (p, other, 0.1), (p, hub, 0.05), (p, hub, 0.1), (start, hub, 0.00144), (start, hub, 1.0)]
    for q, pot, h in cases:
        for _ in range(3):
            expected = fresh_step(q, pot, h)
            q = ula_step_grid(q, pot, h)
            assert np.array_equal(q.mass, expected)
    # one slot: moving on to another h frees the operator of the last one
    last = weakref.ref(grid_mod._step_operator(p, hub, 0.01))
    ula_step_grid(p, hub, 0.02)
    assert last() is None and grid_mod._STEP_SLOT[0] == (p.x_min, p.x_max, p.n, id(hub), 0.02)


@pytest.mark.parametrize("h, runs, calls", [(0.00144, 2, 0), (1.0, 172, 2)])
def test_grid_step_pushes_by_bincount_only_where_the_cell_offset_changes_often(h, runs, calls, monkeypatch):
    """The huber-weak-grid run's operator (2 runs of one cell offset) calls no bincount; h = 1/L two a step."""
    pot = huber(1.0)
    p = discretize_gaussian(0.0, 4.0, -24.0, 24.0, 4096)
    assert grid_oracle._step_operator(p, pot, h).runs.size - 1 == runs
    counted, bincount = [], np.bincount

    def counting(*args, **kwargs):
        counted.append(args)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(grid_oracle.np, "bincount", counting)
    ula_step_grid(p, pot, h, 3)
    assert len(counted) == 3 * calls


@pytest.mark.parametrize(
    "pot, lo, hi, n, h, taps",
    [
        (huber(1.0), -24.0, 24.0, 4096, 0.00144, 75),  # the huber-weak-grid run's kernel
        (huber(1.0), -24.0, 24.0, 4096, 1.0, 1933),  # estimate_h_prime's first, widest kernel
        (quadratic_diagonal([1.0]), -8.0, 8.0, 1000, 1e-4, 17),  # narrow, n not a multiple of 32
        (quadratic_diagonal([1.0]), -8.0, 8.0, 1000, 0.49, 991),  # nearly as wide as the grid
    ],
)
def test_blocked_convolution_matches_np_convolve(pot, lo, hi, n, h, taps, monkeypatch):
    import dataclasses

    import langevin_kl.grid_oracle as grid_mod

    op = grid_mod._step_operator(discretize_gaussian(0.0, 1.0, lo, hi, n), pot, h)
    assert op.kern.size == taps
    # the identity push (the last cell through its right-hand split), so that one
    # kernel step is the blocked convolution and its renormalisation alone
    j = np.minimum(np.arange(n), n - 2)
    f = (np.arange(n) == n - 1).astype(float)
    convolve_only = dataclasses.replace(op, j=j, j1=j + 1, f=f, g=1.0 - f)
    monkeypatch.setattr(grid_mod, "_step_operator", lambda *args: convolve_only)
    # wide kernels spill mass past the grid ends, as mode="same" truncates it;
    # the coverage check would refuse the boundary cells that mass crosses
    monkeypatch.setattr(grid_mod, "_check_boundary", lambda mass: None)
    rng = np.random.default_rng(taps)
    # non-negative cells over 30 decades, with an empty stretch at each end
    x = rng.uniform(size=n) * 10.0 ** rng.uniform(-30.0, 0.0, size=n)
    x[: n // 10] = 0.0
    x[-n // 7 :] = 0.0
    x /= x.sum()
    got = ula_step_grid(GridDensity(lo, hi, n, x), pot, h, 1)
    want = np.convolve(x, op.kern, mode="same")
    np.testing.assert_allclose(got.mass, want / want.sum(), rtol=1e-13, atol=0.0)


def test_grid_step_memory_stays_small_at_the_widest_kernel():
    """A step at estimate_h_prime's 1,933-tap kernel allocates well under 0.5 MB beyond its operator.

    The column buffer of the windows is capped, so the widest kernel a run
    builds takes its band product in row chunks; one uncapped product would
    need a 2 MB buffer here.
    """
    import tracemalloc

    import langevin_kl.grid_oracle as grid_mod

    pot = huber(1.0)
    lo, hi, n = _box(pot)
    p = discretize_gaussian(0.0, 4.0, lo, hi, n)
    assert grid_mod._step_operator(p, pot, 1.0).kern.size == 1933
    tracemalloc.start()
    try:
        ula_step_grid(p, pot, 1.0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_kernel_fails_on_coverage_at_the_step_single_steps_do():
    # the law spreads until a boundary cell crosses 1e-9, partway through an interval
    pot, h = huber(1.0), 0.02
    p = discretize_gaussian(0.5, 0.25, -4.0, 5.0, 288)
    q, fails_at = p, None
    for s in range(1, 40):
        try:
            q = ula_step_grid(q, pot, h)
        except GridCoverageError as exc:
            fails_at, message = s, str(exc)
            break
    assert fails_at is not None and fails_at > 2
    before = ula_step_grid(p, pot, h, fails_at - 1)
    assert np.array_equal(before.mass, q.mass)
    for steps in (fails_at, fails_at + 5):
        with pytest.raises(GridCoverageError) as caught:
            ula_step_grid(p, pot, h, steps)
        assert str(caught.value) == message


def test_mass_conservation_per_step():
    pot = quadratic_diagonal([1.0])
    p = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    for _ in range(20):
        before = p.renorm_drift_abs_sum
        p = ula_step_grid(p, pot, 0.1)
        assert p.renorm_drift_abs_sum - before < 1e-9


def test_kl_grid_reference_value():
    p = discretize_gaussian(0.0, 8.0 / 7.0, -10.0, 10.0, 8192)
    q = discretize_gaussian(0.0, 1.0, -10.0, 10.0, 8192)
    assert kl_grid(p, p) == 0.0
    closed = kl_gaussian(gaussian_1d(0.0, 8.0 / 7.0), gaussian_1d(0.0, 1.0))
    assert kl_grid(p, q) == pytest.approx(closed, abs=1e-5)
    assert kl_grid(p, q) >= -1e-9


def test_kl_grid_support_violation():
    p = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 4095)
    q = discretize_point(0.0, -8.0, 8.0, 4095)
    with pytest.raises(ValueError, match="support"):
        kl_grid(p, q)


def test_kl_grid_self_consistency_for_huber_target():
    pot = huber(1.0)
    lo, hi, n = _box(pot)
    t = target_density_grid(pot, lo, hi, n)
    assert kl_grid(t, t) == 0.0


def test_target_density_grid_matches_gaussian_discretization():
    pot = quadratic_diagonal([1.0])
    t = target_density_grid(pot, -8.0, 8.0, 4096)
    g = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    assert float(np.abs(t.mass - g.mass).max()) <= 1e-8


def test_target_density_grid_huber_moments():
    pot = huber(1.0)
    lo, hi, n = _box(pot)
    t = target_density_grid(pot, lo, hi, n)
    assert np.abs(t.mass - t.mass[::-1]).max() <= 1e-15  # symmetric
    assert np.argmax(t.mass) in (n // 2 - 1, n // 2)  # unimodal peak at 0
    # independent quadrature oracle for the second moment of exp(-U)/Z
    z, _ = quad(lambda x: math.exp(-u_value(pot, [x])), -40, 40, limit=400)
    m2, _ = quad(lambda x: x * x * math.exp(-u_value(pot, [x])), -40, 40, limit=400)
    assert second_moment_grid(t) == pytest.approx(m2 / z, abs=1e-6)


def test_target_density_grid_too_small():
    pot = quadratic_diagonal([1.0])
    with pytest.raises(GridCoverageError, match="grid too small"):
        target_density_grid(pot, -2.0, 2.0, 256)


@pytest.mark.parametrize(
    "pot, init, n, half",
    [
        (quadratic_diagonal([1.0]), None, None, 12.0),
        (quadratic_diagonal([4.0]), GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, 0.25)), 2048, 6.0),
        (quadratic_diagonal([0.1]), None, None, 24.0),
        (huber(1.0), GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, 4.0)), None, 24.0),
        (huber(1.0), PointInit(np.full(1, -23.9)), None, 24.0),
    ],
    ids=["diag-1", "diag-4-start-n-2048", "diag-0.1", "huber-1-from-N(0,4)", "huber-1-point-near-the-edge"],
)
def test_default_grid_keeps_its_box_where_both_laws_fit(pot, init, n, half):
    """12/sqrt(max(m, 1/4)) is the box wherever it holds the target and the start: bit for bit, at the cells asked for."""
    assert _box(pot, init, n) == (-half, half, 4096 if n is None else n)


@pytest.mark.parametrize(
    "pot, init, half",
    [
        (huber(0.5), None, 48.0),
        (huber(0.3), None, 96.0),
        (huber(0.1), None, 192.0),
        (quadratic_diagonal([0.01]), None, 96.0),
        (quadratic_diagonal([1.0]), GaussianInit(mean=np.ones(1), cov_diag=np.full(1, 2.0)), 24.0),
        (quadratic_diagonal([1.0]), PointInit(np.full(1, -30.0)), 48.0),
    ],
    ids=["huber-0.5", "huber-0.3", "huber-0.1", "diag-0.01", "diag-1-from-N(1,2)", "diag-1-point-at-minus-30"],
)
def test_default_grid_doubles_its_box_until_both_laws_fit(pot, init, half):
    """A heavy target tail or a start beyond +/-12/sqrt(max(m, 1/4)) doubles the box until the target's edge
    cells hold under 1e-9 and the start is covered as discretize_law demands; both laws then build on it."""
    lo, hi, n = _box(pot, init)
    assert (lo, hi, n) == (-half, half, 4096)
    assert target_density_grid(pot, lo, hi, n).boundary_mass_max < 1e-9
    if init is not None:
        discretize_law(init, lo, hi, n)
    with pytest.raises(GridCoverageError):  # the box before the last doubling holds one of them too little
        target_density_grid(pot, lo / 2, hi / 2, n)
        if init is not None:
            discretize_law(init, lo / 2, hi / 2, n)


@pytest.mark.parametrize(
    "pot, init",
    [
        (huber(1.0), GaussianInit(mean=np.zeros(1), cov_diag=np.full(1, 4.0))),
        (huber(0.5), None),
        (quadratic_diagonal([1.0]), GaussianInit(mean=np.ones(1), cov_diag=np.full(1, 2.0))),
        (quadratic_diagonal([1.0]), PointInit(np.full(1, -30.0))),
    ],
    ids=["huber-1-from-N(0,4)", "huber-0.5-no-start", "diag-1-from-N(1,2)", "diag-1-point-at-minus-30"],
)
def test_default_grid_returns_the_laws_it_proves_the_box_with(pot, init):
    """The target and the start default_grid returns are fresh builds on their box, bit for bit; no start, None."""
    target, start = default_grid(pot, init)
    box = (target.x_min, target.x_max, target.n)
    fresh = target_density_grid(pot, *box)
    assert np.array_equal(target.mass, fresh.mass) and target.boundary_mass_max == fresh.boundary_mass_max
    if init is None:
        assert start is None
    else:
        fresh = discretize_law(init, *box)
        assert (start.x_min, start.x_max, start.n) == box
        assert np.array_equal(start.mass, fresh.mass) and start.boundary_mass_max == fresh.boundary_mass_max


def test_step_kernel_evaluates_the_normal_cdf_once_per_edge(monkeypatch):
    """K taps have K + 1 edges, and building the kernel evaluates _ndtr at those alone, in one call."""
    points = []

    def counted(x):
        points.append(x.size)
        return ndtr(x)

    ndtr = gaussian_oracle._ndtr
    monkeypatch.setattr(gaussian_oracle, "_ndtr", counted)
    monkeypatch.setattr(grid_oracle, "_STEP_SLOT", None)
    p = discretize_gaussian(0.0, 4.0, -24.0, 24.0, 4096)
    points.clear()
    for h in (0.00144, 1.0):  # the huber-weak-grid run's kernel and estimate_h_prime's first one
        kern = grid_oracle._step_operator(p, huber(1.0), h).kern
        assert points == [kern.size + 1]
        points.clear()


_SUITE_STEPS = (1e-4, 7.8125e-4, 0.00144, 0.003125, 0.005859375, 0.01, 0.02, 0.05, 0.1, 0.2, 0.25, 0.49, 0.5, 1.0)


@pytest.mark.parametrize("half, n", [(24.0, 4096), (24.0, 2048), (12.0, 1024), (8.0, 4096)])
def test_kernel_taps_are_the_two_point_cdf_differences_bit_for_bit(half, n):
    """On boxes whose cell widths are dyadic, the edge rule's taps are _tail_taps's, bit for bit, and so is the mirror.

    The kernel reaches _REACH sd, the start's coverage, and comes from the start's own rule: tap t is the normal
    CDF's difference between its edges (t -/+ 1/2) dx, each read from the lower tail Phi(-|x|), so each inner edge
    is evaluated once for the two taps it bounds. Every tap reads the lower tail, so the kernel is symmetric and has
    mean 0 bit for bit.
    """
    pot = huber(1.0)
    p = discretize_gaussian(0.0, 1.0, -half, half, n)
    dx = p.dx
    for h in _SUITE_STEPS:
        sd = math.sqrt(2.0 * h)
        reach = math.ceil(grid_oracle._REACH * sd / dx)
        if 2 * reach + 1 > n:  # a kernel wider than the grid, refused
            continue
        want = _tail_taps(gaussian_oracle._ndtr, np.arange(-reach, reach + 1) * dx, dx, sd)
        edges = (np.arange(-reach, reach + 2) - 0.5) * dx
        assert np.array_equal(gaussian_oracle._binned_normal(edges, sd), want), h
        kern = grid_oracle._step_operator(p, pot, h).kern
        assert np.array_equal(kern, want / want.sum()), h
        assert np.array_equal(kern, kern[::-1]), h


def test_gaussian_start_matches_a_90_digit_reference_in_both_tails():
    """Each cell of N(0, 4) on +/-24 in 4,096 cells (the huber-weak-grid start) is within 1e-12 of the law's, relative.

    The reference bins the CDF at 90 digits: at 40 it loses the right tail itself, where the cells fall to 2e-34
    against CDF values near 1.
    """
    mp = pytest.importorskip("mpmath").mp
    g = discretize_gaussian(0.0, 4.0, -24.0, 24.0, 4096)
    edges = -24.0 + np.arange(4097) * g.dx
    with mp.workdps(90):
        cdf = [mp.ncdf(mp.mpf(float(e)) / 2) for e in edges]
        total = cdf[-1] - cdf[0]
        exact = np.array([float((b - a) / total) for a, b in zip(cdf, cdf[1:])])
    assert np.all(exact > 0.0)
    assert np.all(np.abs(g.mass - exact) <= 1e-12 * exact)


@pytest.mark.parametrize(
    "init, message",
    [
        (GaussianInit(mean=np.full(1, 1e30), cov_diag=np.ones(1)), "must cover mean"),
        (PointInit(np.full(1, -1e30)), "outside the grid"),
    ],
    ids=["gaussian", "point"],
)
def test_default_grid_fails_on_a_start_no_box_holds(init, message):
    """After 64 doublings (+/-12 * 2**63) the box gives up with the last constructor's message."""
    with pytest.raises(GridCoverageError, match=rf"no box up to \+/-1\.1068e\+20 of 4096 cells .*{message}"):
        default_grid(quadratic_diagonal([1.0]), init)


_COARSE = discretize_gaussian(0.0, 0.1, -8.0, 8.0, 16)
_CONSTRUCTORS = {
    "target": lambda lo, hi, n: target_density_grid(huber(1.0), lo, hi, n),
    "gaussian": lambda lo, hi, n: discretize_gaussian(0.0, 1.0, lo, hi, n),
    "point": lambda lo, hi, n: discretize_point(0.0, lo, hi, n),
}
_BAD_BOXES = {
    "n0": (-24.0, 24.0, 0, "need at least 8 cells"),
    "n4": (-24.0, 24.0, 4, "need at least 8 cells"),
    "inverted-box": (24.0, -24.0, 64, "need x_max > x_min"),
}


@pytest.mark.parametrize(
    "call, message",
    [
        *[
            (functools.partial(make, lo, hi, n), message)
            for make in _CONSTRUCTORS.values()
            for lo, hi, n, message in _BAD_BOXES.values()
        ],
        (lambda: GridDensity(1.0, 1.0, 8, np.full(8, 0.125)), "need x_max > x_min"),
        (lambda: GridDensity(-1.0, 1.0, 7, np.full(7, 1 / 7)), "need at least 8 cells"),
        (lambda: GridDensity(-1.0, 1.0, 8, np.full(9, 1 / 9)), "does not match n=8"),
        (lambda: GridDensity(-1.0, 1.0, 8, [0.0, 0.5, 0.6, -0.1, 0.0, 0.0, 0.0, 0.0]), "negative cell mass"),
        (lambda: GridDensity(-1.0, 1.0, 8, [0.0, 0.5, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0]), "is not 1 within"),
        (lambda: GridDensity(-1.0, 1.0, 8, [0.0, 0.5, 0.5, math.nan, 0.0, 0.0, 0.0, 0.0]), "negative cell mass nan"),
        (lambda: GridDensity(-1.0, 1.0, 8, np.full(8, math.nan)), "negative cell mass nan"),
        (lambda: grid_oracle._rescaled(np.zeros(8)), "density lost all mass"),
        (lambda: discretize_gaussian(0.0, 0.0, -8.0, 8.0, 64), "variance must be positive"),
        (lambda: discretize_law(GaussianInit(mean=np.zeros(2), cov_diag=np.ones(2)), -8, 8, 64), "1-D only"),
        (lambda: discretize_law(PointInit(x=np.zeros(2)), -8, 8, 64), "1-D only"),
        (lambda: discretize_law("gaussian_1_over_m", -8, 8, 64), "unsupported init spec"),
        (lambda: ula_step_grid(_COARSE, quadratic_diagonal([1.0]), 1.0), "noise kernel .* wider than the grid"),
        (lambda: ula_step_grid(_COARSE, huber(1.0, dim=2), 0.1), "1-D only, potential has d=2"),
        (lambda: kl_grid(_COARSE, discretize_gaussian(0.0, 0.1, -8.0, 8.0, 32)), "different grids"),
    ],
    ids=[
        *[f"{make}-{box}" for make in _CONSTRUCTORS for box in _BAD_BOXES],
        "density-empty-box",
        "density-7-cells",
        "density-mass-shape",
        "density-negative-mass",
        "density-total-not-1",
        "density-nan-cell",
        "density-all-nan",
        "target-lost-all-mass",
        "gaussian-zero-variance",
        "law-gaussian-2d",
        "law-point-2d",
        "law-unsupported",
        "kernel-wider-than-grid",
        "step-2d-potential",
        "different-grids",
    ],
)
def test_grid_constructors_and_steps_check_their_inputs(call, message):
    """Each grid constructor checks its box before any arithmetic: a bad box is a ValueError, not a ZeroDivisionError."""
    with pytest.raises((ValueError, TypeError), match=message):
        call()


def test_w2_and_tv_grid_reference_values():
    p = discretize_gaussian(0.0, 1.0, -12.0, 12.0, 6144)
    q = discretize_gaussian(1.0, 1.0, -12.0, 12.0, 6144)
    assert w2_grid_1d(p, p) == 0.0
    assert tv_grid(p, p) == 0.0
    assert w2_grid_1d(p, q) == pytest.approx(1.0, abs=1e-3)
    assert tv_grid(p, q) == pytest.approx(0.38292, abs=1e-4)


def test_w2_grid_matches_gaussian_closed_form():
    p = discretize_gaussian(0.0, 4.0, -20.0, 20.0, 8192)
    q = discretize_gaussian(0.0, 1.0, -20.0, 20.0, 8192)
    assert w2_grid_1d(p, q) == pytest.approx(1.0, abs=1e-3)


def test_pinsker_on_grid_pairs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = discretize_gaussian(rng.normal(0, 1), rng.uniform(0.5, 2.0), -16, 16, 4096)
        q = discretize_gaussian(rng.normal(0, 1), rng.uniform(0.5, 2.0), -16, 16, 4096)
        assert tv_grid(p, q) <= math.sqrt(kl_grid(p, q) / 2.0) + 1e-6


def test_oracle_equivalence_quadratic():
    pot = quadratic_diagonal([1.0])
    A = np.array([[1.0]])
    grid = discretize_gaussian(0.0, 1.0, -8.0, 8.0, 4096)
    law = GaussianLaw([0.0], [[1.0]])
    tgt_grid = target_density_grid(pot, -8.0, 8.0, 4096)
    tgt_law = target_law(A)
    for _ in range(50):
        grid = ula_step_grid(grid, pot, 0.1)
        law = ula_step_law(law, A, 0.1)
        assert abs(kl_grid(grid, tgt_grid) - kl_gaussian(law, tgt_law)) <= 1e-3


def test_stationary_grid_matches_closed_form_variance():
    pot = quadratic_diagonal([1.0])
    st = stationary_grid(pot, 0.25, target_density_grid(pot, -8.0, 8.0, 2048))
    assert second_moment_grid(st) == pytest.approx(8.0 / 7.0, abs=1e-3)


@pytest.mark.parametrize(
    "n, h, runs",
    [(4096, 1.0, 172), (1024, 0.1, 6)],
    ids=["h-1-bincount-push", "h-0.1-run-push"],
)
def test_stationary_grid_is_the_single_step_loop_bit_for_bit(n, h, runs):
    """One pass of steps stops at the law, budget and gap of one ula_step_grid call per step with tv_grid between."""
    pot = huber(1.0)
    target = target_density_grid(pot, -24.0, 24.0, n)
    assert grid_oracle._step_operator(target, pot, h).runs.size - 1 == runs
    q, gap, steps = target, math.inf, 0
    while not gap < 1e-10:
        q2 = ula_step_grid(q, pot, h)
        gap, q, steps = tv_grid(q2, q), q2, steps + 1
    st = stationary_grid(pot, h, target)
    assert np.array_equal(st.mass, q.mass)
    assert st.renorm_drift_abs_sum == q.renorm_drift_abs_sum
    assert st.boundary_mass_max == q.boundary_mass_max
    assert steps > 10


def test_stationary_grid_looks_up_its_step_operator_once(monkeypatch):
    """A stationary law is one pass of steps: one operator lookup, where one-step calls made one a step (59 at h = 1)."""
    looked_up, lookup = [], grid_oracle._step_operator
    monkeypatch.setattr(grid_oracle, "_step_operator", lambda *args: looked_up.append(args) or lookup(*args))
    pot = huber(1.0)
    stationary_grid(pot, 1.0, target_density_grid(pot, -24.0, 24.0, 4096))
    assert len(looked_up) == 1


def test_huber_kl_decreases_and_moment_bound_holds():
    pot = huber(1.0)
    lo, hi, n = _box(pot)
    tgt = target_density_grid(pot, lo, hi, n)
    p = discretize_gaussian(0.0, 4.0, lo, hi, n)
    c1 = w2_grid_1d(p, tgt)
    c2sq = second_moment_grid(tgt)
    cap = 4.0 * (c1 * c1 + c2sq)
    kls = [kl_grid(p, tgt)]
    for _ in range(200):
        p = ula_step_grid(p, pot, 0.01)
        kls.append(kl_grid(p, tgt))
        assert second_moment_grid(p) <= cap
    assert np.all(np.diff(kls) < 0)


def test_estimate_h_prime_is_usable():
    pot = huber(1.0)
    lo, hi, n = -24.0, 24.0, 1024
    tgt = target_density_grid(pot, lo, hi, n)
    p0 = discretize_gaussian(0.0, 4.0, lo, hi, n)
    c1 = w2_grid_1d(p0, tgt)
    h = estimate_h_prime(pot, c1, tgt)
    assert 0 < h <= 1.0 / pot.L
    pi_h = stationary_grid(pot, h, tgt)
    assert w2_grid_1d(pi_h, tgt) <= c1


@pytest.mark.parametrize("c1", [0.0, -1.0, math.nan])
def test_estimate_h_prime_needs_a_positive_radius(c1):
    pot = huber(1.0)
    with pytest.raises(ValueError, match="c1 must be positive"):
        estimate_h_prime(pot, c1, target_density_grid(pot, -24.0, 24.0, 1024))


def test_stationary_grid_without_a_fixed_point_raises(monkeypatch):
    """A law still moving when the step budget runs out is no fixed point (a budget of 3 steps here)."""
    monkeypatch.setattr(grid_oracle, "_STATIONARY_MAX_STEPS", 3)
    pot = huber(1.0)
    with pytest.raises(RuntimeError, match=r"^no fixed point within 3 steps \(last TV gap \d"):
        stationary_grid(pot, 0.25, target_density_grid(pot, -24.0, 24.0, 1024))


def test_estimate_h_prime_without_a_stepsize_raises(monkeypatch):
    """A search whose every stationary law (stubbed) is outside the radius halves 24 times from 1/L, then fails."""
    tried = []
    monkeypatch.setattr(grid_oracle, "stationary_grid", lambda pot, h, target: tried.append(h) or target)
    monkeypatch.setattr(grid_oracle, "w2_grid_1d", lambda p, q: math.inf)
    pot = huber(1.0)
    message = f"no stepsize down to {2.0**-23} kept the stationary law within W2 radius 1.0"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        estimate_h_prime(pot, 1.0, target_density_grid(pot, -24.0, 24.0, 1024))
    assert tried == [2.0**-j for j in range(24)]
