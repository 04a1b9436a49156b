"""Brute-force 1-D density propagation of the ULA kernel.

One ULA step acting on densities is a deterministic pushforward through the
drift map T(x) = x - h U'(x) followed by convolution with N(0, 2h). On a fine
uniform grid both pieces are computable to well below the tolerances any of
the convergence checks need, which makes the grid the exactness oracle for
potentials (Huber in particular) the Gaussian oracle cannot represent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import GaussianInit, PointInit
from .gaussian_oracle import _binned_normal
from .planner import _check_steps
from .potentials import Potential, grad_u, u_value

__all__ = [
    "GridCoverageError",
    "GridDensity",
    "default_grid",
    "discretize_law",
    "discretize_gaussian",
    "discretize_point",
    "ula_step_grid",
    "target_density_grid",
    "kl_grid",
    "tv_grid",
    "w2_grid_1d",
    "second_moment_grid",
    "stationary_grid",
    "estimate_h_prime",
]

_BOUNDARY_TOL = 1e-9
_REACH = 8.0  # standard deviations of a binned normal: a start's coverage and the noise kernel's truncation
_BOX_DOUBLINGS = 64  # how often default_grid may double its box before it gives up
_STATIONARY_TOL = 1e-10  # successive TV gap at which stationary_grid stops
_STATIONARY_MAX_STEPS = 200_000


class GridCoverageError(ValueError):
    """The grid is too small for the density it is asked to hold."""


@dataclass(frozen=True)
class GridDensity:
    """Cell probabilities of a density on n uniform cells over [x_min, x_max].

    Mass lives at cell centers; boundary cells above 1e-9 mass flag the grid
    as too small. The error budget of the steps that led here: the sum of the
    |1 - total| each renormalised away (0.0 for a fresh law), and the largest
    boundary-cell mass held (a fresh law's own).
    """

    x_min: float
    x_max: float
    n: int
    mass: np.ndarray
    renorm_drift_abs_sum: float = 0.0
    boundary_mass_max: float | None = None

    def __post_init__(self):
        _cell_width(self.x_min, self.x_max, self.n)
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.n,):
            raise ValueError(f"mass shape {mass.shape} does not match n={self.n}")
        if not mass.min() >= -1e-12:  # a NaN cell fails here too
            raise ValueError(f"negative cell mass {mass.min()}")
        mass = np.clip(mass, 0.0, None)
        total = float(mass.sum())
        if not abs(total - 1.0) <= 1e-6:
            raise ValueError(f"total mass {total} is not 1 within 1e-6")
        _check_boundary(mass)
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "renorm_drift_abs_sum", float(self.renorm_drift_abs_sum))
        boundary = max(mass[0], mass[-1]) if self.boundary_mass_max is None else self.boundary_mass_max
        object.__setattr__(self, "boundary_mass_max", float(boundary))

    @property
    def dx(self) -> float:
        return _cell_width(self.x_min, self.x_max, self.n)

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx


def _cell_width(x_min: float, x_max: float, n: int) -> float:
    """The cell width of the box [x_min, x_max] cut into n cells; fails on a box no law can live on."""
    if not x_max > x_min:
        raise ValueError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    if n < 8:
        raise ValueError(f"need at least 8 cells, got {n}")
    return (x_max - x_min) / n


def _check_boundary(mass: np.ndarray) -> None:
    if mass[0] >= _BOUNDARY_TOL or mass[-1] >= _BOUNDARY_TOL:
        raise GridCoverageError(
            f"boundary cells carry mass {mass[0]:.3g}/{mass[-1]:.3g} >= {_BOUNDARY_TOL}; grid too small"
        )


def default_grid(pot: Potential, init=None, n: int | None = None) -> tuple[GridDensity, GridDensity | None]:
    """pot's target and init's law (None if no init), built on the box of n cells (4096 if None) they prove.

    The box is [-half, half]. half starts at 12/sqrt(max(m, 1/4)): 12 sd of a quadratic's p* = N(0, 1/m), whose
    edge cells hold about 1e-34, so a run's laws, up to pi_h's variance 2/m at h <= 1/L, stay far inside the
    1e-9 edge check; the floor 1/4 holds Huber's m = 0 at +/-24, where delta = 1 leaves 2.5e-13 in an edge cell.
    While either constructor raises GridCoverageError, the box doubles, _BOX_DOUBLINGS times at most.
    """
    n = 4096 if n is None else n
    half = 12.0 / math.sqrt(max(pot.m, 0.25))
    for _ in range(_BOX_DOUBLINGS):
        try:
            target = target_density_grid(pot, -half, half, n)
            return target, None if init is None else discretize_law(init, -half, half, n)
        except GridCoverageError as exc:
            error = exc
        half *= 2.0
    raise GridCoverageError(f"no box up to +/-{half / 2.0:g} of {n} cells holds the target and the start: {error}")


def _rescaled(raw: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """raw / raw.sum() (into out if given) and the sum; fails on a density that lost all mass."""
    total = float(raw.sum())
    if not total > 0:
        raise ValueError("density lost all mass")
    return np.divide(raw, total, out=out), total


def _split(z: np.ndarray, x_min: float, dx: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left bracketing cell center j of each position z and its weight fraction f on j + 1."""
    pos = (z - x_min) / dx - 0.5
    j = np.clip(np.floor(pos).astype(int), 0, n - 2)
    return j, np.clip(pos - j, 0.0, 1.0)


def discretize_gaussian(mean: float, var: float, x_min: float, x_max: float, n: int) -> GridDensity:
    """Cell masses of N(mean, var), each from its own normal tail at the cell edges (_binned_normal).

    The grid must cover mean +/- _REACH (8) standard deviations.
    """
    dx = _cell_width(x_min, x_max, n)
    if not var > 0:
        raise ValueError(f"variance must be positive, got {var}")
    sd = math.sqrt(var)
    lo, hi = mean - _REACH * sd, mean + _REACH * sd
    if x_min > lo or x_max < hi:
        raise GridCoverageError(f"grid [{x_min}, {x_max}] must cover mean +/- {_REACH:g} sd = [{lo}, {hi}]")
    edges = x_min + np.arange(n + 1) * dx
    return GridDensity(x_min, x_max, n, _rescaled(_binned_normal(edges - mean, sd))[0])


def discretize_point(x: float, x_min: float, x_max: float, n: int) -> GridDensity:
    """Unit mass at x, linearly split between the two bracketing cell centers.

    The split keeps the mass and the first moment exactly; a point already on
    a center occupies a single cell.
    """
    dx = _cell_width(x_min, x_max, n)
    if not (x_min < x < x_max):
        raise GridCoverageError(f"point {x} outside the grid [{x_min}, {x_max}]")
    (j,), (f,) = _split(np.array([float(x)]), x_min, dx, n)
    raw = np.bincount([j, j + 1], weights=[1.0 - f, f], minlength=n)
    return GridDensity(x_min, x_max, n, _rescaled(raw)[0])


def discretize_law(init, x_min: float, x_max: float, n: int) -> GridDensity:
    """Dispatch a 1-D GaussianInit or PointInit onto the grid."""
    if isinstance(init, GaussianInit):
        return discretize_gaussian(_coordinate(init.mean), _coordinate(init.cov_diag), x_min, x_max, n)
    if isinstance(init, PointInit):
        return discretize_point(_coordinate(init.x), x_min, x_max, n)
    raise TypeError(f"unsupported init spec {init!r}")


def _coordinate(values) -> float:
    """The one number of a 1-D law's field."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size != 1:
        raise ValueError("grid densities are 1-D only")
    return float(v[0])


# side B of the output blocks the noise convolution is cut into: each block's
# window of the padded cells is B + K - 1 long, so a narrow kernel multiplies
# few zero entries and a wide one still fills a matrix product
_BLOCK = 32
# bytes of the column buffer a step copies its windows into: a grid of 4,096
# cells takes one product up to K = 97 taps, and the widest kernels a run
# builds (about 2,000 taps) take products of 8 output blocks
_COLUMN_BYTES = 128 * 1024


def _band(kern: np.ndarray) -> np.ndarray:
    """The band of the convolution matrix of kern for one output block: (B + K - 1) x B.

    A block's window of the zero-padded cells feeds its output cell r through
    entry (t, r) = kern[K - 1 - (t - r)] where that index lies in the kernel,
    else 0. Row t is therefore the B-long window of the zero-padded kernel
    that starts at K - 1 - t, and the band is gathered in one pass.
    """
    k = kern.size
    padded = np.concatenate([np.zeros(_BLOCK), kern, np.zeros(_BLOCK)])
    return sliding_window_view(padded, _BLOCK)[_BLOCK + k - 1 - np.arange(_BLOCK + k - 1)]


# the most runs of one cell offset (_StepOperator.runs) that _grid_steps pushes by
# slices: on 4,096 cells a run's two slice products cost about 1.5-3 us, the two
# bincounts 20-33 us in all, and the pushes broke even at 8-10 runs (medians of
# interleaved calls, 2-core Xeon, numpy 2.4.6: 2 runs 10-16 us against 23-33 us)
_MAX_RUNS = 8


@dataclass(frozen=True)
class _StepOperator:
    """The parts of one grid ULA step that depend only on (grid, potential, h)."""

    pot: Potential  # held so that the slot's id(pot) key cannot be reused
    j: np.ndarray  # left cell of each center's image under the drift map
    j1: np.ndarray
    f: np.ndarray  # fraction of each center's mass moved to cell j + 1
    g: np.ndarray  # 1 - f
    kern: np.ndarray  # N(0, 2h) noise binned over cells, K = 2*half + 1 taps
    band: np.ndarray  # _band(kern), shape (B + K - 1, B)
    # the bounds of the maximal runs of centers that share one offset j[i] - i,
    # 0 first and n last: the drift map is monotone, so a run's cells j form one
    # contiguous slice (derived here, so that dataclasses.replace rederives it)
    runs: np.ndarray = field(init=False)

    def __post_init__(self):
        offset = self.j - np.arange(self.j.size)
        bounds = np.flatnonzero(np.diff(offset)) + 1
        object.__setattr__(self, "runs", np.concatenate([[0], bounds, [self.j.size]]))


# the operator of the last (grid, potential, h), looked up once per pass of _grid_steps:
# every caller steps at one h until it moves on (a stepsize search, a run stage), so one
# slot builds no more operators than a memo would, and frees those left behind
_STEP_SLOT: tuple[tuple, _StepOperator] | None = None


def _step_operator(p: GridDensity, pot: Potential, h: float) -> _StepOperator:
    """The operator of a grid step on p's grid for (pot, h), built unless it is in the slot; pot must be 1-D."""
    global _STEP_SLOT
    _check_1d(pot)
    _check_steps(h)
    key = (p.x_min, p.x_max, p.n, id(pot), h)
    slot = _STEP_SLOT  # read once: another thread may replace it meanwhile
    if slot is not None and slot[0] == key:
        return slot[1]
    c = p.centers
    z = c - h * grad_u(pot, c[:, None]).ravel()
    scale = max(1.0, float(np.abs(z).max()))
    if np.any(np.diff(z) < -1e-12 * scale):
        raise ValueError(f"drift map not monotone on the grid; need h <= 1/L = {1.0 / pot.L}")
    j, f = _split(z, p.x_min, p.dx, p.n)

    sd = math.sqrt(2.0 * h)
    half = math.ceil(_REACH * sd / p.dx)
    if 2 * half + 1 > p.n:
        raise GridCoverageError(f"noise kernel (sd {sd}) wider than the grid")
    kern = _binned_normal((np.arange(-half, half + 2) - 0.5) * p.dx, sd)  # tap t spans offsets (t -/+ 1/2) dx
    kern /= kern.sum()
    op = _StepOperator(pot, j, j + 1, f, 1.0 - f, kern, _band(kern))
    _STEP_SLOT = (key, op)
    return op


def _check_1d(pot: Potential) -> None:
    if pot.d != 1:
        raise ValueError(f"grid oracle is 1-D only, potential has d={pot.d}")


def _grid_steps(p: GridDensity, pot: Potential, h: float):
    """The ULA steps at (pot, h) from p, the only loop that steps a grid law.

    Yields after each step the bare mass array (one buffer, which the next
    step overwrites), renorm_drift_abs_sum and boundary_mass_max so far. A
    step pushes the mass through T(x) = x - h U'(x) (monotone on the grid
    for h <= 1/L): center i sends g[i] of its mass to cell j[i] and f[i] to
    j[i] + 1. With at most _MAX_RUNS runs (_StepOperator.runs), each run
    writes its g and f shares into one slice each of two buffers, and the push
    is their sum; a run that starts on the last run's last cell adds what it
    held, and cells no run reaches stay 0. Else two bincounts sum the shares.
    Each cell adds its shares in the order of their centers either way, so
    both pushes agree bit for bit. The push is convolved with the N(0, 2h)
    noise binned over cells to _REACH sd: np.convolve(pushed, kern, "same")
    as the product of the blocks' windows of the zero-padded cells (stride B,
    length B + K - 1, copied into a column buffer of at most _COLUMN_BYTES a
    chunk of blocks at a time) with the band, so each cell is one dot product
    of non-negative terms. Then it renormalises, and fails as GridDensity
    would on lost mass or a boundary cell at 1e-9. A pass looks the operator
    up and builds its buffers, views and push once.
    """
    op = _step_operator(p, pot, float(h))
    n, (width, b) = p.n, op.band.shape
    nb = -(-n // b)
    pad = np.zeros(nb * b + width - b)
    pushed = pad[op.kern.size // 2 :][:n]
    windows = sliding_window_view(pad, width)[::b]
    chunk = max(1, min(nb, _COLUMN_BYTES // (width * pad.itemsize)))
    columns, mixed = np.empty((chunk, width)), np.empty((nb, b))
    blocks = [slice(lo, min(nb, lo + chunk)) for lo in range(0, nb, chunk)]
    products = [(columns[: s.stop - s.start], windows[s], mixed[s]) for s in blocks]
    raw = mixed.reshape(-1)[:n]
    mass = p.mass.copy()  # each step's law, read by the push and overwritten by the renormalisation
    bounds = op.runs.tolist()
    by_runs = len(bounds) - 1 <= _MAX_RUNS
    if by_runs:
        left, right = np.zeros(n), np.zeros(n)
        runs = [(int(op.j[lo]), lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        writes = [
            (buf[t + shift : t + shift + hi - lo], mass[lo:hi], share[lo:hi], lo > 0 and op.j[lo] == op.j[lo - 1])
            for buf, share, shift in ((left, op.g, 0), (right, op.f, 1))
            for t, lo, hi in runs
        ]
    else:
        weights = np.empty(n)
    drift, boundary = p.renorm_drift_abs_sum, p.boundary_mass_max
    while True:
        if by_runs:
            for cells, m, share, joined in writes:
                held = cells[0]  # what the last run wrote, if it ended on this cell
                np.multiply(m, share, out=cells)
                if joined:
                    cells[0] += held
            np.add(left, right, out=pushed)
        else:
            np.add(
                np.bincount(op.j, weights=np.multiply(mass, op.g, out=weights), minlength=n),
                np.bincount(op.j1, weights=np.multiply(mass, op.f, out=weights), minlength=n),
                out=pushed,
            )
        for cols, win, mix in products:
            np.copyto(cols, win)
            np.matmul(cols, op.band, out=mix)
        _, total = _rescaled(raw, mass)
        drift += abs(1.0 - total)
        _check_boundary(mass)
        boundary = max(boundary, mass[0], mass[-1])
        yield mass, drift, boundary


def ula_step_grid(p: GridDensity, pot: Potential, h: float, k: int = 1) -> GridDensity:
    """The law after k >= 1 ULA steps at (pot, h), a Markov kernel on the grid.

    Step k of one pass of _grid_steps: bit for bit the law, budget and failure of k single calls.
    """
    _check_steps(h, k)
    mass, drift, boundary = next(itertools.islice(_grid_steps(p, pot, h), k - 1, None))
    return GridDensity(p.x_min, p.x_max, p.n, mass, renorm_drift_abs_sum=drift, boundary_mass_max=boundary)


def target_density_grid(pot: Potential, x_min: float, x_max: float, n: int) -> GridDensity:
    """Normalized cell masses of exp(-U) at the cell centers.

    Fails, as every GridDensity does, if a boundary cell holds a 1e-9
    fraction of the mass, i.e. the tails do not fit.
    """
    _check_1d(pot)
    dx = _cell_width(x_min, x_max, n)
    c = x_min + (np.arange(n) + 0.5) * dx
    u = u_value(pot, c[:, None])
    raw = np.exp(-(u - u.min())) * dx
    return GridDensity(x_min, x_max, n, _rescaled(raw)[0])


def _same_grid(p: GridDensity, q: GridDensity) -> None:
    if (p.x_min, p.x_max, p.n) != (q.x_min, q.x_max, q.n):
        raise ValueError("densities live on different grids")


def kl_grid(p: GridDensity, q: GridDensity) -> float:
    """Riemann-sum KL divergence sum p_i log(p_i/q_i) with 0 log 0 = 0."""
    _same_grid(p, q)
    sup = p.mass > 0
    if np.any(q.mass[sup] <= 0):
        raise ValueError("support violation: p puts mass where q has none")
    pm = p.mass[sup]
    return float(np.sum(pm * np.log(pm / q.mass[sup])))


def tv_grid(p: GridDensity, q: GridDensity) -> float:
    """Total variation 0.5 * sum |p_i - q_i|."""
    _same_grid(p, q)
    return 0.5 * float(np.sum(np.abs(p.mass - q.mass)))


def w2_grid_1d(p: GridDensity, q: GridDensity) -> float:
    """Wasserstein-2 distance via the quantile coupling of the cell atoms."""
    _same_grid(p, q)
    c = p.centers
    cp = np.cumsum(p.mass)
    cq = np.cumsum(q.mass)
    cp /= cp[-1]
    cq /= cq[-1]
    # the breaks are np.union1d(cp, cq), from one merge of the two sorted
    # CDFs (a stable argsort finds the two runs) and no np.unique, which
    # imports numpy.ma; the entries before a break's first copy are those
    # below it, so ip, iq count each CDF's entries among them
    both = np.concatenate([cp, cq])
    order = np.argsort(both, kind="stable")
    both = both[order]
    first = np.flatnonzero(np.concatenate([[True], both[1:] != both[:-1]]))
    breaks = both[first]
    seg = np.diff(breaks, prepend=0.0)
    ip = np.concatenate([[0], np.cumsum(order < p.n)])[first]
    iq = np.minimum(first - ip, p.n - 1)
    ip = np.minimum(ip, p.n - 1)
    return math.sqrt(float(np.sum(seg * (c[ip] - c[iq]) ** 2)))


def second_moment_grid(p: GridDensity) -> float:
    """sum p_i x_i^2 over cell centers."""
    c = p.centers
    return float(np.sum(p.mass * c * c))


def stationary_grid(pot: Potential, h: float, target: GridDensity) -> GridDensity:
    """Fixed point of the grid step from target, stepped until successive TV < 1e-10.

    target is pot's target_density_grid; the fixed point lives on its grid.
    One pass of _grid_steps: the TV gap 0.5 * sum |mass - last| is read on
    the bare masses after each step, and the law is built once, at the end.
    An empirical estimate: nothing beyond the stopping rule certifies it.
    """
    last = target.mass.copy()
    gap = math.inf
    for _, (mass, drift, boundary) in zip(range(_STATIONARY_MAX_STEPS), _grid_steps(target, pot, h)):
        gap = 0.5 * float(np.sum(np.abs(mass - last)))
        if gap < _STATIONARY_TOL:
            return GridDensity(target.x_min, target.x_max, target.n, mass, drift, boundary)
        np.copyto(last, mass)
    raise RuntimeError(f"no fixed point within {_STATIONARY_MAX_STEPS} steps (last TV gap {gap:.3g})")


def estimate_h_prime(pot: Potential, c1: float, target: GridDensity) -> float:
    """Largest stepsize (halving search from 1/L) keeping W2(pi_h, p*) <= c1.

    target is pot's target_density_grid, the p* every stationary estimate
    starts from and is measured against. The search starts at 1/L, the
    monotone-drift limit of the grid kernel, and halves until the stationary
    estimate fits the radius. Empirical, not certified.
    """
    if not c1 > 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    h = 1.0 / pot.L
    for _ in range(24):
        pi_h = stationary_grid(pot, h, target)
        if w2_grid_1d(pi_h, target) <= c1:
            return h
        h *= 0.5
    raise RuntimeError(f"no stepsize down to {2.0 * h} kept the stationary law within W2 radius {c1}")
