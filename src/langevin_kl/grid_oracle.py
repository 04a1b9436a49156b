"""Brute-force 1-D density propagation of the ULA kernel.

One ULA step acting on densities is a deterministic pushforward through the
drift map T(x) = x - h U'(x) followed by convolution with N(0, 2h). On a fine
uniform grid both pieces are computable to well below the tolerances any of
the convergence checks need, which makes the grid the exactness oracle for
potentials (Huber in particular) the Gaussian oracle cannot represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import GaussianInit, PointInit
from .gaussian_oracle import _ndtr
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
    "mean_grid",
    "stationary_grid",
    "estimate_h_prime",
]

_BOUNDARY_TOL = 1e-9
_STATIONARY_TOL = 1e-10  # successive TV gap at which stationary_grid stops
_STATIONARY_MAX_STEPS = 200_000


class GridCoverageError(ValueError):
    """The grid is too small for the density it is asked to hold."""


@dataclass(frozen=True)
class GridDensity:
    """Cell probabilities of a density on n uniform cells over [x_min, x_max].

    Mass lives at cell centers. Operations renormalize and record the mass
    drift they removed; boundary cells above 1e-9 mass flag the grid as too
    small.
    """

    x_min: float
    x_max: float
    n: int
    mass: np.ndarray
    renorm_drift: float = 0.0

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max}]")
        if self.n < 8:
            raise ValueError(f"need at least 8 cells, got {self.n}")
        mass = np.asarray(self.mass, dtype=float)
        if mass.shape != (self.n,):
            raise ValueError(f"mass shape {mass.shape} does not match n={self.n}")
        if mass.min() < -1e-12:
            raise ValueError(f"negative cell mass {mass.min()}")
        mass = np.clip(mass, 0.0, None)
        total = float(mass.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"total mass {total} is not 1 within 1e-6")
        if mass[0] >= _BOUNDARY_TOL or mass[-1] >= _BOUNDARY_TOL:
            raise GridCoverageError(
                f"boundary cells carry mass {mass[0]:.3g}/{mass[-1]:.3g} >= {_BOUNDARY_TOL}; "
                "grid too small"
            )
        object.__setattr__(self, "x_min", float(self.x_min))
        object.__setattr__(self, "x_max", float(self.x_max))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "renorm_drift", float(self.renorm_drift))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n) + 0.5) * self.dx


def default_grid(pot: Potential) -> tuple[float, float, int]:
    """Grid bounds wide enough for both the strongly convex and the Huber case."""
    half = 12.0 / math.sqrt(max(pot.m, 0.25))
    return -half, half, 4096


def _normalized(x_min: float, x_max: float, n: int, raw: np.ndarray) -> GridDensity:
    total = float(raw.sum())
    if not total > 0:
        raise ValueError("density lost all mass")
    return GridDensity(x_min, x_max, n, raw / total, renorm_drift=1.0 - total)


def _split(z: np.ndarray, x_min: float, x_max: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left bracketing cell center j of each position z and its weight fraction f on j + 1."""
    dx = (x_max - x_min) / n
    pos = (z - x_min) / dx - 0.5
    j = np.clip(np.floor(pos).astype(int), 0, n - 2)
    return j, np.clip(pos - j, 0.0, 1.0)


def discretize_gaussian(mean: float, var: float, x_min: float, x_max: float, n: int) -> GridDensity:
    """Cell masses of N(mean, var) from exact CDF differences.

    The grid must cover mean +/- 8 standard deviations.
    """
    if not var > 0:
        raise ValueError(f"variance must be positive, got {var}")
    sd = math.sqrt(var)
    if x_min > mean - 8.0 * sd or x_max < mean + 8.0 * sd:
        raise GridCoverageError(
            f"grid [{x_min}, {x_max}] must cover mean +/- 8 sd = "
            f"[{mean - 8.0 * sd}, {mean + 8.0 * sd}]"
        )
    dx = (x_max - x_min) / n
    edges = x_min + np.arange(n + 1) * dx
    raw = np.diff(_ndtr((edges - mean) / sd))
    # deep-tail CDF differences cancel to 0 in floats; midpoint pdf mass keeps
    # every cell strictly positive so KL against this density stays defined
    mids = (edges[:-1] + 0.5 * dx - mean) / sd
    tail = np.exp(-0.5 * mids * mids) / math.sqrt(2.0 * math.pi) * (dx / sd)
    raw = np.where(raw > 0, raw, tail)
    return _normalized(x_min, x_max, n, raw)


def discretize_point(x: float, x_min: float, x_max: float, n: int) -> GridDensity:
    """Unit mass at x, linearly split between the two bracketing cell centers.

    The split keeps the mass and the first moment exactly; a point already on
    a center occupies a single cell.
    """
    if not (x_min < x < x_max):
        raise GridCoverageError(f"point {x} outside the grid [{x_min}, {x_max}]")
    (j,), (f,) = _split(np.array([float(x)]), x_min, x_max, n)
    return _normalized(x_min, x_max, n, np.bincount([j, j + 1], weights=[1.0 - f, f], minlength=n))


def discretize_law(init, x_min: float, x_max: float, n: int) -> GridDensity:
    """Dispatch a 1-D GaussianInit or PointInit onto the grid."""
    if isinstance(init, GaussianInit):
        mean = np.atleast_1d(np.asarray(init.mean, dtype=float))
        var = np.atleast_1d(np.asarray(init.cov_diag, dtype=float))
        if mean.size != 1 or var.size != 1:
            raise ValueError("grid densities are 1-D only")
        return discretize_gaussian(float(mean[0]), float(var[0]), x_min, x_max, n)
    if isinstance(init, PointInit):
        x = np.atleast_1d(np.asarray(init.x, dtype=float))
        if x.size != 1:
            raise ValueError("grid densities are 1-D only")
        return discretize_point(float(x[0]), x_min, x_max, n)
    raise TypeError(f"unsupported init spec {init!r}")


# side B of the square slabs the noise convolution is cut into: a narrow
# kernel multiplies few zero entries, a wide one takes few matrix products
_BLOCK = 32


def _toeplitz_slabs(kern: np.ndarray) -> np.ndarray:
    """The band of the convolution matrix of kern, cut into Q = ceil((B + K - 1) / B) slabs of B x B.

    Slab q carries input block b + q of the zero-padded cells into output
    block b: entry (u, r) is kern[K - 1 - (q*B + u - r)] where that index
    lies in the kernel, else 0. Row t = q*B + u is therefore the B-long
    window of the zero-padded kernel that starts at K - 1 - t, and the slabs
    are gathered in one pass, with no temporary of their size.
    """
    k = kern.size
    q_count = -(-(_BLOCK + k - 1) // _BLOCK)
    padded = np.concatenate([np.zeros(2 * _BLOCK), kern, np.zeros(2 * _BLOCK)])
    rows = sliding_window_view(padded, _BLOCK)[2 * _BLOCK + k - 1 - np.arange(q_count * _BLOCK)]
    return rows.reshape(q_count, _BLOCK, _BLOCK)


@dataclass(frozen=True)
class _StepOperator:
    """The parts of one grid ULA step that depend only on (grid, potential, h)."""

    pot: Potential  # held so that the slot's id(pot) key cannot be reused
    j: np.ndarray  # left cell of each center's image under the drift map
    j1: np.ndarray
    f: np.ndarray  # fraction of each center's mass moved to cell j + 1
    g: np.ndarray  # 1 - f
    kern: np.ndarray  # N(0, 2h) noise binned over cells, K = 2*half + 1 taps
    slabs: np.ndarray  # _toeplitz_slabs(kern), shape (Q, B, B)

    def convolve(self, x: np.ndarray) -> np.ndarray:
        """np.convolve(x, kern, mode="same") as Q matrix products on contiguous views of padded x.

        Every term is a product of non-negative numbers when x is, so no cell
        loses relative precision; the sums run in another order than
        np.convolve's, so cells differ from it at rounding level.
        """
        n, q_count = x.size, self.slabs.shape[0]
        nb = -(-n // _BLOCK)
        pad = np.zeros((nb + q_count - 1) * _BLOCK)
        half = self.kern.size // 2
        pad[half : half + n] = x
        mixed = pad[: nb * _BLOCK].reshape(nb, _BLOCK) @ self.slabs[0]
        for q in range(1, q_count):
            mixed += pad[q * _BLOCK : (q + nb) * _BLOCK].reshape(nb, _BLOCK) @ self.slabs[q]
        return mixed.reshape(-1)[:n]


# the operator of the last (grid, potential, h): every caller steps at one h until
# it moves on (a stationary law, a stepsize search, a run stage), so one slot
# builds no more operators than a memo would, and frees those left behind
_STEP_SLOT: tuple[tuple, _StepOperator] | None = None


def _step_operator(p: GridDensity, pot: Potential, h: float) -> _StepOperator:
    """The operator of ula_step_grid on p's grid for (pot, h), built unless it is in the slot."""
    global _STEP_SLOT
    key = (p.x_min, p.x_max, p.n, id(pot), h)
    slot = _STEP_SLOT  # read once: another thread may replace it meanwhile
    if slot is not None and slot[0] == key:
        return slot[1]
    c = p.centers
    z = c - h * grad_u(pot, c[:, None]).ravel()
    scale = max(1.0, float(np.abs(z).max()))
    if np.any(np.diff(z) < -1e-12 * scale):
        raise ValueError(f"drift map not monotone on the grid; need h <= 1/L = {1.0 / pot.L}")
    j, f = _split(z, p.x_min, p.x_max, p.n)

    sd = math.sqrt(2.0 * h)
    half = math.ceil(8.0 * sd / p.dx)
    if 2 * half + 1 > p.n:
        raise GridCoverageError(f"noise kernel (sd {sd}) wider than the grid")
    offs = np.arange(-half, half + 1) * p.dx
    kern = _ndtr((offs + 0.5 * p.dx) / sd) - _ndtr((offs - 0.5 * p.dx) / sd)
    kern /= kern.sum()
    op = _StepOperator(pot, j, j + 1, f, 1.0 - f, kern, _toeplitz_slabs(kern))
    _STEP_SLOT = (key, op)
    return op


def ula_step_grid(p: GridDensity, pot: Potential, h: float) -> GridDensity:
    """One ULA step as a Markov kernel on the grid.

    Mass is pushed through T(x) = x - h U'(x) by conservative linear cell
    splitting, then convolved with the step's N(0, 2h) noise binned over cells
    and truncated at 8 standard deviations, as a blocked matrix product with
    the convolution's banded Toeplitz matrix. T must be monotone on the grid,
    which h <= 1/L guarantees. Everything but the mass is computed once per
    (grid, potential, h) and reused by the steps that follow at the same h.
    """
    if pot.d != 1:
        raise ValueError(f"grid oracle is 1-D only, potential has d={pot.d}")
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    op = _step_operator(p, pot, float(h))
    pushed = np.bincount(op.j, weights=p.mass * op.g, minlength=p.n)
    pushed += np.bincount(op.j1, weights=p.mass * op.f, minlength=p.n)
    return _normalized(p.x_min, p.x_max, p.n, op.convolve(pushed))


def target_density_grid(pot: Potential, x_min: float, x_max: float, n: int) -> GridDensity:
    """Normalized cell masses of exp(-U) at the cell centers.

    Fails if the unnormalized boundary cells hold a 1e-9 fraction of the mass,
    i.e. the tails do not fit.
    """
    if pot.d != 1:
        raise ValueError(f"grid oracle is 1-D only, potential has d={pot.d}")
    if not x_max > x_min:
        raise ValueError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    dx = (x_max - x_min) / n
    c = x_min + (np.arange(n) + 0.5) * dx
    u = u_value(pot, c[:, None])
    raw = np.exp(-(u - u.min())) * dx
    total = float(raw.sum())
    if raw[0] / total >= _BOUNDARY_TOL or raw[-1] / total >= _BOUNDARY_TOL:
        raise GridCoverageError(
            f"target tails do not fit: boundary mass {raw[0] / total:.3g}/{raw[-1] / total:.3g}"
        )
    return _normalized(x_min, x_max, n, raw)


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
    # np.union1d's sort-and-dedup without its np.unique, which imports numpy.ma
    both = np.sort(np.concatenate([cp, cq]))
    breaks = both[np.concatenate([[True], both[1:] != both[:-1]])]
    seg = np.diff(breaks, prepend=0.0)
    ip = np.minimum(np.searchsorted(cp, breaks, side="left"), p.n - 1)
    iq = np.minimum(np.searchsorted(cq, breaks, side="left"), p.n - 1)
    return math.sqrt(float(np.sum(seg * (c[ip] - c[iq]) ** 2)))


def second_moment_grid(p: GridDensity) -> float:
    """sum p_i x_i^2 over cell centers."""
    c = p.centers
    return float(np.sum(p.mass * c * c))


def mean_grid(p: GridDensity) -> float:
    """sum p_i x_i over cell centers."""
    return float(np.sum(p.mass * p.centers))


def stationary_grid(pot: Potential, h: float, x_min: float, x_max: float, n: int) -> GridDensity:
    """Fixed point of ula_step_grid from the target, iterated until successive TV < 1e-10.

    An empirical estimate: nothing beyond the stopping rule certifies it.
    """
    q = target_density_grid(pot, x_min, x_max, n)
    gap = math.inf
    for _ in range(_STATIONARY_MAX_STEPS):
        q2 = ula_step_grid(q, pot, h)
        gap = tv_grid(q2, q)
        q = q2
        if gap < _STATIONARY_TOL:
            return q
    raise RuntimeError(f"no fixed point within {_STATIONARY_MAX_STEPS} steps (last TV gap {gap:.3g})")


def estimate_h_prime(pot: Potential, c1: float, x_min: float, x_max: float, n: int) -> float:
    """Largest stepsize (halving search from 1/L) keeping W2(pi_h, p*) <= c1.

    The search starts at 1/L, the monotone-drift limit of the grid kernel,
    and halves until the stationary estimate fits the radius. Empirical, not
    certified.
    """
    if not c1 > 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    target = target_density_grid(pot, x_min, x_max, n)
    h = 1.0 / pot.L
    for _ in range(24):
        pi_h = stationary_grid(pot, h, x_min, x_max, n)
        if w2_grid_1d(pi_h, target) <= c1:
            return h
        h *= 0.5
    raise RuntimeError(f"no stepsize down to {h} kept the stationary law within W2 radius {c1}")
