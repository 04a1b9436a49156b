"""Target potentials U(x) = -log p*(x) + C with certified curvature constants.

A Potential packages the negative log-density of the sampling target together
with its gradient and global Hessian bounds m*I <= Hess U(x) <= L*I. Each of
the three kinds is normalized so the minimizer sits at the origin with
U(0) = 0 and grad U(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .planner import _check_count, _check_positive

__all__ = [
    "Potential",
    "construct_potential",
    "quadratic_diagonal",
    "quadratic_full",
    "huber",
    "u_value",
    "grad_u",
]


@dataclass(frozen=True)
class Potential:
    """Immutable target description: a kind, its curvature constants and its parameters."""

    kind: str
    m: float
    L: float
    d: int
    diag: np.ndarray | None = None
    matrix: np.ndarray | None = None
    delta: float | None = None


def quadratic_diagonal(diag) -> Potential:
    """U(x) = 0.5 * sum_i a_i x_i^2 for positive diagonal Hessian entries a_i."""
    a = np.atleast_1d(np.asarray(diag, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise ValueError("diagonal must be a non-empty 1-D array of Hessian entries")
    if not np.all(a > 0):
        raise ValueError(f"diagonal entries must be positive, got min {a.min()}")
    return Potential(
        kind="quadratic-diagonal", m=float(a.min()), L=float(a.max()), d=int(a.size), diag=a
    )


def _symmetrized(M, name: str = "matrix") -> np.ndarray:
    """(M + M^T) / 2, the one matrix rule: ValueError unless M is square, non-empty, finite and symmetric,
    |M - M^T| <= 1e-12 * max(1, max|M|) entrywise."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError(f"{name} must be square and non-empty, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} must be finite")
    if not np.abs(M - M.T).max() <= 1e-12 * max(1.0, float(np.abs(M).max())):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


def quadratic_full(matrix) -> Potential:
    """U(x) = 0.5 * x^T A x for a symmetric positive-definite A."""
    A = _symmetrized(matrix)
    w = np.linalg.eigvalsh(A)
    if not w[0] > 0:
        raise ValueError(f"matrix must be positive definite, got min eigenvalue {w[0]}")
    return Potential(kind="quadratic-full", m=float(w[0]), L=float(w[-1]), d=A.shape[0], matrix=A)


def huber(delta: float, dim: int = 1) -> Potential:
    """Coordinatewise Huber potential, summed over coordinates.

    Each coordinate contributes x^2/2 inside [-delta, delta] and
    delta*|x| - delta^2/2 outside, so the potential is convex (m = 0) and
    1-smooth (L = 1) exactly, and separable for the 1-D grid oracle.
    """
    _check_positive(delta, "huber threshold delta")
    _check_count(dim, "dimension")
    return Potential(kind="huber", m=0.0, L=1.0, d=int(dim), delta=float(delta))


# each kind's constructor; the config keys of a kind are its constructor's parameters
_CONSTRUCTORS = {"quadratic-diagonal": quadratic_diagonal, "quadratic-full": quadratic_full, "huber": huber}


def construct_potential(kind: str, **params) -> Potential:
    """Build a Potential from a kind tag and its constructor's keyword arguments."""
    if kind not in _CONSTRUCTORS:
        raise ValueError(f"unknown potential kind {kind!r}; expected one of {tuple(_CONSTRUCTORS)}")
    return _CONSTRUCTORS[kind](**params)


def _as_points(p: Potential, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != p.d:
        raise ValueError(f"dimension mismatch: potential has d={p.d}, point has {x.shape[-1]}")
    return x


def u_value(p: Potential, x):
    """U(x); batches over leading axes when x has shape (..., d)."""
    x = _as_points(p, x)
    if p.kind == "quadratic-diagonal":
        u = 0.5 * np.sum(p.diag * x * x, axis=-1)
    elif p.kind == "quadratic-full":
        u = 0.5 * np.einsum("...i,ij,...j->...", x, p.matrix, x)
    else:  # huber
        ax = np.abs(x)
        per = np.where(ax <= p.delta, 0.5 * x * x, p.delta * ax - 0.5 * p.delta * p.delta)
        u = np.sum(per, axis=-1)
    return float(u) if np.ndim(u) == 0 else u


# _scale_rows multiplies blocks of whole rows at least _ROW_BLOCK elements
# long, when x has at least _MIN_ROWS rows
_ROW_BLOCK = 256
_MIN_ROWS = 2048


def _scale_rows(x: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """x * diag over contiguous blocks of whole rows, bit-identical to the broadcast.

    Broadcasting diag over the rows of x runs numpy's inner loop once per
    row, only d elements long, at a few ns per row. For 2 <= d < _ROW_BLOCK
    and at least _MIN_ROWS rows of a C-contiguous x, the bulk of x is
    multiplied as rows of a multiple of d at least _ROW_BLOCK long by diag
    tiled to that length, and the leftover rows by diag. That costs about
    8 us more per call (2-core Xeon, numpy 2.4), which the saved per-row
    cost repays from about 2,000 rows on; d = 1 broadcasts as a scalar,
    3-5x faster than the tiled product, and from d = _ROW_BLOCK on the tiled
    row would be diag itself, so those keep the broadcast.
    """
    d = diag.size
    if not 2 <= d < _ROW_BLOCK or x.size < _MIN_ROWS * d or not x.flags.c_contiguous:
        return x * diag
    width = d * -(-_ROW_BLOCK // d)
    tiled = np.empty(width)
    tiled.reshape(-1, d)[:] = diag
    # out owns its buffer, so numpy can overwrite it in place when a caller's
    # next operation (the chain's h * grad) consumes it as a temporary
    out = np.empty_like(x)
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    bulk = flat.size - flat.size % width
    np.multiply(flat[:bulk].reshape(-1, width), tiled, out=flat_out[:bulk].reshape(-1, width))
    np.multiply(flat[bulk:].reshape(-1, d), diag, out=flat_out[bulk:].reshape(-1, d))
    return out


def grad_u(p: Potential, x) -> np.ndarray:
    """Gradient of U at x, same shape as x."""
    x = _as_points(p, x)
    if p.kind == "quadratic-diagonal":
        return _scale_rows(x, p.diag)
    if p.kind == "quadratic-full":
        return x @ p.matrix
    # huber: np.clip's bits without its Python wrapper, NaN included
    return np.minimum(np.maximum(x, -p.delta), p.delta)
