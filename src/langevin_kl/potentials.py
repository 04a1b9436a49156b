"""Target potentials U(x) = -log p*(x) + C with certified curvature constants.

A Potential packages the negative log-density of the sampling target together
with its gradient and global Hessian bounds m*I <= Hess U(x) <= L*I. All
built-in kinds are normalized so the minimizer sits at the origin with
U(0) = 0 and grad U(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "ConstantsReport",
    "construct_potential",
    "quadratic_diagonal",
    "quadratic_full",
    "huber",
    "custom_potential",
    "u_value",
    "grad_u",
    "validate_constants",
]

KINDS = ("quadratic-diagonal", "quadratic-full", "huber", "custom")


@dataclass(frozen=True)
class Potential:
    """Immutable target description; safe to share read-only across workers."""

    kind: str
    m: float
    L: float
    d: int
    diag: np.ndarray | None = None
    matrix: np.ndarray | None = None
    delta: float | None = None
    u_fn: Callable[[np.ndarray], np.ndarray] | None = None
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None


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


def quadratic_full(matrix) -> Potential:
    """U(x) = 0.5 * x^T A x for a symmetric positive-definite A."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise ValueError("matrix must be square and non-empty")
    scale = max(1.0, float(np.abs(A).max()))
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    A = 0.5 * (A + A.T)
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
    if not delta > 0:
        raise ValueError(f"huber threshold delta must be positive, got {delta}")
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError(f"dimension must be an integer >= 1, got {dim!r}")
    return Potential(kind="huber", m=0.0, L=1.0, d=int(dim), delta=float(delta))


def custom_potential(u_fn, grad_fn, m: float, L: float, d: int) -> Potential:
    """Caller-supplied potential; (m, L) are trusted, validate_constants is advisory.

    u_fn and grad_fn must accept arrays of shape (..., d); u_fn reduces the
    last axis, grad_fn preserves the shape.
    """
    if not (0 <= m <= L and L > 0):
        raise ValueError(f"need 0 <= m <= L with L > 0, got m={m}, L={L}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return Potential(kind="custom", m=float(m), L=float(L), d=int(d), u_fn=u_fn, grad_fn=grad_fn)


def construct_potential(kind: str, **params) -> Potential:
    """Build a Potential from a kind tag and kind-specific parameters."""
    if kind == "quadratic-diagonal":
        return quadratic_diagonal(params["diag"])
    if kind == "quadratic-full":
        return quadratic_full(params["matrix"])
    if kind == "huber":
        return huber(params["delta"], params.get("dim", 1))
    if kind == "custom":
        return custom_potential(
            params["u_fn"], params["grad_fn"], params["m"], params["L"], params["d"]
        )
    raise ValueError(f"unknown potential kind {kind!r}; expected one of {KINDS}")


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
    elif p.kind == "huber":
        ax = np.abs(x)
        per = np.where(ax <= p.delta, 0.5 * x * x, p.delta * ax - 0.5 * p.delta * p.delta)
        u = np.sum(per, axis=-1)
    else:
        u = np.asarray(p.u_fn(x), dtype=float)
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
    if p.kind == "huber":
        # np.clip's bits without its Python wrapper, NaN included
        return np.minimum(np.maximum(x, -p.delta), p.delta)
    g = np.asarray(p.grad_fn(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(f"custom gradient returned shape {g.shape}, expected {x.shape}")
    return g


_FD_STEP = 1e-5  # central-difference step of validate_constants' gradient check


@dataclass(frozen=True)
class ConstantsReport:
    """Worst signed violations found by validate_constants (<= 0 means clean)."""

    max_violation: float
    lower_violation: float
    upper_violation: float
    cocoercivity_violation: float
    grad_max_rel_err: float
    n_probes: int
    seed: int


def validate_constants(p: Potential, n_probes: int, seed: int) -> ConstantsReport:
    """Spot-check the declared (m, L) and the gradient on random probe pairs.

    Probes are drawn from N(0, s^2 I) with s = 3/sqrt(m) (s = 3 when m = 0) to
    cover the high-mass region. Checked per pair (x, y), with g = grad_u:

        m ||x-y||^2  <=  <g(x)-g(y), x-y>  <=  L ||x-y||^2
        <g(x)-g(y), x-y>  >=  ||g(x)-g(y)||^2 / L

    plus agreement of grad_u with central differences of u_value. Violations
    are signed; positive means the inequality failed by that amount.
    """
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    rng = np.random.default_rng(seed)
    s = 3.0 / np.sqrt(p.m) if p.m > 0 else 3.0
    x = rng.normal(0.0, s, size=(n_probes, p.d))
    y = rng.normal(0.0, s, size=(n_probes, p.d))
    gx = grad_u(p, x)
    gy = grad_u(p, y)
    dxy = x - y
    dg = gx - gy
    inner = np.sum(dg * dxy, axis=1)
    nn = np.sum(dxy * dxy, axis=1)
    gg = np.sum(dg * dg, axis=1)
    lower = float(np.max(p.m * nn - inner))
    upper = float(np.max(inner - p.L * nn))
    coco = float(np.max(gg / p.L - inner))

    eye = np.eye(p.d)
    up = u_value(p, x[:, None, :] + _FD_STEP * eye[None, :, :])
    um = u_value(p, x[:, None, :] - _FD_STEP * eye[None, :, :])
    fd = (np.atleast_2d(up) - np.atleast_2d(um)) / (2.0 * _FD_STEP)
    scale = np.maximum(1.0, np.max(np.abs(gx), axis=1))
    rel = float(np.max(np.max(np.abs(fd - gx), axis=1) / scale))

    return ConstantsReport(
        max_violation=max(lower, upper, coco),
        lower_violation=lower,
        upper_violation=upper,
        cocoercivity_violation=coco,
        grad_max_rel_err=rel,
        n_probes=int(n_probes),
        seed=int(seed),
    )
