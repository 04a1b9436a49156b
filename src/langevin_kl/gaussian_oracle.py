"""Closed-form law propagation for quadratic potentials.

For U(x) = x^T A x / 2 each ULA step is an affine map plus independent
Gaussian noise, so the law of every iterate stays Gaussian and the quantities
the convergence statements are phrased in (KL divergence, total variation,
Wasserstein-2, relative Fisher information) all have exact expressions. This
is the ground truth the Monte Carlo sampler and the grid oracle are checked
against, with no Monte Carlo error of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianLaw",
    "gaussian_1d",
    "target_law",
    "ula_step_law",
    "ula_path_stats",
    "stationary_law",
    "exact_flow_law",
    "kl_gaussian",
    "w2_gaussian",
    "tv_gaussian_1d",
    "fisher_info_relative",
    "kl_trajectory",
]


@dataclass(frozen=True)
class GaussianLaw:
    """Mean vector and symmetric positive-definite covariance.

    A 1-D cov argument is read as a diagonal; storage is always the full
    matrix (dimensions stay desk-scale here).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        elif cov.ndim == 1:
            cov = np.diag(cov)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"shape mismatch: mean {mean.shape}, cov {cov.shape}")
        if not _symmetric(cov):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def d(self) -> int:
        return self.mean.size

    @property
    def second_moment(self) -> float:
        """E|X|^2 = tr(cov) + |mean|^2."""
        return float(np.trace(self.cov) + self.mean @ self.mean)


def gaussian_1d(mean: float, var: float) -> GaussianLaw:
    return GaussianLaw(np.array([float(mean)]), np.array([[float(var)]]))


def _symmetric(M: np.ndarray) -> bool:
    """|M - M^T| <= 1e-10 * max(1, max|M|) entrywise (False on NaN)."""
    return bool(np.abs(M - M.T).max() <= 1e-10 * max(1.0, float(np.abs(M).max())))


def _spd(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = np.diag(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not _symmetric(A):
        raise ValueError("matrix must be symmetric")
    return 0.5 * (A + A.T)


def _is_diagonal(M: np.ndarray) -> bool:
    return np.count_nonzero(M) == np.count_nonzero(np.diagonal(M))


# Every quadratic-target law below is computed in the eigenbasis of
# A = Q diag(w) Q^T, where one ULA step scales coordinate i by r_i = 1 - h w_i
# and adds independent N(0, 2h) noise, so j steps act coordinatewise:
#
#     mean'_j = r^j mean'_0
#     C'_j[i, l] = (r_i r_l)^j C'_0[i, l] + delta_il v_i (1 - r_i^(2j))
#
# with v = 2/(w (2 - h w)) the stationary variances. A diagonal A is its own
# eigenbasis (Q is None), so a diagonal covariance stays exactly diagonal.

_CHUNK_ELEMS = 1 << 17  # floats per (steps x d) or (steps x d x d) block of a path


def _eig(A) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and eigenvectors of a symmetric positive-definite A (Q None if A is diagonal)."""
    A = _spd(A)
    if _is_diagonal(A):
        w, Q = np.diagonal(A).copy(), None
    else:
        w, Q = np.linalg.eigh(A)
    if not w.min() > 0:
        raise ValueError(f"matrix must be positive definite, min eigenvalue {w.min()}")
    return w, Q


def _check_step(w: np.ndarray, h: float, d: int, unstable: str = "diverges") -> None:
    if w.size != d:
        raise ValueError(f"dimension mismatch: law d={d}, matrix {(w.size, w.size)}")
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    if h * w.max() >= 2.0:
        raise ValueError(f"unstable step: h*L = {h * w.max()} >= 2 {unstable}")


def _to_basis(law: GaussianLaw, Q) -> tuple[np.ndarray, np.ndarray]:
    if Q is None:
        return law.mean, law.cov
    C = law.cov
    if _is_diagonal(C) and np.all(np.diagonal(C) == C[0, 0]):
        return Q.T @ law.mean, C  # c*I is the same matrix in every basis
    C = Q.T @ C @ Q
    return Q.T @ law.mean, 0.5 * (C + C.T)


def _from_basis(mean: np.ndarray, C: np.ndarray, Q) -> GaussianLaw:
    if Q is None:
        return GaussianLaw(mean, C)
    return GaussianLaw(Q @ mean, Q @ C @ Q.T)


def _decay(a: np.ndarray, j) -> tuple[np.ndarray, np.ndarray]:
    """(1 - a)^j and 1 - (1 - a)^(2j) for j >= 1 steps, a = h w in (0, 2).

    Both come from log|1 - a|: log1p(-a) below a = 0.5, and from there on
    the log of 1 - a, which is exact. So 1 - (1 - a)^(2j) keeps its relative
    precision when a is small, and (1 - a)^j is exactly 0 at a = 1.
    """
    with np.errstate(divide="ignore"):  # log 0 = -inf at a = 1
        log_r = np.where(a < 0.5, np.log1p(-np.minimum(a, 0.5)), np.log(np.abs(1.0 - a)))
    rj = np.exp(j * log_r)
    np.negative(rj, out=rj, where=(a > 1.0) & (j % 2 == 1))
    return rj, -np.expm1(2.0 * j * log_r)


def _check_count(k: int) -> None:
    if int(k) != k or k < 0:
        raise ValueError(f"step count must be a nonnegative integer, got {k}")


class _Path:
    """A Gaussian law in the eigenbasis of A, stepped by ULA at stepsize h."""

    def __init__(self, law: GaussianLaw, A, h: float):
        self.w, self.Q = _eig(A)
        _check_step(self.w, h, law.d)
        self.a = h * self.w
        self.v = 2.0 / (self.w * (2.0 - self.a))
        self.mean, self.cov = _to_basis(law, self.Q)
        self.c0 = np.diagonal(self.cov)
        self.diagonal = _is_diagonal(self.cov)

    def chunks(self, first: int, k: int):
        """(slice, r^j, 1 - r^(2j), mean, var) over steps j = first..k, a few MB at a time.

        The arrays have one row per step; mean and var are the eigenbasis
        means and variances of the law after j steps.
        """
        d = self.w.size
        steps = np.arange(first, k + 1)
        rows = max(1, _CHUNK_ELEMS // (d if self.diagonal else d * d))
        for lo in range(0, steps.size, rows):
            j = steps[lo : lo + rows, None]
            rj, fill = _decay(self.a, j)
            var = rj * rj * self.c0 + self.v * fill
            yield slice(lo, lo + j.shape[0]), rj, fill, rj * self.mean, var

    def scaled_eigs(self, rj: np.ndarray, fill: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """Eigenvalues of S C'_j S, S = diag(sqrt(s2)), for each row of a chunk."""
        s = rj * np.sqrt(s2)
        inner = s[:, :, None] * self.cov * s[:, None, :]
        idx = np.arange(self.w.size)
        inner[:, idx, idx] += s2 * self.v * fill
        return np.linalg.eigvalsh(inner)


def target_law(A) -> GaussianLaw:
    """The target N(0, A^{-1}) of the potential U(x) = x^T A x / 2."""
    w, Q = _eig(A)
    return _from_basis(np.zeros(w.size), np.diag(1.0 / w), Q)


def ula_step_law(law: GaussianLaw, A, h: float, k: int = 1) -> GaussianLaw:
    """The law after k ULA steps x' = (I - hA) x + sqrt(2h) xi, in closed form.

    In the eigenbasis of A this is the mean r^k mean_0 and the covariance
    (r_i r_l)^k C_0[i, l] + delta_il v_i (1 - r_i^(2k)) with r = 1 - h w and
    v = 2/(w (2 - h w)). Requires a positive-definite A and h * lambda_max(A) < 2;
    at or beyond that the covariance recursion diverges.
    """
    path = _Path(law, A, h)
    _check_count(k)
    if k == 0:
        return law
    rk, fill = _decay(path.a, k)
    C = np.outer(rk, rk) * path.cov
    C.flat[:: C.shape[0] + 1] += path.v * fill  # the diagonal
    return _from_basis(rk * path.mean, C, path.Q)


def ula_path_stats(law: GaussianLaw, A, h: float, k: int, first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Second moment and W2 to the stationary law pi_h of the laws after first, ..., k ULA steps.

    O(k d) when the law's covariance is diagonal in the eigenbasis of A
    (every diagonal A; any A for a covariance c*I); otherwise one d x d
    eigenvalue problem per step (the Bures form), batched a few MB at a time.
    """
    path = _Path(law, A, h)
    _check_count(k)
    if not 1 <= first <= k + 1:
        raise ValueError(f"need 1 <= first <= k + 1, got first={first}, k={k}")
    second = np.empty(k + 1 - first)
    w2 = np.empty(k + 1 - first)
    v = path.v
    for sl, rj, fill, mean, var in path.chunks(first, k):
        msq = np.sum(mean * mean, axis=1)
        second[sl] = np.sum(var, axis=1) + msq
        if path.diagonal:
            # sd - sqrt(v) as a quotient of var - v = r^(2j) (c0 - v): no cancellation near pi_h
            gap = rj * rj * (path.c0 - v) / (np.sqrt(var) + np.sqrt(v))
            w2[sl] = np.sqrt(msq + np.sum(gap * gap, axis=1))
        else:
            cross = np.sum(np.sqrt(np.clip(path.scaled_eigs(rj, fill, v), 0.0, None)), axis=1)
            w2[sl] = np.sqrt(np.maximum(second[sl] + np.sum(v) - 2.0 * cross, 0.0))
    return second, w2


def stationary_law(A, h: float) -> GaussianLaw:
    """Fixed point of ula_step_law at stepsize h.

    For A = Q diag(w) Q^T the stationary covariance is
    Q diag(2/(w*(2 - h*w))) Q^T, which tends to A^{-1} as h -> 0.
    """
    w, Q = _eig(A)
    _check_step(w, h, w.size, unstable="has no stationary law")
    return _from_basis(np.zeros(w.size), np.diag(2.0 / (w * (2.0 - h * w))), Q)


def exact_flow_law(A, init: GaussianLaw, t: float) -> GaussianLaw:
    """Law of the exact overdamped flow dx = -Ax dt + sqrt(2) dB at time t.

    The Ornstein-Uhlenbeck solution in the eigenbasis of A: the mean
    e^(-w t) mean_0 and the covariance e^(-(w_i + w_l) t) C_0[i, l]
    + delta_il (1 - e^(-2 w_i t)) / w_i.
    """
    w, Q = _eig(A)
    if w.size != init.d:
        raise ValueError(f"dimension mismatch: law d={init.d}, matrix {(w.size, w.size)}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    mean, C = _to_basis(init, Q)
    e = np.exp(-w * t)
    C = np.outer(e, e) * C
    C.flat[:: C.shape[0] + 1] -= np.expm1(-2.0 * w * t) / w
    return _from_basis(e * mean, C, Q)


def kl_gaussian(p: GaussianLaw, q: GaussianLaw) -> float:
    """KL(p || q) in nats between Gaussian laws."""
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    dm = p.mean - q.mean
    sol = np.linalg.solve(q.cov, p.cov)
    quad_term = float(dm @ np.linalg.solve(q.cov, dm))
    _, ldp = np.linalg.slogdet(p.cov)
    _, ldq = np.linalg.slogdet(q.cov)
    return 0.5 * (float(np.trace(sol)) + quad_term - p.d + ldq - ldp)


def w2_gaussian(p: GaussianLaw, q: GaussianLaw) -> float:
    """Wasserstein-2 distance between Gaussians (Bures form).

    sqrt(||mean_p - mean_q||^2 + tr(cov_p + cov_q - 2 (cov_q^{1/2} cov_p cov_q^{1/2})^{1/2})),
    reducing to sqrt(||dmean||^2 + sum_i (sd_p,i - sd_q,i)^2) for diagonal pairs.
    """
    if p.d != q.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {q.d}")
    dm = p.mean - q.mean
    if _is_diagonal(p.cov) and _is_diagonal(q.cov):
        sp = np.sqrt(np.diagonal(p.cov))
        sq = np.sqrt(np.diagonal(q.cov))
        return float(np.sqrt(dm @ dm + np.sum((sp - sq) ** 2)))
    wq, Qq = np.linalg.eigh(q.cov)
    rootq = (Qq * np.sqrt(np.clip(wq, 0.0, None))) @ Qq.T
    inner = rootq @ p.cov @ rootq
    wm = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    cross = float(np.sum(np.sqrt(np.clip(wm, 0.0, None))))
    val = float(dm @ dm) + float(np.trace(p.cov) + np.trace(q.cov)) - 2.0 * cross
    return math.sqrt(max(val, 0.0))


def _pdf1(x, mu: float, var: float):
    return np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def tv_gaussian_1d(p: GaussianLaw, q: GaussianLaw) -> float:
    """Total variation between 1-D Gaussians by adaptive quadrature of |p - q|.

    The sign changes of p - q solve a quadratic in x; they are passed to the
    integrator as breakpoints, keeping the absolute error well below 1e-8.
    """
    from scipy.integrate import quad  # imported on first use: runs that never integrate skip loading it

    if p.d != 1 or q.d != 1:
        raise ValueError("total variation evaluation supports d = 1 only")
    mp, vp = float(p.mean[0]), float(p.cov[0, 0])
    mq, vq = float(q.mean[0]), float(q.cov[0, 0])
    if mp == mq and vp == vq:
        return 0.0
    # log p - log q = alpha x^2 + beta x + gamma
    alpha = 0.5 * (1.0 / vq - 1.0 / vp)
    beta = mp / vp - mq / vq
    gamma = 0.5 * (mq * mq / vq - mp * mp / vp) + 0.5 * math.log(vq / vp)
    if abs(alpha) < 1e-300:
        roots = [-gamma / beta] if beta != 0.0 else []
    else:
        disc = beta * beta - 4.0 * alpha * gamma
        if disc > 0:
            r = math.sqrt(disc)
            roots = [(-beta - r) / (2.0 * alpha), (-beta + r) / (2.0 * alpha)]
        elif disc == 0.0:
            roots = [-beta / (2.0 * alpha)]
        else:
            roots = []
    lo = min(mp - 12.0 * math.sqrt(vp), mq - 12.0 * math.sqrt(vq))
    hi = max(mp + 12.0 * math.sqrt(vp), mq + 12.0 * math.sqrt(vq))
    pts = sorted(r for r in roots if lo < r < hi)
    val, _ = quad(
        lambda x: abs(_pdf1(x, mp, vp) - _pdf1(x, mq, vq)),
        lo,
        hi,
        points=pts or None,
        limit=200,
        epsabs=1e-10,
        epsrel=1e-10,
    )
    return 0.5 * float(val)


def fisher_info_relative(p: GaussianLaw, A) -> float:
    """Relative Fisher information E_p ||grad log(p/p*)||^2 for p* = N(0, A^{-1}).

    With M = A - cov^{-1} the closed form is ||A mean||^2 + tr(M cov M); it is
    nonnegative and vanishes exactly when p equals the target.
    """
    A = _spd(A)
    if A.shape[0] != p.d:
        raise ValueError(f"dimension mismatch: law d={p.d}, matrix {A.shape}")
    prec = np.linalg.inv(p.cov)
    M = A - prec
    amu = A @ p.mean
    val = float(amu @ amu) + float(np.sum((M @ p.cov) * M))
    return max(val, 0.0)


def kl_trajectory(A, init: GaussianLaw, h: float, k: int) -> list[float]:
    """KL to the target N(0, A^{-1}) of the laws after 0, 1, ..., k ULA steps.

    Per step the closed form in the eigenbasis: with x the eigenvalues of
    A^(1/2) C_j A^(1/2) minus 1 (for a diagonal C_j: w (var - 1/w), where
    var - 1/w = r^(2j) (c0 - v) + h/(2 - h w)), KL = (sum(x - log1p(x))
    + mean_j' diag(w) mean_j) / 2.
    """
    _check_count(k)
    out = [kl_gaussian(init, target_law(A))]
    if k == 0:
        return out
    path = _Path(init, A, h)
    w = path.w
    kl = np.empty(k)
    for sl, rj, fill, mean, _ in path.chunks(1, k):
        if path.diagonal:
            x = w * (rj * rj * (path.c0 - path.v) + h / (2.0 - path.a))
        else:
            x = path.scaled_eigs(rj, fill, w) - 1.0
        kl[sl] = 0.5 * (np.sum(x - np.log1p(x), axis=1) + np.sum(w * mean * mean, axis=1))
    return out + kl.tolist()
