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
    "GaussianPath",
    "ula_step_law",
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


def _check_step(w: np.ndarray, h: float, unstable: str = "diverges") -> None:
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
    """(1 - a)^j and 1 - (1 - a)^(2j) for j >= 0 steps, a = h w in (0, 2).

    Both come from log|1 - a|: log1p(-a) below a = 0.5, and from there on
    the log of 1 - a, which is exact. So 1 - (1 - a)^(2j) keeps its relative
    precision when a is small, and (1 - a)^j is exactly 0 at a = 1 for j >= 1.
    """
    with np.errstate(divide="ignore"):  # log 0 = -inf at a = 1
        log_r = np.where(a < 0.5, np.log1p(-np.minimum(a, 0.5)), np.log(np.abs(1.0 - a)))
    # -inf would make step 0 at a = 1 NaN (0 * -inf); exp is already 0 below -745
    log_r = np.maximum(log_r, -1e3)
    rj = np.exp(j * log_r)
    np.negative(rj, out=rj, where=(a > 1.0) & (j % 2 == 1))
    return rj, -np.expm1(2.0 * j * log_r)


class GaussianPath:
    """A Gaussian law held in the eigenbasis of A = Q diag(w) Q^T, stepped by ULA in closed form.

    `mean` and `cov` are the law's mean and covariance in that basis (Q is
    None for a diagonal A, its own basis). A is decomposed once, when the
    path is built from a law; `jump` returns a path on the same decomposition,
    so a law stepped stage after stage never goes back through Q.
    """

    def __init__(self, law: GaussianLaw, A):
        self.w, self.Q = _eig(A)
        if self.w.size != law.d:
            raise ValueError(f"dimension mismatch: law d={law.d}, matrix {(self.w.size, self.w.size)}")
        self.mean, self.cov = _to_basis(law, self.Q)

    @property
    def law(self) -> GaussianLaw:
        """The law in the original coordinates."""
        return _from_basis(self.mean, self.cov, self.Q)

    def _stepping(self, h: float, k: int) -> tuple[np.ndarray, np.ndarray]:
        """h w and the stationary variances v = 2/(w (2 - h w)) of stepsize h."""
        _check_step(self.w, h)
        if int(k) != k or k < 0:
            raise ValueError(f"step count must be a nonnegative integer, got {k}")
        a = h * self.w
        return a, 2.0 / (self.w * (2.0 - a))

    def jump(self, h: float, k: int) -> GaussianPath:
        """The path of the law after k ULA steps at stepsize h (itself for k = 0)."""
        a, v = self._stepping(h, k)
        if k == 0:
            return self
        rk, fill = _decay(a, k)
        out = object.__new__(GaussianPath)
        out.w, out.Q, out.mean = self.w, self.Q, rk * self.mean
        out.cov = np.outer(rk, rk) * self.cov
        out.cov.flat[:: self.w.size + 1] += v * fill  # the diagonal
        return out

    def stats(self, h: float, k: int, first: int = 0) -> tuple[np.ndarray, ...]:
        """(second moment, W2 to pi_h, KL and W2 to N(0, A^-1)) after first, ..., k ULA steps.

        One vectorised pass, a few MB at a time. KL = (sum(x - log1p(x)) +
        mean' diag(w) mean') / 2 with 1 + x the eigenvalues of diag(w)^(1/2) C'_j
        diag(w)^(1/2). O(kd) when C' is diagonal (every diagonal A; any A for c*I):
        there x = w (var - 1/w) and W2 takes sd - sqrt(t) as (var - t)/(sd + sqrt(t)),
        with var - v = r^(2j) (c0 - v) and var - 1/w = var - v + h/(2 - h w), which
        do not cancel near pi_h or the target. Otherwise W2 is the Bures form.
        """
        a, v = self._stepping(h, k)
        if not 0 <= first <= k:
            raise ValueError(f"need 0 <= first <= k, got first={first}, k={k}")
        w, c0, d = self.w, np.diagonal(self.cov), self.w.size
        diagonal = _is_diagonal(self.cov)
        steps = np.arange(first, k + 1)
        out = np.empty((4, steps.size))
        rows = max(1, _CHUNK_ELEMS // (d if diagonal else d * d))
        for lo in range(0, steps.size, rows):
            j = steps[lo : lo + rows, None]
            rj, fill = _decay(a, j)
            mean = rj * self.mean
            var = rj * rj * c0 + v * fill
            msq = np.sum(mean * mean, axis=1)
            second = np.sum(var, axis=1) + msq
            if diagonal:
                gap_v = rj * rj * (c0 - v)
                gap_t = gap_v + h / (2.0 - a)
                sd = np.sqrt(var)
                w2_v = np.sqrt(msq + np.sum((gap_v / (sd + np.sqrt(v))) ** 2, axis=1))
                w2_t = np.sqrt(msq + np.sum((gap_t / (sd + np.sqrt(1.0 / w))) ** 2, axis=1))
                x = w * gap_t
            else:
                w2_v = self._bures(rj, fill, v, v, second)
                w2_t = self._bures(rj, fill, v, 1.0 / w, second)
                x = self._scaled_eigs(rj, fill, v, w) - 1.0
            kl = 0.5 * (np.sum(x - np.log1p(x), axis=1) + np.sum(w * mean * mean, axis=1))
            out[:, lo : lo + j.shape[0]] = second, w2_v, kl, w2_t
        return tuple(out)

    def _scaled_eigs(self, rj, fill, v, s2) -> np.ndarray:
        """Eigenvalues of S C'_j S, S = diag(sqrt(s2)), for each row of a chunk."""
        s = rj * np.sqrt(s2)
        inner = s[:, :, None] * self.cov * s[:, None, :]
        idx = np.arange(self.w.size)
        inner[:, idx, idx] += s2 * v * fill
        return np.linalg.eigvalsh(inner)

    def _bures(self, rj, fill, v, t, second) -> np.ndarray:
        """W2 from each row's law to N(0, diag(t)) in the eigenbasis."""
        cross = np.sum(np.sqrt(np.clip(self._scaled_eigs(rj, fill, v, t), 0.0, None)), axis=1)
        return np.sqrt(np.maximum(second + np.sum(t) - 2.0 * cross, 0.0))


def target_law(A) -> GaussianLaw:
    """The target N(0, A^{-1}) of the potential U(x) = x^T A x / 2."""
    w, Q = _eig(A)
    return _from_basis(np.zeros(w.size), np.diag(1.0 / w), Q)


def ula_step_law(law: GaussianLaw, A, h: float, k: int = 1) -> GaussianLaw:
    """The law after k ULA steps x' = (I - hA) x + sqrt(2h) xi, in closed form (`GaussianPath.jump`).

    Requires a positive-definite A and h * lambda_max(A) < 2; at or beyond
    that the covariance recursion diverges.
    """
    path = GaussianPath(law, A).jump(h, k)
    return law if k == 0 else path.law


def stationary_law(A, h: float) -> GaussianLaw:
    """Fixed point of ula_step_law at stepsize h.

    For A = Q diag(w) Q^T the stationary covariance is
    Q diag(2/(w*(2 - h*w))) Q^T, which tends to A^{-1} as h -> 0.
    """
    w, Q = _eig(A)
    _check_step(w, h, unstable="has no stationary law")
    return _from_basis(np.zeros(w.size), np.diag(2.0 / (w * (2.0 - h * w))), Q)


def exact_flow_law(A, init: GaussianLaw, t: float) -> GaussianLaw:
    """Law of the exact overdamped flow dx = -Ax dt + sqrt(2) dB at time t.

    The Ornstein-Uhlenbeck solution in the eigenbasis of A: the mean
    e^(-w t) mean_0 and the covariance e^(-(w_i + w_l) t) C_0[i, l]
    + delta_il (1 - e^(-2 w_i t)) / w_i.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    p = GaussianPath(init, A)
    e = np.exp(-p.w * t)
    C = np.outer(e, e) * p.cov
    C.flat[:: C.shape[0] + 1] -= np.expm1(-2.0 * p.w * t) / p.w
    return _from_basis(e * p.mean, C, p.Q)


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
    """KL to the target N(0, A^{-1}) of the laws after 0, 1, ..., k ULA steps (`GaussianPath.stats`)."""
    return GaussianPath(init, A).stats(h, k)[2].tolist()
