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
        scale = max(1.0, float(np.abs(cov).max()))
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10 * scale):
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


def _spd(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim == 1:
        A = np.diag(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = max(1.0, float(np.abs(A).max()))
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-10 * scale):
        raise ValueError("matrix must be symmetric")
    return 0.5 * (A + A.T)


def _is_diagonal(M: np.ndarray) -> bool:
    return np.count_nonzero(M - np.diag(np.diagonal(M))) == 0


def target_law(A) -> GaussianLaw:
    """The target N(0, A^{-1}) of the potential U(x) = x^T A x / 2."""
    A = _spd(A)
    w, Q = np.linalg.eigh(A)
    if not w[0] > 0:
        raise ValueError(f"matrix must be positive definite, min eigenvalue {w[0]}")
    cov = (Q * (1.0 / w)) @ Q.T
    return GaussianLaw(np.zeros(A.shape[0]), 0.5 * (cov + cov.T))


def ula_step_law(law: GaussianLaw, A, h: float) -> GaussianLaw:
    """One ULA step on a Gaussian law.

    mean' = (I - hA) mean and cov' = (I - hA) cov (I - hA)^T + 2h I. Requires
    h * lambda_max(A) < 2; at or beyond that the covariance recursion diverges.
    """
    A = _spd(A)
    d = law.d
    if A.shape[0] != d:
        raise ValueError(f"dimension mismatch: law d={d}, matrix {A.shape}")
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    lmax = float(np.linalg.eigvalsh(A)[-1])
    if h * lmax >= 2.0:
        raise ValueError(f"unstable step: h*L = {h * lmax} >= 2 diverges")
    M = np.eye(d) - h * A
    mean = M @ law.mean
    cov = M @ law.cov @ M.T + 2.0 * h * np.eye(d)
    return GaussianLaw(mean, 0.5 * (cov + cov.T))


def stationary_law(A, h: float) -> GaussianLaw:
    """Fixed point of ula_step_law at stepsize h.

    For A = Q diag(a) Q^T the stationary covariance is
    Q diag(2/(a*(2 - h*a))) Q^T, which tends to A^{-1} as h -> 0.
    """
    A = _spd(A)
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    w, Q = np.linalg.eigh(A)
    if not w[0] > 0:
        raise ValueError(f"matrix must be positive definite, min eigenvalue {w[0]}")
    if h * w[-1] >= 2.0:
        raise ValueError(f"unstable step: h*L = {h * w[-1]} >= 2 has no stationary law")
    v = 2.0 / (w * (2.0 - h * w))
    cov = (Q * v) @ Q.T
    return GaussianLaw(np.zeros(A.shape[0]), 0.5 * (cov + cov.T))


def exact_flow_law(A, init: GaussianLaw, t: float) -> GaussianLaw:
    """Law of the exact overdamped flow dx = -Ax dt + sqrt(2) dB at time t.

    Restricted to diagonal A and diagonal initial covariance, where the
    Ornstein-Uhlenbeck solution is coordinatewise:

        mean_i(t) = exp(-a_i t) mean_i(0)
        var_i(t)  = 1/a_i + (var_i(0) - 1/a_i) exp(-2 a_i t)
    """
    A = _spd(A)
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if not _is_diagonal(A) or not _is_diagonal(init.cov):
        raise ValueError("closed-form flow requires diagonal A and diagonal initial covariance")
    a = np.diagonal(A)
    if not np.all(a > 0):
        raise ValueError("matrix must be positive definite")
    v0 = np.diagonal(init.cov)
    mean = np.exp(-a * t) * init.mean
    var = 1.0 / a + (v0 - 1.0 / a) * np.exp(-2.0 * a * t)
    return GaussianLaw(mean, np.diag(var))


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
    """KL to the target N(0, A^{-1}) of k iterated ULA laws, start included."""
    A = _spd(A)
    if k < 0:
        raise ValueError(f"step count must be nonnegative, got {k}")
    target = target_law(A)
    law = init
    out = [kl_gaussian(law, target)]
    for _ in range(k):
        law = ula_step_law(law, A, h)
        out.append(kl_gaussian(law, target))
    return out
