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

from .planner import _check_1d, _check_count, _check_dimension, _check_finite, _check_nonnegative, _check_steps
from .potentials import _check_positive_definite, _symmetrized

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


_SQRT1_2 = math.sqrt(0.5)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each entry of a 1-D array: 0.5 * erfc(-x / sqrt(2)) over libm's erfc.

    A lower-tail value keeps its relative precision; an upper-tail one is 1
    minus a small number, so _binned_normal reads the lower tail alone. numpy
    has no normal CDF, and the package takes none from scipy (importing
    scipy.special costs a cold start about 290 ms).
    """
    return 0.5 * np.fromiter(map(math.erfc, (x * -_SQRT1_2).tolist()), float, x.size)


def _binned_normal(edges: np.ndarray, sd: float) -> np.ndarray:
    """The mass of N(0, sd^2) between successive sorted edges, each cell from its own tail.

    One _ndtr call reads every edge's lower-tail mass P = Phi(-|edge|/sd). A
    cell on one side of 0 is the difference of its edges' tail masses and the
    cell across 0 is 1 - P_lo - P_hi, so no cell is a difference of two CDF
    values near 1 and a cell and its mirror are equal bit for bit. The grid
    oracle's start and noise kernel and tv_gaussian_1d's interval masses all
    come from here.
    """
    x = edges / sd
    tail = _ndtr(-np.abs(x))
    mass = np.abs(np.diff(tail))
    across = (x[:-1] < 0.0) & (x[1:] > 0.0)
    mass[across] = 1.0 - tail[:-1][across] - tail[1:][across]
    return mass


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
        cov = _symmetrized(np.diag(cov) if cov.ndim == 1 else cov, "covariance")
        _check_dimension(mean.size, cov.shape[0], "mean", "covariance")
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        _check_finite(mean, "mean")
        least = math.inf  # Cholesky decides: where it fails, cov's least eigenvalue is <= 0 to working precision
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            least = min(float(np.linalg.eigvalsh(cov)[0]), 0.0)
        _check_positive_definite(least, "covariance")
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
    A = _symmetrized(A)
    if _is_diagonal(A):
        w, Q = np.diagonal(A).copy(), None
    else:
        w, Q = np.linalg.eigh(A)
    _check_positive_definite(w.min())
    return w, Q


def _check_step(w: np.ndarray, h: float, unstable: str = "diverges", k=1, least: int = 1) -> None:
    """Fails unless (h, k) passes _check_steps and h * max(w) < 2, past which the law {unstable}."""
    _check_steps(h, k, least)
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
        _check_dimension(law.d, self.w.size, "law", "matrix")
        self.mean, self.cov = _to_basis(law, self.Q)

    @property
    def law(self) -> GaussianLaw:
        """The law in the original coordinates."""
        return _from_basis(self.mean, self.cov, self.Q)

    def _stepping(self, h: float, k: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """h w and the stationary variances v = 2/(w (2 - h w)) of stepsize h."""
        _check_step(self.w, h, k=k, least=0)
        _check_count(first, "first step", 0, k)
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

    def stats(self, h: float, k: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(second moment, W2 to pi_h) after first, ..., k ULA steps: the per-step margins.

        One vectorised pass, a few MB at a time. O(kd) when C' is diagonal
        (every diagonal A; any A for c*I); otherwise one d x d eigenvalue
        problem per step, for the Bures form of W2.
        """
        a, v = self._stepping(h, k, first)
        out = np.empty((2, k + 1 - first))
        for cols, rj, fill in self._pass(k, first, a):
            out[:, cols] = self._second_and_w2(rj, fill, v, v, 0.0)
        return out[0], out[1]

    def target_stats(self, h: float, k: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(KL, W2) to the target N(0, A^-1) after first, ..., k ULA steps, in one pass like `stats`.

        KL = (sum(x - log1p(x)) + mean' diag(w) mean') / 2 with 1 + x the
        eigenvalues of diag(w)^(1/2) C'_j diag(w)^(1/2). When C' is diagonal,
        x = w (var - 1/w) with var - 1/w = r^(2j) (c0 - v) + h/(2 - h w), which
        does not cancel near the target; otherwise it costs two d x d
        eigenvalue problems per step.
        """
        a, v = self._stepping(h, k, first)
        shift = h / (2.0 - a)  # v - 1/w
        diagonal = _is_diagonal(self.cov)
        out = np.empty((2, k + 1 - first))
        for cols, rj, fill in self._pass(k, first, a):
            if diagonal:
                x = self.w * (rj * rj * (np.diagonal(self.cov) - v) + shift)
            else:
                x = self._scaled_eigs(rj, fill, v, self.w) - 1.0
            mean = rj * self.mean
            out[0, cols] = 0.5 * (np.sum(x - np.log1p(x), axis=1) + np.sum(self.w * mean * mean, axis=1))
            out[1, cols] = self._second_and_w2(rj, fill, v, 1.0 / self.w, shift)[1]
        return out[0], out[1]

    def _pass(self, k: int, first: int, a: np.ndarray):
        """Steps first..k in chunks of a few MB: (output columns, (1 - a)^j, 1 - (1 - a)^(2j)) per chunk."""
        d = self.w.size
        rows = max(1, _CHUNK_ELEMS // (d if _is_diagonal(self.cov) else d * d))
        for lo in range(first, k + 1, rows):
            j = np.arange(lo, min(lo + rows, k + 1))[:, None]
            yield slice(lo - first, lo - first + j.shape[0]), *_decay(a, j)

    def _scaled_eigs(self, rj, fill, v, s2) -> np.ndarray:
        """Eigenvalues of S C'_j S, S = diag(sqrt(s2)), for each row of a chunk."""
        s = rj * np.sqrt(s2)
        inner = s[:, :, None] * self.cov * s[:, None, :]
        idx = np.arange(self.w.size)
        inner[:, idx, idx] += s2 * v * fill
        return np.linalg.eigvalsh(inner)

    def _second_and_w2(self, rj, fill, v, t, shift) -> tuple[np.ndarray, np.ndarray]:
        """Each row's second moment, and W2 from its law to N(0, diag(t)) in the eigenbasis, t = v - shift.

        When C' is diagonal, sd - sqrt(t) is taken as (var - t)/(sd + sqrt(t))
        with var - t = r^(2j) (c0 - v) + shift, which does not cancel near
        N(0, diag(t)); otherwise W2 is the Bures form.
        """
        c0 = np.diagonal(self.cov)
        mean = rj * self.mean
        msq = np.sum(mean * mean, axis=1)
        var = rj * rj * c0 + v * fill
        second = np.sum(var, axis=1) + msq
        if _is_diagonal(self.cov):
            gap = rj * rj * (c0 - v) + shift
            return second, np.sqrt(msq + np.sum((gap / (np.sqrt(var) + np.sqrt(t))) ** 2, axis=1))
        cross = np.sum(np.sqrt(np.clip(self._scaled_eigs(rj, fill, v, t), 0.0, None)), axis=1)
        return second, np.sqrt(np.maximum(second + np.sum(t) - 2.0 * cross, 0.0))


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
    _check_nonnegative(t, "time")
    p = GaussianPath(init, A)
    e = np.exp(-p.w * t)
    C = np.outer(e, e) * p.cov
    C.flat[:: C.shape[0] + 1] -= np.expm1(-2.0 * p.w * t) / p.w
    return _from_basis(e * p.mean, C, p.Q)


def kl_gaussian(p: GaussianLaw, q: GaussianLaw) -> float:
    """KL(p || q) in nats between Gaussian laws.

    With q.cov = R R' (Cholesky), KL = (|R^-1 dmean|^2 + sum(x - log1p(x))) / 2
    over the eigenvalues 1 + x of R^-1 p.cov R^-T. The x are the eigenvalues
    of R^-1 (p.cov - q.cov) R^-T, so no term cancels as p approaches q, where
    tr - d plus a log-det difference would.
    """
    _check_dimension(p.d, q.d, "p", "q")
    R = np.linalg.cholesky(q.cov)
    z = np.linalg.solve(R, p.mean - q.mean)
    x = np.linalg.eigvalsh(np.linalg.solve(R, np.linalg.solve(R, p.cov - q.cov).T))
    return 0.5 * (float(z @ z) + float(np.sum(x - np.log1p(x))))


def w2_gaussian(p: GaussianLaw, q: GaussianLaw) -> float:
    """Wasserstein-2 distance between Gaussians (Bures form).

    sqrt(||mean_p - mean_q||^2 + tr(cov_p + cov_q - 2 (cov_q^{1/2} cov_p cov_q^{1/2})^{1/2})),
    reducing to sqrt(||dmean||^2 + sum_i (sd_p,i - sd_q,i)^2) for diagonal pairs.
    """
    _check_dimension(p.d, q.d, "p", "q")
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


def tv_gaussian_1d(p: GaussianLaw, q: GaussianLaw) -> float:
    """Total variation between 1-D Gaussians in closed form.

    p - q changes sign where (x - mp)^2/vp - (x - mq)^2/vq = log(vq/vp), and
    one law is the larger on the interval I between those crossings ((r, inf)
    for equal variances), so TV = |P(I) - Q(I)|. The discriminant is a sum of
    nonnegative terms and each root comes from a form that does not cancel;
    an error in a crossing moves TV to second order only, since p = q there.
    """
    for name, law in (("p", p), ("q", q)):
        _check_1d(law.d, "total variation", name)
    mp, vp = float(p.mean[0]), float(p.cov[0, 0])
    mq, vq = float(q.mean[0]), float(q.cov[0, 0])
    if mp == mq and vp == vq:
        return 0.0
    dm = mp - mq
    if vp == vq:
        lo, hi = mq + 0.5 * dm, math.inf
    else:
        # in y = x - mq: (vq - vp) y^2 - 2 vq dm y + vq (dm^2 + vp log(vp/vq)) = 0
        log_ratio = math.log1p((vp - vq) / vq)
        t = vq * dm + math.copysign(math.sqrt(vp * vq * (dm * dm + (vp - vq) * log_ratio)), dm)
        lo, hi = sorted((mq + t / (vq - vp), mq + vq * (dm * dm + vp * log_ratio) / t))

    def mass(m: float, v: float) -> float:  # of I under N(m, v)
        return float(_binned_normal(np.array([lo - m, hi - m]), math.sqrt(v))[0])

    return abs(mass(mp, vp) - mass(mq, vq))


def fisher_info_relative(p: GaussianLaw, A) -> float:
    """Relative Fisher information E_p ||grad log(p/p*)||^2 for p* = N(0, A^{-1}).

    With M = A - cov^{-1} the closed form is ||A mean||^2 + tr(M cov M); it is
    nonnegative and vanishes exactly when p equals the target.
    """
    A = _symmetrized(A)
    _check_dimension(p.d, A.shape[0], "law", "matrix")
    prec = np.linalg.inv(p.cov)
    M = A - prec
    amu = A @ p.mean
    val = float(amu @ amu) + float(np.sum((M @ p.cov) * M))
    return max(val, 0.0)


def kl_trajectory(A, init: GaussianLaw, h: float, k: int) -> list[float]:
    """KL to the target N(0, A^{-1}) of the laws after 0, ..., k ULA steps (`GaussianPath.target_stats`)."""
    return GaussianPath(init, A).target_stats(h, k)[0].tolist()
