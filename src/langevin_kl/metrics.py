"""Empirical estimators bridging Monte Carlo ensembles and the exact oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian_oracle import GaussianLaw
from .planner import _check_count

__all__ = ["MomentSummary", "summarize", "z_scores_vs_oracle"]


@dataclass(frozen=True)
class MomentSummary:
    """Unbiased moment estimates with standard errors.

    second_moment is the mean of |x|^2 over the samples, and second_moment_se
    its standard error.
    """

    mean: np.ndarray  # (d,)
    cov: np.ndarray  # (d, d), unbiased
    second_moment: float
    n: int
    mean_se: np.ndarray  # (d,)
    cov_se: np.ndarray  # (d, d)
    second_moment_se: float


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of a per-chain quantity (1-D) and its standard error, 0 for a single chain.

    Both are taken on the values scaled by a power of two near their largest magnitude, and scaled back, so
    the squared deviations stay finite wherever the values are. A power of two scales exactly: where neither
    form overflows or underflows, both return the same bits.
    """
    e = math.frexp(float(np.abs(values).max()))[1]
    x = np.ldexp(values, -e)
    se = float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0
    return math.ldexp(float(x.mean()), e), math.ldexp(se, e)


def summarize(e) -> MomentSummary:
    """Moment summary of an Ensemble (or a raw (n, d) sample array)."""
    x = np.asarray(getattr(e, "states", e), dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected samples of shape (n, d), got {x.shape}")
    n, d = x.shape
    _check_count(n, "sample count", 2)  # a standard error needs two samples
    # the moments are taken on x scaled by 2^-e, as in mean_and_se, so that no
    # product of deviations overflows, and scaled back: exact, where neither
    # form overflows or underflows
    e = math.frexp(float(np.abs(x).max()))[1]
    xs = np.ldexp(x, -e)
    mean = xs.mean(axis=0)
    xc = xs - mean
    cov = xc.T @ xc / (n - 1)
    second, second_se = mean_and_se(np.sum(x * x, axis=1))

    mean_se = np.sqrt(np.clip(np.diagonal(cov), 0.0, None) / n)
    # var of a covariance entry: Var[(x_a - mu_a)(x_b - mu_b)] / n
    sq = xc * xc
    second_prod = sq.T @ sq / n
    cov_var = np.clip(second_prod - cov * cov, 0.0, None)
    cov_se = np.sqrt(cov_var / n)

    return MomentSummary(
        mean=np.ldexp(mean, e),
        cov=np.ldexp(cov, 2 * e),
        second_moment=second,
        n=n,
        mean_se=np.ldexp(mean_se, e),
        cov_se=np.ldexp(cov_se, 2 * e),
        second_moment_se=second_se,
    )


def _safe_z(diff: np.ndarray, se: np.ndarray) -> np.ndarray:
    diff = np.asarray(diff, dtype=float)
    se = np.asarray(se, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / se
    z = np.where((se == 0) & (diff == 0), 0.0, z)
    return np.where((se == 0) & (diff != 0), np.inf * np.sign(diff), z)


def z_scores_vs_oracle(s: MomentSummary, law: GaussianLaw) -> dict:
    """(estimate - oracle)/SE for mean, covariance and second moment."""
    if s.mean.size != law.d:
        raise ValueError(f"dimension mismatch: summary d={s.mean.size}, law d={law.d}")
    return {
        "mean": _safe_z(s.mean - law.mean, s.mean_se),
        "cov": _safe_z(s.cov - law.cov, s.cov_se),
        "second_moment": float(_safe_z(s.second_moment - law.second_moment, s.second_moment_se)),
    }
