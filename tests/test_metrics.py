import math

import numpy as np
import pytest

from langevin_kl.gaussian_oracle import GaussianLaw
from langevin_kl.metrics import summarize, z_scores_vs_oracle


def test_summarize_identical_points():
    x = np.tile([1.0, -2.0], (100, 1))
    s = summarize(x)
    assert np.allclose(s.mean, [1.0, -2.0])
    assert np.all(s.cov == 0.0)
    assert s.second_moment == pytest.approx(5.0)


def test_summarize_requires_two_samples():
    with pytest.raises(ValueError, match=r"^sample count must be an integer >= 2, got 1$"):
        summarize(np.zeros((1, 3)))


def test_summarize_second_moment_is_the_mean_of_squared_norms():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 3)) + 1.0
    assert summarize(x).second_moment == np.mean(np.sum(x * x, 1))


def test_summarize_second_moment_is_unbiased_in_small_samples():
    """E|X|^2 = 2 for N(0, I_2); tr(cov) + |mean|^2 with the unbiased cov averages 2 + 2/5 over 5 draws."""
    rng = np.random.default_rng(8)
    estimates = np.array([summarize(rng.normal(size=(5, 2))).second_moment for _ in range(4000)])
    se = estimates.std(ddof=1) / math.sqrt(estimates.size)  # about 0.014
    assert abs(estimates.mean() - 2.0) <= 5.0 * se


def test_summarize_standard_normal_second_moment():
    rng = np.random.default_rng(1)
    d = 3
    s = summarize(rng.normal(size=(100_000, d)))
    assert abs(s.second_moment - d) <= 5.0 * s.second_moment_se


def test_summarize_permutation_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1000, 2))
    a = summarize(x)
    b = summarize(x[rng.permutation(1000)])
    assert np.allclose(a.mean, b.mean, atol=1e-12)
    assert np.allclose(a.cov, b.cov, atol=1e-12)
    assert a.second_moment == pytest.approx(b.second_moment, abs=1e-12)


def test_z_scores_calibrated_against_truth():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100_000, 2))
    law = GaussianLaw(np.zeros(2), np.eye(2))
    z = z_scores_vs_oracle(summarize(x), law)
    assert np.max(np.abs(z["mean"])) <= 5.0
    assert np.max(np.abs(z["cov"])) <= 5.0
    assert abs(z["second_moment"]) <= 5.0


def test_z_scores_detect_wrong_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10_000, 1))
    wrong = GaussianLaw(np.zeros(1), 2.0 * np.eye(1))
    z = z_scores_vs_oracle(summarize(x), wrong)
    assert abs(float(z["cov"][0, 0])) > 5.0
    assert abs(z["second_moment"]) > 5.0


def test_z_scores_defined_at_two_samples():
    z = z_scores_vs_oracle(summarize(np.array([[0.0], [1.0]])), GaussianLaw(np.zeros(1), np.eye(1)))
    assert math.isfinite(float(z["mean"][0]))
    assert math.isfinite(z["second_moment"])


def test_z_scores_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        z_scores_vs_oracle(
            summarize(np.zeros((10, 2)) + [[1.0, 2.0]]), GaussianLaw(np.zeros(3), np.eye(3))
        )


@pytest.mark.parametrize("samples", [np.zeros(5), np.zeros((2, 2, 2))], ids=["1-d", "3-d"])
def test_summarize_needs_an_n_by_d_sample(samples):
    with pytest.raises(ValueError, match=r"expected samples of shape \(n, d\)"):
        summarize(samples)


def test_summarize_stays_finite_far_from_the_origin():
    """Deviations near 1e77 square past float range; the moments are taken on the states scaled by a power of two."""
    s = summarize(np.array([[1e77], [2e77], [-3e77]]))
    assert np.isfinite(s.cov_se).all() and np.isfinite(s.mean_se).all()
    assert s.cov[0, 0] == pytest.approx(7e154, rel=1e-15)
    # scaling the states by 2^k scales each estimate exactly
    x = np.array([[1e77, -2e76], [2e77, 5e76], [-3e77, 1e76], [4e76, -7e76]])
    big, small = summarize(x), summarize(np.ldexp(x, -300))
    assert np.isfinite(big.cov_se).all() and big.cov_se.max() > 0
    assert np.array_equal(big.mean, np.ldexp(small.mean, 300))
    assert np.array_equal(big.cov, np.ldexp(small.cov, 600))
    assert np.array_equal(big.mean_se, np.ldexp(small.mean_se, 300))
    assert np.array_equal(big.cov_se, np.ldexp(small.cov_se, 600))
