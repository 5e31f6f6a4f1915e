import math

import numpy as np
import pytest

import racekit as rk
from racekit.errors import DoubleReleaseError, FrozenSketchError, InvalidParameterError
from racekit.privacy import laplace_inverse_cdf, laplace_noise_matrix


def test_budget_validation_and_single_use():
    with pytest.raises(InvalidParameterError):
        rk.PrivacyBudget(0.0)
    with pytest.raises(InvalidParameterError):
        rk.PrivacyBudget(-1.0)
    budget = rk.PrivacyBudget(1.0)
    budget.consume()
    with pytest.raises(DoubleReleaseError):
        budget.consume()


def test_laplace_median_maps_to_zero():
    assert laplace_inverse_cdf(0.5, 3.0) == 0.0


def test_laplace_sample_is_scale_homogeneous():
    u = np.array([0.123, 0.42, 0.77, 0.99])
    assert laplace_inverse_cdf(u, 2.0) == pytest.approx(2.0 * laplace_inverse_cdf(u, 1.0))


def test_laplace_sample_rejects_nonpositive_scale():
    with pytest.raises(InvalidParameterError):
        laplace_inverse_cdf(0.5, 0.0)
    with pytest.raises(InvalidParameterError):
        laplace_inverse_cdf(0.5, -2.0)


def test_laplace_extreme_uniform_stays_finite():
    assert np.isfinite(laplace_inverse_cdf(0.0, 1.0))


def test_laplace_moments():
    # Laplace(3): mean 0, mean absolute value 3
    rng = np.random.default_rng(123)
    samples = laplace_inverse_cdf(rng.random(1_000_000), 3.0)
    assert abs(samples.mean()) <= 3 * (math.sqrt(2) * 3.0) / 1e3
    assert abs(np.abs(samples).mean() - 3.0) <= 0.03


def _clean_sketch(rows=10, width=40, n=100, seed=0):
    fam = rk.new_family("srp", dim=2, depth=4, width=width, seed=seed)
    pts = np.random.default_rng(seed).standard_normal((n, 2))
    return rk.build(pts, fam, rows)


def test_privatize_vanishing_noise_at_huge_epsilon():
    sk = _clean_sketch(rows=10)
    released = rk.privatize(sk, rk.PrivacyBudget(1e9), rng_seed=7)
    # noise scale 1e-8: flooring moves each counter by at most 1
    assert np.abs(released.counts - sk.counts).max() <= 1
    assert released.privatized and released.epsilon == 1e9
    assert released.inserted is None


def test_privatize_leaves_input_untouched_and_consumes_budget():
    sk = _clean_sketch()
    before = sk.counts.copy()
    budget = rk.PrivacyBudget(1.0)
    rk.privatize(sk, budget, rng_seed=1)
    assert (sk.counts == before).all()
    assert not sk.privatized
    assert budget.consumed
    with pytest.raises(DoubleReleaseError):
        rk.privatize(sk, budget, rng_seed=2)


def test_privatize_rejects_already_private():
    sk = _clean_sketch()
    released = rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=1)
    with pytest.raises(FrozenSketchError):
        rk.privatize(released, rk.PrivacyBudget(1.0), rng_seed=2)


def test_privatize_is_deterministic_per_seed_and_matches_noise_matrix():
    sk = _clean_sketch(rows=20, width=30)
    a = rk.privatize(sk, rk.PrivacyBudget(0.5), rng_seed=99)
    b = rk.privatize(sk, rk.PrivacyBudget(0.5), rng_seed=99)
    c = rk.privatize(sk, rk.PrivacyBudget(0.5), rng_seed=100)
    assert a == b
    assert a != c
    noise = laplace_noise_matrix(20, 30, sk.rows / 0.5, seed=99)
    assert (a.counts == np.floor(sk.counts + noise)).all()
    # floor offset lies in (-1, 0]
    offset = a.counts - (sk.counts + noise)
    assert (offset <= 0).all() and (offset > -1).all()


def test_noise_scale_calibration():
    noise = laplace_noise_matrix(100, 2000, 100.0, seed=5)
    scale_hat = np.abs(noise).mean()
    assert abs(scale_hat - 100.0) / 100.0 <= 0.03


def test_privatize_refuses_inconsistent_rows():
    sk = _clean_sketch()
    sk.counts[0, 0] += 1  # break the row-sum invariant
    with pytest.raises(InvalidParameterError):
        rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=0)
