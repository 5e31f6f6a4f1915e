import math

import numpy as np
import pytest

import racekit as rk
from racekit import estimation
from racekit.errors import DoubleReleaseError, FrozenSketchError, InvalidParameterError
from racekit.privacy import MAX_NOISE_SCALE, laplace_noise_matrix


def test_budget_validation_and_single_use():
    with pytest.raises(InvalidParameterError):
        rk.PrivacyBudget(0.0)
    with pytest.raises(InvalidParameterError):
        rk.PrivacyBudget(-1.0)
    budget = rk.PrivacyBudget(1.0)
    budget.consume()
    with pytest.raises(DoubleReleaseError):
        budget.consume()


def test_laplace_sample_rejects_nonpositive_scale():
    for scale in (0.0, -2.0, math.nan, math.nextafter(MAX_NOISE_SCALE, math.inf)):
        with pytest.raises(InvalidParameterError):
            laplace_noise_matrix(2, 3, scale, seed=0)


def _discrete_laplace_variance(scale):
    alpha = math.exp(-1.0 / scale)
    return 2 * alpha / (1 - alpha) ** 2


def test_laplace_moments():
    # discrete Laplace: integer, mean 0, variance 2 alpha / (1 - alpha)^2
    for scale in (0.3, 3.0, 1e6):
        samples = laplace_noise_matrix(1000, 1000, scale, seed=123)
        var = _discrete_laplace_variance(scale)
        assert samples.dtype == np.int64
        assert abs(samples.mean()) <= 3 * math.sqrt(var / samples.size)
        assert abs(samples.var() / var - 1) <= 0.02


def test_laplace_pmf_is_two_sided_geometric():
    # P(k) = (1 - alpha) / (1 + alpha) * alpha^|k| at scale 1
    samples = laplace_noise_matrix(1000, 1000, 1.0, seed=8)
    alpha = math.exp(-1.0)
    for k in range(-4, 5):
        p = (1 - alpha) / (1 + alpha) * alpha ** abs(k)
        observed = float(np.mean(samples == k))
        assert abs(observed - p) <= 4 * math.sqrt(p * (1 - p) / samples.size)


def test_noise_at_the_scale_bound_is_exact_and_nonzero():
    noise = laplace_noise_matrix(50, 40, MAX_NOISE_SCALE, seed=3)
    assert noise.dtype == np.int64
    assert (noise != 0).mean() > 0.99
    assert np.abs(noise).max() < 2**53
    assert abs(np.abs(noise).mean() / MAX_NOISE_SCALE - 1) <= 0.1


def _clean_sketch(rows=10, width=40, n=100, seed=0):
    fam = rk.new_family("srp", dim=2, depth=4, width=width, seed=seed)
    pts = np.random.default_rng(seed).standard_normal((n, 2))
    return rk.build(pts, fam, rows)


def test_privatize_vanishing_noise_at_huge_epsilon():
    sk = _clean_sketch(rows=10)
    released = rk.privatize(sk, rk.PrivacyBudget(1e9), rng_seed=7)
    # noise scale 1e-8: alpha = exp(-1e8) rounds to 0, so every draw is 0
    assert (released.counts == sk.counts).all()
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
    # depth 4 codes reach columns 0-15 of 30; only those are drawn and moved
    live = sk.family.reachable_width
    assert live == 16
    noise = laplace_noise_matrix(20, live, sk.rows / 0.5, seed=99)
    assert noise.dtype == np.int64
    assert (a.counts[:, :live] == sk.counts[:, :live] + noise).all()
    assert (a.counts[:, live:] == 0).all()


def test_noise_scale_calibration():
    noise = laplace_noise_matrix(100, 2000, 100.0, seed=5)
    scale_hat = np.abs(noise).mean()
    assert abs(scale_hat - 100.0) / 100.0 <= 0.03


def test_privatize_refuses_inconsistent_rows():
    sk = _clean_sketch()
    sk.counts[0, 0] += 1  # break the row-sum invariant
    with pytest.raises(InvalidParameterError):
        rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=0)


def test_privatize_refuses_counts_in_unreachable_columns():
    # moving one record of row 0 to column 20, past the 16 a depth-4 code
    # reaches, keeps the row sums; released as is, that count would escape the
    # noise
    sk = _clean_sketch(width=40)
    sk.counts[0, int(np.argmax(sk.counts[0]))] -= 1
    sk.counts[0, 20] += 1
    assert sk.row_sums_consistent()
    budget = rk.PrivacyBudget(1.0)
    with pytest.raises(InvalidParameterError, match="refusing to release"):
        rk.privatize(sk, budget, rng_seed=0)
    assert not budget.consumed


@pytest.mark.parametrize("epsilon", [1e-300, "past-bound"])
def test_privatize_rejects_a_scale_past_the_bound(epsilon):
    sk = _clean_sketch(rows=10)
    if epsilon == "past-bound":
        epsilon = sk.rows / MAX_NOISE_SCALE / (1 + 1e-9)
    budget = rk.PrivacyBudget(epsilon)
    with pytest.raises(InvalidParameterError):
        rk.privatize(sk, budget, rng_seed=1)
    assert not budget.consumed
    # at the bound itself the release goes ahead and moves every reachable
    # counter; the unreachable ones stay exact zeros
    released = rk.privatize(sk, rk.PrivacyBudget(sk.rows / MAX_NOISE_SCALE), rng_seed=1)
    live = sk.family.reachable_width
    assert (released.counts[:, :live] != sk.counts[:, :live]).mean() > 0.99
    assert (released.counts[:, live:] == 0).all()


def test_released_n_hat_is_unbiased():
    # 300 seeded releases at R=1000, W=500, epsilon=1, every column reachable
    # (depth 12 codes are rebucketed): flooring the noise would bias n_hat by
    # -W/2 = -250, about four standard errors of the mean here
    fam = rk.new_family("srp", dim=3, depth=12, width=500, seed=1)
    assert fam.reachable_width == 500
    n = 5000
    sk = rk.build(np.random.default_rng(0).standard_normal((n, 3)), fam, 1000)
    errors = np.array([rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=s).n_hat - n
                       for s in range(300)])
    assert abs(errors.mean()) <= 3 * errors.std(ddof=1) / math.sqrt(errors.size)


def test_released_n_hat_variance_counts_only_reachable_columns():
    # N-hat sums R * live noise draws over R, so its variance is
    # R * live * 2 alpha / (1 - alpha)^2 / R^2. Over 1000 releases the sample
    # variance has a relative standard error of sqrt(2 / 999) = 0.045; the
    # tolerance, fixed before the run, is 0.15, more than three of them.
    rows, width, epsilon, releases, tolerance = 100, 500, 1.0, 1000, 0.15
    fam = rk.new_family("srp", dim=3, depth=4, width=width, seed=2)
    live = fam.reachable_width
    assert live == 16
    sk = rk.build(np.random.default_rng(4).standard_normal((300, 3)), fam, rows)
    n_hats = np.array([rk.privatize(sk, rk.PrivacyBudget(epsilon), rng_seed=s).n_hat
                       for s in range(releases)])
    per_counter = _discrete_laplace_variance(rows / epsilon)
    expected = rows * live * per_counter / rows**2
    assert abs(n_hats.var(ddof=1) / expected - 1) <= tolerance
    # noise on all W columns would give W / live = 31x the variance
    full_width = rows * width * per_counter / rows**2
    assert n_hats.var(ddof=1) * 20 <= full_width


def _moved_counters(family, rows, records):
    """Largest L1 change in the counters that inserting one record makes.

    Counting is linear, so inserting a record into any dataset changes the
    counters by exactly the sketch of that record alone.
    """
    return max(int(np.abs(rk.build(z[None], family, rows).counts).sum()) for z in records)


def _calibrated_sensitivity(released, inserted, epsilon):
    """Sensitivity the release's noise was drawn for, read off its row sums.

    Every clean row sums to ``inserted``, so each released row sum carries the
    sum of one noise draw per reachable column; their variance
    2 alpha / (1 - alpha)^2 gives the scale b by alpha = exp(-1 / b), and the
    sensitivity is b * epsilon.
    """
    variance = float(np.mean((released.counts.sum(axis=1) - inserted) ** 2)) \
        / released.family.reachable_width
    return epsilon / (2 * math.asinh(math.sqrt(0.5 / variance)))


_RELEASE_FAMILIES = {
    "srp": dict(kind="srp", dim=2, depth=4, width=64, seed=11),
    "srp-rebucketed": dict(kind="srp", dim=2, depth=12, width=50, seed=12),
    "euclidean": dict(kind="euclidean", dim=2, depth=3, width=40, bandwidth=0.75, seed=13),
    "regression-folded": None,  # the folded sketch fit_regression builds and releases
}


def _fit_regression_sketch(rows, epsilon):
    """The released sketch of a short fit_regression run, and the data it holds.

    x spans [-1, 1] and y = 2x, so the scaled records fit_regression inserts
    are exactly [x, x].
    """
    x = np.linspace(-1.0, 1.0, 64)
    model = rk.fit_regression(x[:, None], 2 * x, depth=4, rows=rows, width=32,
                              epsilon=epsilon, seed=5,
                              config=rk.OptimizerConfig(max_iters=1, restarts=0))
    return model.sketch, np.column_stack([x, x])


@pytest.mark.parametrize("kind", list(_RELEASE_FAMILIES))
def test_release_noise_matches_the_counters_one_record_moves(kind):
    params = _RELEASE_FAMILIES[kind]
    rows, epsilon = 2000, 1.0
    rng = np.random.default_rng(3)
    if params is None:
        released, records = _fit_regression_sketch(rows, epsilon)
        family, inserted = released.family, len(records)
        assert family.kind is rk.HashKind.FOLDED_SRP
    else:
        family = rk.new_family(**params)
        data = rng.standard_normal((200, 2))
        released = rk.privatize(rk.build(data, family, rows), rk.PrivacyBudget(epsilon),
                                rng_seed=21)
        inserted = len(data)
    moved = _moved_counters(family, rows, rng.uniform(-1, 1, (20, family.dim)))
    assert moved == rows
    sensitivity = _calibrated_sensitivity(released, inserted, epsilon)
    assert abs(sensitivity / moved - 1) <= 0.1


def test_regression_release_noise_matches_error_bound():
    # The noise term of error_bound is the variance 2R / eps^2 of a mean read's
    # noise. Over 300 releases, the sample variance has a relative standard
    # error near sqrt(2 / 299) = 0.08; a release at twice the scale gives 4x.
    rows, epsilon, releases, tolerance = 2000, 1.0, 300, 0.3
    released, records = _fit_regression_sketch(rows, epsilon)
    clean = rk.build(records, released.family, rows)
    q = np.array([[0.6, -1.0]])
    clean_read = estimation.estimate(clean, q, "mean").f_hat[0]
    noise = np.array([
        estimation.estimate(rk.privatize(clean, rk.PrivacyBudget(epsilon), rng_seed=s),
                            q, "mean").f_hat[0] - clean_read
        for s in range(releases)])
    bound_variance = 2 * rows / epsilon**2
    assert abs(noise.var() / bound_variance - 1) <= tolerance
