import math
import tracemalloc

import numpy as np
import pytest

import racekit as rk
from racekit import estimation, privacy
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


def _one_shot_noise(rows, cols, scale, seed):
    """The whole (2, rows, cols) stream drawn at once, as blocks must reproduce it."""
    draws = np.random.Generator(np.random.Philox(key=seed)).standard_exponential(
        (2, rows, cols))
    draws = np.floor(draws * scale)
    return (draws[0] - draws[1]).astype(np.int64)


@pytest.mark.parametrize("budget,rows,cols", [
    (None, 100_000, 8),  # two blocks at the default budget: 65 536 rows, then the rest
    (7, 1, 1), (7, 13, 3), (7, 5, 40),  # 7 rows of 1, 2 rows of 3, 1 row of 40 (past it)
    (40, 13, 3), (40, 5, 40),
])
def test_noise_blocks_reproduce_the_one_shot_stream(monkeypatch, budget, rows, cols):
    if budget is not None:
        monkeypatch.setattr(privacy, "_DRAW_BUDGET", budget)
    for seed, scale in ((0, 0.5), (2**100 + 7, 1000.0), (5, MAX_NOISE_SCALE)):
        want = _one_shot_noise(rows, cols, scale, seed)
        got = laplace_noise_matrix(rows, cols, scale, seed)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_noise_memory_is_its_output_plus_one_block():
    # drawn at once, the (2, R, C) float64 stream and its int64 copy were 3x the output
    tracemalloc.start()
    try:
        noise = laplace_noise_matrix(100_000, 8, 1000.0, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = privacy._DRAW_BUDGET * np.dtype(np.float64).itemsize
    assert peak <= noise.nbytes + block + 2**18  # and the ufunc casting buffers


def test_noise_added_in_place_is_the_noise_matrix_added():
    table = np.random.default_rng(4).integers(-50, 50, (30, 12))
    want = table[:, :5] + laplace_noise_matrix(30, 5, 7.5, seed=9)
    view = table[:, :5]  # strided, as a release's reachable columns are
    assert laplace_noise_matrix(30, 5, 7.5, seed=9, add_to=view) is view
    assert np.array_equal(table[:, :5], want)
    for wrong in (np.zeros((30, 4), np.int64), np.zeros((30, 5))):
        with pytest.raises(InvalidParameterError):
            laplace_noise_matrix(30, 5, 7.5, seed=9, add_to=wrong)


def test_release_in_place_memory_is_one_draw_block():
    # a copy of the table plus a whole noise matrix peaked at 34.6 MiB here
    family = rk.new_family("folded-srp", dim=2, depth=4, width=32, seed=1)
    clean = rk.RaceSketch(np.zeros((100_000, 32), np.int64), family)
    table = clean.counts
    tracemalloc.start()
    try:
        released = privacy._release(clean, rk.PrivacyBudget(1.0), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert released.counts is table and released.privatized
    block = privacy._DRAW_BUDGET * np.dtype(np.float64).itemsize
    assert peak <= block + 2**18  # and the ufunc casting buffers
    want = rk.privatize(rk.RaceSketch(np.zeros_like(table), family), rk.PrivacyBudget(1.0),
                        rng_seed=3)
    assert released == want


def _clean_sketch(rows=10, width=40, n=100, seed=0):
    fam = rk.new_family("srp", dim=2, depth=4, width=width, seed=seed)
    pts = np.random.default_rng(seed).standard_normal((n, 2))
    return rk.build(pts, fam, rows)


def _full_width(sk):
    """``sk`` with its table widened to all ``width`` columns, the new ones 0."""
    table = np.zeros((sk.rows, sk.width), np.int64)
    table[:, :sk.counts.shape[1]] = sk.counts
    return rk.RaceSketch(table, sk.family, inserted=sk.inserted)


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
    assert a.counts.shape == sk.counts.shape == (20, live)
    assert (a.counts == sk.counts + noise).all()
    # a full-width input is released as the same table, its other columns 0
    assert rk.privatize(_full_width(sk), rk.PrivacyBudget(0.5), rng_seed=99) == a
    written = np.frombuffer(rk.serialize(a), "<i8", offset=48).reshape(20, 30)
    assert (written[:, :live] == a.counts).all() and (written[:, live:] == 0).all()


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
    # noise. A built table holds only the 16, so the count goes into a
    # full-width one
    sk = _full_width(_clean_sketch(width=40))
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
    assert released.counts.shape == sk.counts.shape == (10, live)
    assert (released.counts != sk.counts).mean() > 0.99


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
