import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import racekit as rk
from racekit import estimation, oracle
from racekit.errors import InsufficientRowsError, InvalidParameterError

# ceil(8 ln(1/delta)) == 2 at this delta, giving two median-of-means groups
DELTA_TWO_GROUPS = 0.78


def _point_mass_sketch(n=50, rows=16):
    fam = rk.new_family("srp", dim=2, depth=3, width=16, seed=4)
    pts = np.tile([0.8, -0.4], (n, 1))
    return rk.build(pts, fam, rows), np.array([0.8, -0.4])


def test_mean_estimate_point_mass():
    sk, x = _point_mass_sketch(n=50)
    est = rk.estimate(sk, x[None, :], "mean")
    assert isinstance(est, rk.Estimate)
    assert est.f_hat.tolist() == [50.0]
    assert sk.n_hat == 50.0
    assert est.kde.tolist() == [1.0]
    assert est.reads.shape == (16, 1) and (est.reads == 50).all()


def test_mean_estimate_empty_sketch():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, seed=0)
    sk = rk.build(np.zeros((0, 2)), fam, rows=6)
    est = rk.estimate(sk, np.array([[1.0, 1.0]]), "mean")
    assert est.f_hat[0] == 0.0 and sk.n_hat == 0.0 and est.kde[0] == 0.0


def test_query_dimension_mismatch():
    sk, _ = _point_mass_sketch()
    with pytest.raises(rk.DimensionMismatchError):
        rk.estimate(sk, np.zeros((1, 3)), "mean")
    with pytest.raises(rk.DimensionMismatchError):
        rk.query_median_of_means(sk, np.zeros(3))


def test_n_hat_equals_inserted_on_clean_sketch():
    rng = np.random.default_rng(12)
    fam = rk.new_family("euclidean", dim=3, depth=2, width=32, bandwidth=0.7, seed=2)
    sk = rk.build(rng.standard_normal((321, 3)), fam, rows=9)
    assert sk.n_hat == 321.0


def test_n_hat_is_refreshed_by_add():
    sk, x = _point_mass_sketch(n=50)
    assert sk.n_hat == 50.0
    sk.add(x)
    assert sk.n_hat == 51.0
    f_hat = rk.estimate(sk, x[None, :], "mean").f_hat
    assert estimation.density(sk, f_hat).tolist() == [1.0]  # 51 / 51, not 51 / 50


def test_mom_group_count():
    assert estimation.mom_group_count(0.1) == 19
    assert estimation.mom_group_count(DELTA_TWO_GROUPS) == 2
    with pytest.raises(InvalidParameterError):
        estimation.mom_group_count(0.0)
    with pytest.raises(InvalidParameterError):
        estimation.mom_group_count(1.0)


def test_mom_forced_even_group_arithmetic():
    # two groups of four: means (0, 4), median by central-pair average = 2
    values = np.array([0, 0, 0, 0, 4, 4, 4, 4], dtype=float)[:, None]
    out = estimation._mom_aggregate(values, DELTA_TWO_GROUPS)
    assert out[0] == 2.0


def test_mom_ignores_surplus_rows():
    # k = 2, m = 4: the ninth row must not contribute
    values = np.array([0, 0, 0, 0, 4, 4, 4, 4, 1000], dtype=float)[:, None]
    out = estimation._mom_aggregate(values, DELTA_TWO_GROUPS)
    assert out[0] == 2.0


def test_mom_equal_rows_give_exact_value():
    sk, x = _point_mass_sketch(n=7, rows=24)
    est = rk.query_median_of_means(sk, x, delta=0.1)
    assert est.f_hat == 7.0 and est.kde == 1.0
    assert est.reads.shape == (24,)


def test_mom_insufficient_rows():
    sk, x = _point_mass_sketch(rows=8)
    with pytest.raises(InsufficientRowsError):
        rk.query_median_of_means(sk, x, delta=0.1)  # needs k = 19 rows


def test_mean_and_mom_agree_on_equal_reads():
    sk, x = _point_mass_sketch(n=13, rows=40)
    assert rk.estimate(sk, x[None, :], "mean").f_hat[0] \
        == rk.query_median_of_means(sk, x, 0.1).f_hat


@settings(max_examples=50, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(19, 64))
def test_mom_of_constant_rows_is_that_constant(value, rows):
    # counter reads are integers; equal rows must reproduce the value exactly
    values = np.full((rows, 1), value, dtype=np.int64)
    assert estimation._mom_aggregate(values, 0.1)[0] == value


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.1, 0.05]), st.integers(1, 6), st.data())
def test_mom_aggregate_equals_median_of_group_means(delta, m, data):
    # k = 19 (odd) at delta 0.1 and 24 (even) at 0.05; rows are never a multiple of k
    k = estimation.mom_group_count(delta)
    rows = k * m + data.draw(st.integers(1, k - 1))
    n = data.draw(st.sampled_from([0, 1, 7]))
    values = data.draw(hnp.arrays(np.int64, (rows, n),
                                  elements=st.integers(-2**62, 2**62)))
    want = np.median(values[:k * m].reshape(k, m, n).mean(axis=1), axis=0)
    got = estimation._mom_aggregate(values, delta)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_GATHER_FAMILIES = [
    dict(kind="srp", depth=4, width=64),
    dict(kind="srp", depth=12, width=50),
    dict(kind="folded-srp", depth=4, width=64),
    dict(kind="euclidean", depth=3, width=97, bandwidth=0.5),
]


@pytest.mark.parametrize("n", [0, 1, 3, 40])
@pytest.mark.parametrize("kwargs", _GATHER_FAMILIES, ids=lambda kw: f"{kw['kind']}-{kw['depth']}")
def test_gather_equals_fancy_indexing_in_small_blocks(monkeypatch, kwargs, n):
    fam = rk.new_family(dim=3, seed=6, **kwargs)
    rng = np.random.default_rng(n)
    sk = rk.privatize(rk.build(rng.standard_normal((300, 3)), fam, 30),
                      rk.PrivacyBudget(1.0), rng_seed=2)  # released: negative reads too
    queries = rng.standard_normal((n, 3))
    buckets = rk.hash_batch(fam, sk.rows, queries)
    want = sk.counts[np.arange(sk.rows)[:, None], buckets]
    monkeypatch.setattr(rk.sketch, "_INDEX_BUDGET", 5)  # a few indices per block
    got = estimation._gather(sk, queries)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("kwargs", _GATHER_FAMILIES, ids=lambda kw: f"{kw['kind']}-{kw['depth']}")
def test_single_queries_equal_their_batch_entries(kwargs):
    fam = rk.new_family(dim=3, seed=9, **kwargs)
    rng = np.random.default_rng(5)
    sk = rk.privatize(rk.build(rng.standard_normal((400, 3)), fam, 48),
                      rk.PrivacyBudget(1.0), rng_seed=3)  # released: negative reads too
    queries = rng.standard_normal((25, 3))
    for delta in (0.1, 0.05):  # k = 19 (odd) and 24 (even) groups
        batch = estimation.estimate(sk, queries, "median_of_means", delta)
        singles = [rk.query_median_of_means(sk, q, delta) for q in queries]
        for many in (singles, estimation.query_many(sk, queries, "median_of_means", delta)):
            assert len(many) == len(queries)
            for i, est in enumerate(many):
                assert est.f_hat == batch.f_hat[i] and est.kde == batch.kde[i]
                assert np.array_equal(est.reads, batch.reads[:, i])
    batch = estimation.estimate(sk, queries, "mean")
    singles = [estimation.estimate(sk, q, "mean") for q in queries]
    for i, (est, one) in enumerate(zip(estimation.query_many(sk, queries, "mean"), singles)):
        assert est.f_hat == one.f_hat[0] == batch.f_hat[i]
        assert est.kde == one.kde[0] == batch.kde[i]
        assert np.array_equal(est.reads, batch.reads[:, i])
        assert np.array_equal(one.reads[:, 0], batch.reads[:, i])


def test_gather_memory_is_its_output_plus_one_block(monkeypatch):
    # a 10k-query batch at R=1000: one flat index for it all would be 80 MB
    fam = rk.new_family("srp", dim=10, depth=4, width=500, seed=3)
    sk = rk.build(np.random.default_rng(0).standard_normal((100, 10)), fam, 1000)
    queries = np.random.default_rng(1).standard_normal((10_000, 10))
    buckets = rk.hash_batch(fam, sk.rows, queries)
    monkeypatch.setattr(estimation.lsh, "hash_batch", lambda *args: buckets)
    tracemalloc.start()
    try:
        reads = estimation._gather(sk, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = rk.sketch._INDEX_BUDGET * np.dtype(np.intp).itemsize
    assert reads.nbytes == 1000 * 10_000 * 8
    assert peak <= reads.nbytes + block + 2**20


def test_estimate_of_no_queries_is_empty():
    sk, _ = _point_mass_sketch(rows=40)
    for estimator in ("mean", "median_of_means"):
        est = estimation.estimate(sk, np.zeros((0, 0)), estimator)
        assert est.f_hat.shape == est.kde.shape == (0,) and est.reads.shape == (40, 0)
        assert estimation.query_many(sk, np.zeros((0, 0)), estimator) == []


def test_query_works_on_private_sketch():
    rng = np.random.default_rng(3)
    fam = rk.new_family("srp", dim=2, depth=4, width=64, seed=8)
    clean = rk.build(rng.standard_normal((500, 2)), fam, rows=100)
    private = rk.privatize(clean, rk.PrivacyBudget(5.0), rng_seed=0)
    est = rk.query_median_of_means(private, rng.standard_normal(2), delta=0.1)
    assert math.isfinite(est.f_hat)
    assert est.kde >= 0.0  # clamped even if the raw estimate dips negative


def test_kde_clamps_negative_estimates():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, seed=0)
    counts = np.full((20, 8), -50, dtype=np.int64)
    sk = rk.RaceSketch(counts, fam, privatized=True, epsilon=0.1)
    est = rk.estimate(sk, np.array([[1.0, 0.0]]), "mean")
    assert est.f_hat[0] == -50.0
    assert sk.n_hat < 0
    assert est.kde[0] == 0.0  # negative f_hat clamps, negative n_hat floors at 1


def test_error_bound_zero_data_term():
    for rows, eps, delta in [(10, 1.0, 0.1), (500, 0.2, 0.01)]:
        expected = math.sqrt(2 * rows / eps**2 * 32 * math.log(1 / delta))
        assert rk.error_bound(0.0, rows, eps, delta) == pytest.approx(expected)


def test_error_bound_validation():
    with pytest.raises(InvalidParameterError):
        rk.error_bound(-1.0, 10, 1.0, 0.1)
    with pytest.raises(InvalidParameterError):
        rk.error_bound(1.0, 0, 1.0, 0.1)
    with pytest.raises(InvalidParameterError):
        rk.error_bound(1.0, 10, 0.0, 0.1)
    with pytest.raises(InvalidParameterError):
        rk.error_bound(1.0, 10, 1.0, 1.5)


def test_error_bound_at_optimal_rows_under_closed_form():
    # at R = f_tilde * eps / sqrt(2) the bound collapses under 16 sqrt(f_tilde/eps ln(1/delta))
    rng = np.random.default_rng(31)
    for _ in range(10):
        f_tilde = float(rng.uniform(10, 5000))
        eps = float(rng.uniform(0.05, 5.0))
        delta = float(rng.uniform(0.01, 0.5))
        rows = rk.optimal_rows(f_tilde, eps)
        bound = rk.error_bound(f_tilde, rows, eps, delta)
        closed = 16.0 * math.sqrt(f_tilde / eps * math.log(1 / delta))
        assert bound <= closed * (1 + 1e-9)


def test_error_bound_cross_checked_against_reference():
    assert rk.error_bound(1000.0, 71, 0.1, 0.1) == pytest.approx(
        oracle.error_bound_reference(1000.0, 71, 0.1, 0.1), rel=1e-9)


def test_error_bound_monotone_in_delta_and_unimodal_in_rows():
    bounds = [rk.error_bound(100.0, 50, 1.0, d) for d in (0.01, 0.05, 0.1, 0.3, 0.9)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))

    f_tilde, eps = 400.0, 1.0
    grid = np.arange(1, 2000)
    values = np.array([rk.error_bound(f_tilde, int(r), eps, 0.1) for r in grid])
    best = int(grid[np.argmin(values)])
    assert abs(best - f_tilde * eps / math.sqrt(2)) <= 1.0
    # single minimum: decreasing then increasing
    drops = np.flatnonzero(np.diff(values) > 0)
    assert drops.size == 0 or (np.diff(values)[drops.min():] > 0).all()


def test_optimal_rows_values():
    assert rk.optimal_rows(1000.0, 0.1) == 71
    assert rk.optimal_rows(math.sqrt(2), 1.0) == 1
    assert rk.optimal_rows(1.0, 1e-9) == 1  # clamped
    with pytest.raises(InvalidParameterError):
        rk.optimal_rows(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        rk.optimal_rows(10.0, 0.0)


def test_f_tilde_closed_forms():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, seed=0)
    q = np.array([1.0, 0.0])
    assert rk.f_tilde(np.tile(q, (9, 1)), q, fam) == pytest.approx(9.0)
    # single orthogonal point, depth 2: sqrt(0.25)
    assert rk.f_tilde(np.array([[0.0, 1.0]]), q, fam) == pytest.approx(0.5)


def test_f_tilde_bounds_kernel_sum_and_n():
    rng = np.random.default_rng(44)
    fam = rk.new_family("srp", dim=3, depth=4, width=32, seed=1)
    pts = rng.standard_normal((100, 3))
    q = rng.standard_normal(3)
    ft = rk.f_tilde(pts, q, fam)
    fd = oracle.exact_kernel_sum(pts, q, fam).value
    assert fd <= ft <= 100.0


def test_single_row_estimates_are_unbiased_with_bounded_variance():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((300, 2))
    q = rng.standard_normal(2)
    fam = rk.new_family("srp", dim=2, depth=4, width=64, seed=20)
    rows = 3000
    sk = rk.build(pts, fam, rows)
    values = estimation._gather(sk, q[None, :])[:, 0].astype(float)
    fd = oracle.exact_kernel_sum(pts, q, fam).value
    ft = rk.f_tilde(pts, q, fam)
    # mean of the per-row estimators concentrates on the exact kernel sum
    assert abs(values.mean() - fd) <= 3 * ft / math.sqrt(rows)
    assert values.var() <= ft**2
