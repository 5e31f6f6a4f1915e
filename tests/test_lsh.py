import math
import tracemalloc

import numpy as np
import pytest

import racekit as rk
from racekit import estimation, lsh, oracle
from racekit.errors import DimensionMismatchError, InvalidParameterError, ZeroVectorError

# Single-hash 2-stable collision probability at bandwidth 0.5, distance 0.5,
# frozen from the closed form and confirmed by Monte Carlo below.
PSTABLE_HALF = 0.3687463803725072


def test_new_family_smoke():
    fam = rk.new_family("srp", dim=2, depth=1, width=2, seed=7)
    assert fam.kind is rk.HashKind.SRP
    # one sign bit covers the two buckets exactly
    assert 2 ** fam.depth == fam.width

    fam = rk.new_family("euclidean", dim=3, depth=2, width=100, bandwidth=0.5, seed=1)
    assert fam.bandwidth == 0.5


@pytest.mark.parametrize("kwargs", [
    dict(kind="srp", dim=0, depth=1, width=2),
    dict(kind="srp", dim=2, depth=0, width=2),
    dict(kind="srp", dim=2, depth=1, width=1),
    dict(kind="srp", dim=2, depth=1, width=2**32),               # header stores u32
    dict(kind="euclidean", dim=2, depth=1, width=4),              # missing bandwidth
    dict(kind="euclidean", dim=2, depth=1, width=4, bandwidth=0.0),
    dict(kind="euclidean", dim=2, depth=1, width=4, bandwidth=-1.0),
    dict(kind="srp", dim=2, depth=1, width=4, seed=-1),
])
def test_new_family_rejects_bad_parameters(kwargs):
    with pytest.raises(InvalidParameterError):
        rk.new_family(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    (dict(kind="bogus", dim=2, depth=1, width=4), "kind"),
    (dict(kind=None, dim=2, depth=1, width=4), "kind"),
    (dict(kind="srp", dim=2.5, depth=1, width=4), "dim"),
    (dict(kind="srp", dim=2, depth=4.0, width=16), "depth"),
    (dict(kind="srp", dim=2, depth=1, width="4"), "width"),
    (dict(kind="srp", dim=2, depth=1, width=4, seed=1.5), "seed"),
    (dict(kind="euclidean", dim=2, depth=1, width=4, bandwidth="0.5"), "bandwidth"),
], ids=["unknown-kind", "no-kind", "float-dim", "float-depth", "str-width", "float-seed",
        "str-bandwidth"])
def test_family_fields_of_the_wrong_type_are_invalid_parameters(kwargs, message):
    with pytest.raises(InvalidParameterError, match=message) as err:
        rk.LshFamily(**kwargs)
    assert err.value.exit_code == 2


def test_new_family_is_the_family_class():
    assert rk.new_family is rk.LshFamily
    fam = rk.new_family("folded-srp", 3, 4, 16, None, np.uint64(7))
    assert fam == rk.LshFamily(rk.HashKind.FOLDED_SRP, dim=3, depth=4, width=16, seed=7)
    assert type(fam.seed) is int  # numpy integers are stored as Python ints


def test_srp_bandwidth_is_dropped():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, bandwidth=3.0, seed=0)
    assert fam.bandwidth is None


def _forced_params(proj_rows):
    proj = np.asarray(proj_rows, dtype=np.float64)
    rows = proj.shape[0]
    return lsh._RowParams(proj=proj, offsets=None,
                          mix_a=np.ones((rows, 1), dtype=np.uint64),
                          mix_b=np.zeros(rows, dtype=np.uint64))


def test_srp_single_bit_with_forced_projection(monkeypatch):
    fam = rk.new_family("srp", dim=2, depth=1, width=2, seed=7)
    monkeypatch.setattr(lsh, "_row_params", lambda f, rows: _forced_params([[1.0, 0.0]]))
    pts = [[3.0, 0.0], [-3.0, 1.0], [0.0, 0.0]]
    # sign(0) counts as positive so the streaming path never fails
    assert rk.hash_batch(fam, 1, pts)[0].tolist() == [1, 0, 1]


def test_srp_scale_invariance():
    fam = rk.new_family("srp", dim=3, depth=4, width=50, seed=5)
    x = np.array([0.3, -1.2, 0.7])
    a = rk.hash_batch(fam, 200, x[None, :])
    b = rk.hash_batch(fam, 200, (2.0 * x)[None, :])
    assert (a == b).all()


def test_euclidean_identical_points_always_collide():
    fam = rk.new_family("euclidean", dim=4, depth=3, width=64, bandwidth=0.7, seed=9)
    x = np.array([0.1, 0.2, -0.3, 0.4])
    a = rk.hash_batch(fam, 500, x[None, :])
    b = rk.hash_batch(fam, 500, x.copy()[None, :])
    assert (a == b).all()


@pytest.mark.parametrize("kind,kwargs", [
    ("srp", {}),
    ("euclidean", {"bandwidth": 0.5}),
])
def test_buckets_in_range_and_deterministic(kind, kwargs):
    fam = rk.new_family(kind, dim=3, depth=5, width=17, seed=123, **kwargs)
    pts = np.random.default_rng(0).standard_normal((50, 3))
    buckets = rk.hash_batch(fam, 300, pts)
    assert buckets.min() >= 0 and buckets.max() < fam.width
    again = rk.hash_batch(rk.new_family(kind, dim=3, depth=5, width=17, seed=123,
                                        **kwargs), 300, pts)
    assert (buckets == again).all()


def test_hash_point_agrees_with_any_batch_size():
    for kind, kwargs in [("srp", {}), ("euclidean", {"bandwidth": 0.4})]:
        for depth in (1, 4, 8):
            fam = rk.new_family(kind, dim=2, depth=depth, width=50, seed=11, **kwargs)
            x = np.array([1.0, 0.3])
            big = rk.hash_batch(fam, 120, x[None, :])[:, 0]
            assert all(rk.hash_batch(fam, r + 1, x[None, :])[r, 0] == big[r]
                       for r in range(120))


def test_rows_use_distinct_parameters():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, seed=1)
    params = lsh._row_params(fam, 10)
    flat = params.proj.reshape(10, -1)
    assert len({tuple(row) for row in map(tuple, flat)}) == 10


@pytest.mark.parametrize("budget", [None, 7])
def test_row_parameters_are_the_one_shot_draws(monkeypatch, budget):
    # projections are drawn in tiles straight into their column-major array
    if budget is not None:
        monkeypatch.setattr(lsh, "_TILE_BUDGET", budget)  # 2 rows of dim 3 a tile
    for kind, width, kwargs in (("srp", 8, {}), ("srp", 50, {}),
                                ("euclidean", 8, {"bandwidth": 0.5})):
        fam = rk.new_family(kind, dim=3, depth=4, width=width, seed=31, **kwargs)
        lsh._row_params.cache_clear()
        params = lsh._row_params(fam, 25)
        lsh._row_params.cache_clear()
        want = np.random.default_rng([31, lsh._PROJ_TAG]).standard_normal((100, 3))
        assert params.proj.flags.f_contiguous and not params.proj.flags.writeable
        assert np.array_equal(params.proj, want)
        if fam._plan.direct:
            assert params.mix_a is None and params.mix_b is None
            continue
        mix = np.random.default_rng([31, lsh._MIX_TAG]).integers(
            1, int(lsh._MIX_PRIME), size=(25, 5)).astype(np.uint64)
        assert np.array_equal(params.mix_a, mix[:, :4])
        assert np.array_equal(params.mix_b, mix[:, 4])


def test_dimension_mismatch():
    fam = rk.new_family("srp", dim=3, depth=2, width=8, seed=1)
    with pytest.raises(DimensionMismatchError):
        rk.hash_batch(fam, 10, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatchError):
        rk.kernel_values(fam, np.zeros((1, 3)), np.zeros(2))


def test_collision_probability_srp_closed_forms():
    fam = rk.new_family("srp", dim=2, depth=1, width=2, seed=0)
    assert rk.kernel_values(fam, [[1.0, 0.0]], [0.0, 1.0])[0] == pytest.approx(0.5)
    fam4 = rk.new_family("srp", dim=2, depth=4, width=16, seed=0)
    assert rk.kernel_values(fam4, [[0.4, -0.2]], [0.4, -0.2])[0] == pytest.approx(1.0)
    # opposite direction never collides
    assert rk.kernel_values(fam4, [[1.0, 0.0]], [-1.0, 0.0])[0] == pytest.approx(0.0)


def test_collision_probability_rejects_zero_vectors():
    fam = rk.new_family("srp", dim=2, depth=1, width=2, seed=0)
    with pytest.raises(ZeroVectorError):
        rk.kernel_values(fam, [[0.0, 0.0]], [1.0, 0.0])
    with pytest.raises(ZeroVectorError):
        rk.kernel_values(fam, [[1.0, 0.0]], [0.0, 0.0])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_euclidean_distance_that_overflows_never_collides():
    # 1e200 squared overflows float64, so this point's distance to q is inf
    fam = rk.new_family("euclidean", dim=2, depth=3, width=40, bandwidth=0.75, seed=1)
    finite = np.random.default_rng(5).standard_normal((20, 2))
    pts = np.insert(finite, 7, [1e200, 1e200], axis=0)
    got = rk.kernel_values(fam, pts, [0.0, 0.0])
    assert got[7] == 0.0
    assert np.array_equal(np.delete(got, 7), rk.kernel_values(fam, finite, [0.0, 0.0]))
    assert oracle.exact_kernel_sum(pts, [0.0, 0.0], fam).value == got.sum()
    assert math.isfinite(rk.f_tilde(pts, [0.0, 0.0], fam))


def test_pstable_collision_matches_the_normal_cdf_form():
    ndtr = pytest.importorskip("scipy.special").ndtr
    rng = np.random.default_rng(0)
    dist = np.concatenate([[0.0, 1e-9, 1e3], rng.exponential(1.0, 20000),
                           rng.exponential(1e-2, 2000), rng.exponential(1e2, 2000)])
    for bandwidth in (0.01, 0.5, 1.0, 3.0, 100.0):
        got = lsh._pstable_single_collision(dist, bandwidth)
        r = bandwidth / dist[1:]
        want = np.concatenate([[1.0], 2.0 * ndtr(r) - 1.0
                               - 2.0 * dist[1:] / (bandwidth * math.sqrt(2.0 * math.pi))
                               * (1.0 - np.exp(-0.5 * r * r))])
        assert np.max(np.abs(got - want)) <= 1e-15


def test_pstable_collision_matches_monte_carlo():
    fam = rk.new_family("euclidean", dim=3, depth=1, width=100, bandwidth=0.5, seed=1)
    x = np.zeros(3)
    y = np.array([0.5, 0.0, 0.0])
    analytic = rk.kernel_values(fam, [x], y)[0]
    assert analytic == pytest.approx(PSTABLE_HALF, abs=1e-12)
    mc = oracle.monte_carlo_collision(fam, x, y, trials=100_000, seed=21)
    assert abs(analytic - mc.value) <= 0.01


def test_srp_collision_scale_invariant():
    fam = rk.new_family("srp", dim=3, depth=3, width=8, seed=0)
    x = np.array([0.7, -0.1, 0.4])
    y = np.array([-0.3, 0.9, 0.2])
    base = rk.kernel_values(fam, [x], y)[0]
    assert rk.kernel_values(fam, [5.0 * x], y)[0] == pytest.approx(base)
    assert rk.kernel_values(fam, [x], 0.01 * y)[0] == pytest.approx(base)


@pytest.mark.parametrize("kind,kwargs", [
    ("srp", {}),
    ("euclidean", {"bandwidth": 0.8}),
    ("folded-srp", {}),
])
def test_self_collision_is_one(kind, kwargs):
    fam = rk.new_family(kind, dim=4, depth=3, width=32, seed=2, **kwargs)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.standard_normal(4)
        assert rk.kernel_values(fam, [x], x)[0] == pytest.approx(1.0)


def test_kernel_monotone_in_angle_and_distance():
    srp = rk.new_family("srp", dim=2, depth=3, width=8, seed=0)
    angles = np.linspace(0.0, math.pi, 25)
    vals = rk.kernel_values(srp, np.column_stack([np.cos(angles), np.sin(angles)]),
                            [1.0, 0.0])
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    euc = rk.new_family("euclidean", dim=3, depth=2, width=64, bandwidth=0.5, seed=0)
    dists = np.linspace(0.0, 3.0, 25)
    points = np.column_stack([dists, np.zeros(25), np.zeros(25)])
    vals = rk.kernel_values(euc, points, np.zeros(3))
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("kind,depth,width,kwargs", [
    ("srp", 4, 50, {}),                     # identity bucketing, no allowance
    ("srp", 8, 50, {}),                     # 2^8 codes squeezed into 50 buckets
    ("euclidean", 2, 100, {"bandwidth": 0.5}),
    ("folded-srp", 4, 50, {}),              # folded codes stand for c and ~c
    ("folded-srp", 8, 50, {}),
])
def test_empirical_collision_matches_kernel_plus_allowance(kind, depth, width, kwargs):
    fam = rk.new_family(kind, dim=3, depth=depth, width=width, seed=13, **kwargs)
    x = np.array([0.1, 0.25, -0.2])
    y = x + np.array([0.18, -0.1, 0.12])
    k = rk.kernel_values(fam, [x], y)[0]
    rows = 10_000
    bx = rk.hash_batch(fam, rows, x[None, :])[:, 0]
    by = rk.hash_batch(fam, rows, y[None, :])[:, 0]
    observed = float((bx == by).mean())
    upper = k + (1.0 - k) / width
    sigma = math.sqrt(max(upper * (1 - upper), k * (1 - k)) / rows)
    assert k - 3 * sigma <= observed <= upper + 3 * sigma


def test_rebucket_allowance_values():
    identity = rk.new_family("srp", dim=2, depth=4, width=16, seed=0)
    assert rk.rebucket_allowance(identity, 1000) == 0.0
    squeezed = rk.new_family("srp", dim=2, depth=8, width=16, seed=0)
    assert rk.rebucket_allowance(squeezed, 1000) == pytest.approx(1000 / 16)
    euc = rk.new_family("euclidean", dim=2, depth=1, width=50, bandwidth=1.0, seed=0)
    assert rk.rebucket_allowance(euc, 500) == pytest.approx(10.0)


_BLOCK_FAMILIES = {
    "srp-direct": dict(kind="srp", depth=4, width=64),
    "srp-depth12": dict(kind="srp", depth=12, width=50),
    "srp-depth62": dict(kind="srp", depth=62, width=50),
    "folded-depth62": dict(kind="folded-srp", depth=62, width=50),
    "euclidean": dict(kind="euclidean", depth=3, width=97, bandwidth=0.5),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_FAMILIES))
def test_hash_batch_blocks_match_one_block(monkeypatch, name):
    fam = rk.new_family(dim=3, seed=21, **_BLOCK_FAMILIES[name])
    pts = np.random.default_rng(4).standard_normal((40, 3)) * 2
    whole = rk.hash_batch(fam, 30, pts)  # 30 rows fit one block at the default budget
    # 7 rows per block: 30 rows run as blocks of 7, 7, 7, 7 and a ragged 2; an
    # angular block projects in tiles of 3, 3 and 1 rows, a euclidean block is a tile
    unit = fam.depth * len(pts)
    monkeypatch.setattr(lsh, "_BLOCK_BUDGET", 7 * unit)
    monkeypatch.setattr(lsh, "_TILE_BUDGET", (3 if fam.kind.angular else 7) * unit)
    blocked = rk.hash_batch(fam, 30, pts)
    assert blocked.dtype == whole.dtype
    assert np.array_equal(blocked, whole)


def _one_row_blocks(monkeypatch):
    """One row per hash block and per tile, for a batch and for one point's gemv."""
    monkeypatch.setattr(lsh, "_BLOCK_BUDGET", 1)
    monkeypatch.setattr(lsh, "_TILE_BUDGET", 1)


def _assert_single_points_match_batch(fam, rows, pts):
    batch = rk.hash_batch(fam, rows, pts)
    for i in range(len(pts)):
        single = rk.hash_batch(fam, rows, pts[i:i + 1])
        assert single.shape == (rows, 1) and single.dtype == batch.dtype
        assert np.array_equal(single[:, 0], batch[:, i]), (fam, rows, i)


@pytest.mark.parametrize("one_row_blocks", [False, True])
@pytest.mark.parametrize("kind", ["srp", "folded-srp", "euclidean"])
def test_single_point_equals_its_batch_column(monkeypatch, kind, one_row_blocks):
    if one_row_blocks:
        _one_row_blocks(monkeypatch)
    kwargs = {"bandwidth": 0.7} if kind == "euclidean" else {}
    pts = np.random.default_rng(12).standard_normal((4, 3)) * 2
    for depth in (*range(1, 10), 12, 62):
        # direct (2**depth <= width) and rebucketed codes; multiply-shift at 2, 4, 8
        for width in (2, 16, 500, 2**32 - 1):
            # a thousand one-row blocks per call would make this test slow, not stronger
            for rows in (1, 7, 100 if one_row_blocks else 1000):
                fam = rk.new_family(kind, dim=3, depth=depth, width=width,
                                    seed=depth, **kwargs)
                _assert_single_points_match_batch(fam, rows, pts)


@pytest.mark.parametrize("kind", ["srp", "folded-srp", "euclidean"])
def test_single_point_equals_its_batch_column_at_100k_rows(kind):
    # the regression surrogate's shape: one point through many rows
    kwargs = {"bandwidth": 0.7} if kind == "euclidean" else {}
    pts = np.random.default_rng(13).standard_normal((3, 2))
    for depth, width in ((4, 32), (8, 500), (9, 2**32 - 1)):
        fam = rk.new_family(kind, dim=2, depth=depth, width=width, seed=depth, **kwargs)
        _assert_single_points_match_batch(fam, 100_000, pts)
    lsh._row_params.cache_clear()  # 100k-row parameters are tens of MB


@pytest.mark.parametrize("kwargs,dtype", [
    (dict(kind="srp", depth=4, width=16), np.uint8),        # direct codes < 2**4
    (dict(kind="srp", depth=8, width=70_000), np.uint8),    # direct codes < 2**8
    (dict(kind="srp", depth=12, width=50), np.uint8),
    (dict(kind="srp", depth=12, width=300), np.uint16),
    (dict(kind="srp", depth=31, width=2**31), np.uint32),   # direct codes < 2**31
    (dict(kind="srp", depth=62, width=2**32 - 1), np.uint32),
    (dict(kind="euclidean", depth=2, width=256, bandwidth=0.3), np.uint8),
    (dict(kind="euclidean", depth=2, width=70_000, bandwidth=0.01), np.uint32),
])
def test_hash_batch_uses_the_smallest_unsigned_dtype(kwargs, dtype):
    fam = rk.new_family(dim=2, seed=8, **kwargs)
    buckets = rk.hash_batch(fam, 50, np.random.default_rng(1).standard_normal((200, 2)))
    assert buckets.dtype == dtype
    assert buckets.max() < fam.width


@pytest.mark.parametrize("kind,kwargs", [("srp", {}), ("euclidean", {"bandwidth": 1.0})])
def test_hash_batch_memory_stays_block_sized(kind, kwargs):
    pts = np.random.default_rng(0).uniform(0, 1, (8000, 10))
    n = len(pts)
    # euclidean also at bandwidth 1e-10, where floors pass P: the range check and
    # fmod run; srp also at depth 12, whose codes are mixed
    for fam_kwargs in [kwargs, {"bandwidth": 1e-10}] if kwargs else [{}, {"depth": 12}]:
        fam = rk.new_family(kind, dim=10, **{"depth": 4, "width": 500, "seed": 3,
                                             **kwargs, **fam_kwargs})
        lsh._row_params(fam, 1000)  # cached parameters are not part of the peak
        tracemalloc.start()
        try:
            buckets = rk.hash_batch(fam, 1000, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a single (rows * depth, n) float64 projection alone would be 244 MiB
        assert peak < 64 * 2**20
        p = fam.depth
        tile = max(1, lsh._TILE_BUDGET // (p * n)) * p * n * 8  # float64 projections
        if kind == "euclidean":
            # beyond the buckets: one tile of 2**16 projections (512 KiB) and,
            # per bucket of the tile, an accumulator, a quotient and a residue
            # (20 bytes, 320 KiB at depth 4), with room for the point norms
            assert peak - buckets.nbytes < tile + tile // p * 20 // 8 + 2**18, fam_kwargs
        else:
            # beyond the buckets: one tile of projections (512 KiB at depth 4,
            # one 750 KiB row at depth 12), one block of up to 2**19 sign bytes
            # and, per code of the block when codes are mixed, its packed code
            # and the mix's three uint64 temporaries (26 bytes), with room to spare
            rows = max(1, lsh._BLOCK_BUDGET // (p * n))
            mix = 0 if fam._plan.direct else rows * n * 26
            assert peak - buckets.nbytes < tile + rows * p * n + mix + 2**18, fam_kwargs


@pytest.mark.parametrize("one_row_blocks", [False, True], ids=["budget", "budget=1"])
@pytest.mark.parametrize("kind,depth,width", [
    ("srp", 4, 64), ("srp", 12, 50), ("folded-srp", 4, 64), ("folded-srp", 12, 50),
    ("euclidean", 3, 40),
], ids=["srp", "srp-rebucketed", "folded", "folded-rebucketed", "euclidean"])
def test_row_range_equals_that_slice_of_the_full_hash(monkeypatch, kind, depth, width,
                                                      one_row_blocks):
    if one_row_blocks:
        _one_row_blocks(monkeypatch)
    kwargs = {"bandwidth": 0.75} if kind == "euclidean" else {}
    fam = rk.new_family(kind, dim=3, depth=depth, width=width, seed=depth, **kwargs)
    for n in (1, 2, 301):  # one point takes the single-point path
        pts = np.random.default_rng(n).standard_normal((n, 3))
        for lo, hi in ((0, 1), (0, 13), (3, 4), (5, 13), (7, 31)):
            want = rk.hash_batch(fam, hi, pts)[lo:]
            assert np.array_equal(rk.hash_batch(fam, range(lo, hi), pts), want)
            # the same rows of a larger table
            assert np.array_equal(rk.hash_batch(fam, range(lo, hi), pts, table=31), want)


@pytest.mark.parametrize("kind,depth,width", [
    ("srp", 4, 64), ("srp", 12, 50), ("folded-srp", 4, 64), ("folded-srp", 12, 50),
], ids=["srp", "srp-rebucketed", "folded", "folded-rebucketed"])
def test_one_row_tiles_equal_the_default_tiles(monkeypatch, kind, depth, width):
    # at the default budgets 1000 rows run as ragged blocks of several tiles;
    # one-row tiles project each row alone, and must give the same sign bits
    fam = rk.new_family(kind, dim=3, depth=depth, width=width, seed=depth)
    spans = (1000, range(0, 1), range(3, 4), range(5, 13), range(7, 1000))
    for n in (2, 301):
        pts = np.random.default_rng(n).standard_normal((n, 3))
        want = [rk.hash_batch(fam, rows, pts, table=1000) for rows in spans]
        assert np.array_equal(want[0], _per_bit_reference(fam, 1000, pts))
        with monkeypatch.context() as patch:
            patch.setattr(lsh, "_TILE_BUDGET", 1)
            got = [rk.hash_batch(fam, rows, pts, table=1000) for rows in spans]
        for rows, tiled, default in zip(spans, got, want):
            assert tiled.dtype == default.dtype and np.array_equal(tiled, default), (n, rows)


def test_row_ranges_must_fit_the_table():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, seed=1)
    pts = np.ones((3, 2))
    for rows, table in ((0, None), (-2, None), (range(3, 3), None), (range(0, 9, 2), None),
                        (range(-1, 4), None), (range(2, 6), 5)):
        with pytest.raises(InvalidParameterError, match="rows"):
            rk.hash_batch(fam, rows, pts, table=table)


def test_zero_row_input_takes_the_family_dimension():
    fam = rk.new_family("srp", dim=3, depth=2, width=8, seed=1)
    for empty in (np.zeros((0, 0)), np.zeros((0, 7)), np.zeros(0), []):
        assert lsh._as_matrix(empty, 3).shape == (0, 3)
        assert rk.hash_batch(fam, 5, empty).shape == (5, 0)


def _per_bit_reference(fam, rows, pts):
    """Buckets of an angular family, one sign bit at a time in uint64."""
    params = lsh._row_params(fam, rows)
    p, n = fam.depth, len(pts)
    signs = (params.proj @ pts.T >= 0).reshape(rows, p, n)
    codes = np.zeros((rows, n), np.uint64)
    for i in range(p):
        codes |= signs[:, i, :].astype(np.uint64) << np.uint64(i)
    if fam.kind is lsh.HashKind.FOLDED_SRP:
        codes = np.minimum(codes, codes ^ np.uint64(2**p - 1))
    if 2**p <= fam.width:
        return codes
    prime = lsh._MIX_PRIME
    return (params.mix_a[:, :1] * (codes % prime) + params.mix_b[:, None]) % prime \
        % np.uint64(fam.width)


@pytest.mark.parametrize("n", [0, 1, 3, 257])
@pytest.mark.parametrize("kind", ["srp", "folded-srp"])
def test_angular_hash_batch_equals_per_bit_reference(monkeypatch, kind, n):
    monkeypatch.setattr(lsh, "_BLOCK_BUDGET", 5)  # one row per block
    pts = np.random.default_rng(n).standard_normal((n, 3))
    for depth in range(1, 63):
        # a width that takes the codes directly (up to depth 31), and ones that
        # mix, the widest reducing into uint32
        for width in sorted({2 ** min(depth, 31), 2, 50, 200, 2**32 - 1}):
            fam = rk.new_family(kind, dim=3, depth=depth, width=width, seed=depth)
            got = rk.hash_batch(fam, 9, pts)
            want = _per_bit_reference(fam, 9, pts)
            assert got.shape == (9, n) and got.dtype.kind == "u"
            assert np.array_equal(got, want), (depth, width)


def _euclidean_reference(fam, rows, pts):
    """Buckets of a euclidean family as the plain formula, one row per matmul.

    Each floor is reduced mod P with exact Python integers (equal to the int64
    ``floor % P`` wherever that is defined) and mixed in one term at a time.
    """
    params = lsh._row_params(fam, rows)
    p, prime = fam.depth, int(lsh._MIX_PRIME)
    # one matmul per row, as hash_batch makes with one row per block
    proj = np.stack([params.proj[r * p:(r + 1) * p] @ pts.T for r in range(rows)])
    floors = np.floor((proj + params.offsets[:, :, None]) / fam.bandwidth)
    grid = np.frompyfunc(lambda v: int(v) % prime, 1, 1)(floors)
    mixed = params.mix_b.astype(object)[:, None]
    for i in range(p):
        mixed = (mixed + params.mix_a[:, i:i + 1].astype(object) * grid[:, i, :]) % prime
    return (mixed % fam.width).astype(np.uint64)


@pytest.mark.parametrize("n", [0, 1, 3, 257])
@pytest.mark.parametrize("bandwidth", [1e-12, 1e-9, 1e-3, 1.0, 1e6])
def test_euclidean_hash_batch_equals_reference(monkeypatch, bandwidth, n):
    _one_row_blocks(monkeypatch)
    pts = np.random.default_rng(n).standard_normal((n, 3)) * 2
    for depth in (1, 2, 3, 4, 5, 62):  # odd depths end on an unpaired term
        for width in (2, 200, 70_000, 2**32 - 1):
            fam = rk.new_family("euclidean", dim=3, depth=depth, width=width,
                                bandwidth=bandwidth, seed=depth)
            got = rk.hash_batch(fam, 9, pts)
            assert got.shape == (9, n) and got.dtype == np.min_scalar_type(width - 1)
            assert np.array_equal(got, _euclidean_reference(fam, 9, pts)), (depth, width)


def test_euclidean_rows_inside_and_outside_the_prime_in_one_call(monkeypatch):
    fam = rk.new_family("euclidean", dim=3, depth=2, width=200, bandwidth=1e-9, seed=4)
    pts = np.random.default_rng(5).standard_normal((3, 3))
    params = lsh._row_params(fam, 40)
    floors = np.floor(((params.proj @ pts.T).reshape(40, 2, 3)
                       + params.offsets[:, :, None]) / fam.bandwidth)
    inside = np.abs(floors).max(axis=(1, 2)) < float(lsh._MIX_PRIME)
    assert inside.any() and not inside.all()  # both reductions run in one call
    want = _euclidean_reference(fam, 40, pts)
    assert np.array_equal(rk.hash_batch(fam, 40, pts), want)  # one block, fmod throughout
    _one_row_blocks(monkeypatch)
    assert np.array_equal(rk.hash_batch(fam, 40, pts), want)


def test_euclidean_tiny_bandwidth_keeps_points_apart(monkeypatch):
    # |g.x + b| / bandwidth is about 1e30, past int64: every floor still counts
    _one_row_blocks(monkeypatch)  # the reference's matmuls, bit for bit
    fam = rk.new_family("euclidean", dim=3, depth=2, width=1000, bandwidth=1e-30, seed=3)
    pts = np.random.default_rng(0).standard_normal((64, 3))
    buckets = rk.hash_batch(fam, 20, pts)
    assert min(len(np.unique(row)) for row in buckets) >= 48
    assert np.array_equal(buckets, _euclidean_reference(fam, 20, pts))


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
def test_euclidean_bucket_index_overflowing_float64_is_rejected():
    fam = rk.new_family("euclidean", dim=3, depth=2, width=1000, bandwidth=1e-320, seed=3)
    with pytest.raises(InvalidParameterError, match="bandwidth"):
        rk.hash_batch(fam, 5, np.random.default_rng(0).standard_normal((8, 3)))


def _range_case_family(case, pts, rows):
    """A depth-3 euclidean family whose floors on ``pts`` fall in ``case``."""
    probe = rk.new_family("euclidean", dim=3, depth=3, width=200, bandwidth=1.0, seed=17)
    # the projections depend on the seed only, so the probe's bound is the family's
    reach = lsh._row_params(probe, rows).proj_norm * np.linalg.norm(pts, axis=1).max()
    bandwidth = {"bound-holds": 0.5,
                 # the bound reads 0.75 P: past P / 2, so it fails, yet every floor is below it
                 "bound-fails-in-range": reach / (0.75 * float(lsh._MIX_PRIME)),
                 "past-prime": 1e-10, "past-int64": 1e-30, "overflow": 1e-320}[case]
    return rk.new_family("euclidean", dim=3, depth=3, width=200, bandwidth=bandwidth, seed=17)


@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@pytest.mark.parametrize("n", [1, 257])
@pytest.mark.parametrize("case", ["bound-holds", "bound-fails-in-range", "past-prime",
                                  "past-int64", "overflow"])
def test_euclidean_range_bound_skips_the_check_only_when_it_holds(monkeypatch, case, n):
    _one_row_blocks(monkeypatch)  # the reference's matmuls, bit for bit
    pts = np.random.default_rng(n).standard_normal((n, 3)) * 2
    fam = _range_case_family(case, pts, 9)
    bound, verdicts = lsh._floors_in_range, []

    def recorded(*args):
        verdicts.append(bound(*args))
        return verdicts[-1]

    monkeypatch.setattr(lsh, "_floors_in_range", recorded)
    if case == "overflow":
        with pytest.raises(InvalidParameterError, match="bandwidth"):
            rk.hash_batch(fam, 9, pts)
        assert verdicts == [False]
        return
    got = rk.hash_batch(fam, 9, pts)
    assert verdicts == [case == "bound-holds"]
    params, prime = lsh._row_params(fam, 9), float(lsh._MIX_PRIME)
    proj = np.stack([params.proj[r * 3:(r + 1) * 3] @ pts.T for r in range(9)])
    largest = np.abs(np.floor((proj + params.offsets[:, :, None]) / fam.bandwidth)).max()
    assert {"bound-holds": largest < prime / 2, "bound-fails-in-range": largest < prime,
            "past-prime": prime <= largest < 2.0**63, "past-int64": 2.0**63 <= largest}[case]
    want = _euclidean_reference(fam, 9, pts)
    assert got.shape == (9, n) and np.array_equal(got, want)
    # the check it skips is what keeps floors past P exact: trusting a bound
    # that does not hold changes the codes
    monkeypatch.setattr(lsh, "_floors_in_range", lambda *args: True)
    assert np.array_equal(rk.hash_batch(fam, 9, pts), want) == (largest < prime)


@pytest.mark.parametrize("kind,width", [("srp", 16), ("srp", 50), ("folded-srp", 50)],
                         ids=["srp-direct", "srp-rebucketed", "folded-rebucketed"])
def test_angular_tables_never_consult_the_range_bound(monkeypatch, kind, width):
    def consulted(*args):
        raise AssertionError("an angular table consulted the euclidean range bound")

    monkeypatch.setattr(lsh, "_floors_in_range", consulted)
    fam = rk.new_family(kind, dim=3, depth=4, width=width, seed=5)
    params = lsh._row_params(fam, 9)
    assert params.proj_norm is None and params.pair_b is None
    for n in (1, 257):
        pts = np.random.default_rng(n).standard_normal((n, 3))
        assert np.array_equal(rk.hash_batch(fam, 9, pts), _per_bit_reference(fam, 9, pts))


_FINITE_CHECK_KINDS = [("srp", {}), ("euclidean", {"bandwidth": 0.5}), ("folded-srp", {})]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind,kwargs", _FINITE_CHECK_KINDS)
def test_non_finite_points_are_rejected(kind, kwargs, bad):
    fam = rk.new_family(kind, dim=3, depth=2, width=64, seed=1, **kwargs)
    pts = np.random.default_rng(0).standard_normal((10, 3))
    pts[4, 1] = bad
    for bad_points in (pts, pts[4]):  # a batch, and one point
        with pytest.raises(InvalidParameterError, match="finite"):
            rk.hash_batch(fam, 5, bad_points)
    # finite points whose squared norms overflow are hashed, not rejected
    rk.hash_batch(fam, 5, np.full((2, 3), 1e200))
    for threads in (1, 2):  # the build checks each chunk once, then hashes it in blocks
        with pytest.raises(InvalidParameterError, match="finite"):
            rk.build(pts, fam, 5, threads=threads)
    sketch = rk.build(pts[:4], fam, 5)
    with pytest.raises(InvalidParameterError, match="finite"):
        estimation.estimate(sketch, pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind,kwargs", _FINITE_CHECK_KINDS)
def test_single_point_entries_check_finiteness_once(kind, kwargs, bad):
    # each entry checks its point off the point's norm and hashes it unchecked
    fam = rk.new_family(kind, dim=3, depth=2, width=64, seed=1, **kwargs)
    pts = np.random.default_rng(0).standard_normal((10, 3))
    sketch = rk.build(pts, fam, 40)
    config = rk.OptimizerConfig(max_iters=5)
    entries = {
        "query_median_of_means": lambda x: rk.query_median_of_means(sketch, x),
        "estimate": lambda x: estimation.estimate(sketch, x[None, :]),
        "add": lambda x: sketch.add(x),
        "find_mode": lambda x: rk.find_mode(sketch, x, config),
    }
    for at in range(3):
        point = pts[0].copy()
        point[at] = bad
        for entry in entries.values():
            with pytest.raises(InvalidParameterError, match="finite"):
                entry(point)
    assert sketch.inserted == 10
    # a finite point whose squared norm overflows is answered, and added
    huge = np.full(3, 1e200)
    for entry in entries.values():
        entry(huge)
    assert sketch.inserted == 11
    assert rk.query_median_of_means(sketch, huge).f_hat >= 1.0


def test_a_norm_past_float64_falls_back_to_the_full_check():
    lsh._check_finite(np.full((1, 3), 1e308))  # hypot overflows, every entry is finite
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            lsh._check_finite(np.array([[1e308, 1e308, bad]]))
