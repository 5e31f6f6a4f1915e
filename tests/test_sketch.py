import hashlib
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import racekit as rk
from racekit.errors import (
    FrozenSketchError,
    IncompatibleSketchError,
    InvalidParameterError,
    MalformedHeaderError,
    SketchFormatError,
    TruncationError,
    VersionMismatchError,
)


def _family(seed=3, **kw):
    base = dict(kind="srp", dim=2, depth=4, width=50, seed=seed)
    base.update(kw)
    return rk.new_family(**base)


def _whole_table(sk):
    """The sketch's (rows, width) table: its stored columns, then zeros."""
    table = np.zeros((sk.rows, sk.width), np.int64)
    table[:, :sk.counts.shape[1]] = sk.counts
    return table


def test_build_empty_dataset():
    sk = rk.build(np.zeros((0, 2)), _family(), rows=10)
    assert sk.inserted == 0
    assert not sk.privatized
    assert (sk.counts == 0).all()


def test_build_identical_points_share_buckets():
    pts = np.tile([0.4, -0.7], (5, 1))
    sk = rk.build(pts, _family(), rows=20)
    assert sk.inserted == 5
    for row in sk.counts:
        nonzero = row[row != 0]
        assert nonzero.tolist() == [5]


def test_build_row_sums_equal_inserted():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((1000, 2))
    sk = rk.build(pts, _family(), rows=100)
    assert (sk.counts.sum(axis=1) == 1000).all()
    assert sk.row_sums_consistent()


def test_build_matches_direct_recount():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((60, 2))
    fam = _family()
    sk = rk.build(pts, fam, rows=15)
    assert sk.counts.shape == (15, fam.reachable_width) == (15, 16)
    table = _whole_table(sk)
    buckets = rk.hash_batch(fam, 15, pts)
    for r in range(15):
        for j in range(fam.width):
            assert table[r, j] == int((buckets[r] == j).sum())


def test_build_dimension_mismatch():
    with pytest.raises(rk.DimensionMismatchError):
        rk.build(np.zeros((3, 5)), _family(), rows=4)


def test_build_from_stream_equals_array_build():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((257, 2))
    fam = _family()
    assert rk.build(iter(pts), fam, rows=30) == rk.build(pts, fam, rows=30)


def test_build_threaded_equals_serial():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((501, 2))
    fam = _family()
    assert rk.build(pts, fam, rows=25, threads=3) == rk.build(pts, fam, rows=25)


@pytest.mark.parametrize("rows,threads", [(1, 2), (2, 5), (7, 3), (25, 3)])
def test_build_with_row_ranges_equals_serial(monkeypatch, rows, threads):
    # ranges are capped at one row each, so 5 threads over 2 rows run 2 ranges
    _, blas = _fake_blas(1)
    monkeypatch.setattr(rk.sketch, "_numpy_openblas", lambda: blas)
    monkeypatch.setattr(rk.sketch, "_CHUNK", 60)
    pts = np.random.default_rng(10).standard_normal((301, 2))
    fam = _family()
    assert rk.build(iter(pts), fam, rows, threads=threads) == rk.build(pts, fam, rows)


def test_threaded_build_draws_one_set_of_row_parameters():
    fam = _family(seed=19)
    pts = np.random.default_rng(11).standard_normal((200, 2))
    rk.lsh._row_params.cache_clear()
    rk.build(pts, fam, rows=30, threads=3)
    assert rk.lsh._row_params.cache_info().currsize == 1


def _bincount_reference(width, buckets):
    return np.stack([np.bincount(row, minlength=width) for row in buckets.astype(np.intp)])


@pytest.mark.parametrize("rows,n,alphabet", [
    (7, 400, 10),     # odd R: three pairs and one plain row
    (6, 400, 10),     # 4 A**2 = n: the pair path's edge
    (6, 399, 10),     # 4 A**2 = n + 1: one row at a time
    (9, 36, 3),       # n < 64
    (4, 5000, 2),     # two codes, many points
    (5, 12, 10),      # n < W: fewer indices than counters in a block
    (3, 1, 20),       # one point
])
@pytest.mark.parametrize("budget", [None, 1])
def test_pair_count_equals_one_row_at_a_time(monkeypatch, rows, n, alphabet, budget):
    if budget is not None:
        monkeypatch.setattr(rk.sketch, "_INDEX_BUDGET", budget)  # one row or pair a block
    rng = np.random.default_rng(rows * n)
    buckets = rng.integers(0, alphabet, size=(rows, n)).astype(np.uint8)
    buckets[0, 0] = alphabet - 1  # the alphabet is the largest bucket + 1
    width = 20
    pairs = []
    count_pairs = rk.sketch._count_pairs
    monkeypatch.setattr(rk.sketch, "_count_pairs",
                        lambda c, b, a: pairs.append(len(b)) or count_pairs(c, b, a))
    # a row slice of a wider table, counted on top of what it holds
    table = rng.integers(0, 5, size=(rows + 3, width))
    want = table.copy()
    want[2:rows + 2] += _bincount_reference(width, buckets)
    rk.sketch._scatter(table[2:rows + 2], buckets)
    assert np.array_equal(table, want)
    assert pairs == ([rows - rows % 2] if 4 * alphabet**2 <= n else [])


# serialize(build(...)) digests over _GOLDEN_POINTS with rows=30. They pin the
# hash assignments and the .race layout bit for bit, so files already written
# stay valid across refactors of the build and hashing code.
_GOLDEN_POINTS = np.random.default_rng(2020).standard_normal((20_000, 3))
_GOLDEN = {
    "srp": (dict(kind="srp", dim=3, depth=4, width=64, seed=11),
            "504fdfc646b7a947558e94233cfd56cc183f6acaf15efdf39b05ca74f4122d37"),
    "srp-rebucketed": (dict(kind="srp", dim=3, depth=12, width=50, seed=12),
                       "de9953f70895d43e7c59bbafaea3dd796e79481c73f3af6276f93261e0bebabd"),
    "euclidean": (dict(kind="euclidean", dim=3, depth=3, width=40, bandwidth=0.75, seed=13),
                  "eac60ffe70353c0bbfc50bcef38116f599d6b5aa10d41fc1d2087451cc1a02bc"),
    "folded-srp": (dict(kind="folded-srp", dim=3, depth=4, width=64, seed=15),
                   "181ddae9662e63b26c8a5ca8dba82198cc06012d64af8abb70068097051f6418"),
    "folded-srp-rebucketed": (dict(kind="folded-srp", dim=3, depth=12, width=50, seed=16),
                              "412761ea84ec44810c66f30ef45e583246d2f4f69730f166301b7e160f7b83b1"),
}


@pytest.mark.parametrize("stream,threads", [(False, 1), (False, 3), (True, 1), (True, 3)],
                         ids=["threads=1", "threads=3", "stream", "stream-threads=3"])
@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_build_golden_digest(name, stream, threads):
    params, digest = _GOLDEN[name]
    data = iter(_GOLDEN_POINTS) if stream else _GOLDEN_POINTS
    sk = rk.build(data, rk.new_family(**params), 30, threads=threads)
    assert hashlib.sha256(rk.serialize(sk)).hexdigest() == digest


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_build_golden_digest_with_small_blocks(monkeypatch, name, threads):
    # 7 rows per hash block and per scatter block: 30 rows run as 7, 7, 7, 7, 2
    params, digest = _GOLDEN[name]
    chunk = 5000
    monkeypatch.setattr(rk.sketch, "_CHUNK", chunk)
    monkeypatch.setattr(rk.lsh, "_BLOCK_BUDGET", 7 * params["depth"] * chunk)
    monkeypatch.setattr(rk.sketch, "_INDEX_BUDGET", 7 * chunk)
    sk = rk.build(_GOLDEN_POINTS, rk.new_family(**params), 30, threads=threads)
    assert hashlib.sha256(rk.serialize(sk)).hexdigest() == digest


# serialize(privatize(build(...), PrivacyBudget(1.0), rng_seed=2024)) digests
# over _GOLDEN_POINTS with rows=30. They pin the release mechanism bit for bit:
# its noise draws, their scale (rows / epsilon for every kind), the columns
# they cover (16 of 64 for direct srp, 8 of 64 for direct folded, all of them
# otherwise) and the sum.
_GOLDEN_RELEASE = {
    "srp": (_GOLDEN["srp"][0],
            "6fe0450ce2af39e64be3eaa3d4904735b714cd56954af300449b1058591a7000"),
    "srp-rebucketed": (_GOLDEN["srp-rebucketed"][0],
                       "3bd6515230895f46f8393c25d769bd57f8496972e58c69922ad45b36cc66e9f2"),
    "folded-srp-rebucketed": (
        _GOLDEN["folded-srp-rebucketed"][0],
        "e6493e021e1af8cb449add1187148b8f2da72a5035c033d452e9ab550039f1fc"),
    "euclidean": (_GOLDEN["euclidean"][0],
                  "3b0423f7144de19d97a02a8f24ce0e9a6754049f3d376dd7579c48620e55d7b2"),
    "regression-folded": (dict(kind="folded-srp", dim=3, depth=4, width=64, seed=14),
                          "3ce169ff05a4c39ce26834d4eb2522ce5adcb790a2791563a51b914dc3e174cd"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_RELEASE))
def test_release_golden_digest(name):
    params, digest = _GOLDEN_RELEASE[name]
    clean = rk.build(_GOLDEN_POINTS, rk.new_family(**params), 30)
    released = rk.privatize(clean, rk.PrivacyBudget(1.0), rng_seed=2024)
    assert hashlib.sha256(rk.serialize(released)).hexdigest() == digest


@pytest.mark.parametrize("make,threads", [
    (lambda rows: rows, 1),
    (lambda rows: (r for r in rows), 1),
    (lambda rows: (r for r in rows), 2),
], ids=["list", "stream", "stream-threads=2"])
def test_build_ragged_input_is_dimension_mismatch(make, threads):
    ragged = [[0.5, 1.0], [0.25], [1.0, 2.0]]
    with pytest.raises(rk.DimensionMismatchError):
        rk.build(make(ragged), _family(), rows=5, threads=threads)


def test_build_rejects_threads_below_one():
    for threads in (0, -2):
        with pytest.raises(InvalidParameterError):
            rk.build(np.ones((3, 2)), _family(), rows=5, threads=threads)


def _fake_blas(threads):
    """A (get, set) pair standing in for numpy's OpenBLAS thread count."""
    state = {"threads": threads}
    return state, (lambda: state["threads"], lambda n: state.update(threads=n))


def test_overlapping_threaded_builds_restore_blas_once(monkeypatch):
    # six threaded builds at once, with a short switch interval: BLAS must stay
    # at one thread while any of them hashes and be restored when all are done
    state, blas = _fake_blas(5)
    monkeypatch.setattr(rk.sketch, "_numpy_openblas", lambda: blas)
    seen = []
    hash_batch = rk.lsh.hash_batch

    def recorded(*args, **kwargs):
        seen.append(state["threads"])
        return hash_batch(*args, **kwargs)

    monkeypatch.setattr(rk.lsh, "hash_batch", recorded)
    monkeypatch.setattr(rk.sketch, "_CHUNK", 50)
    pts = np.random.default_rng(4).standard_normal((400, 2))
    expected = rk.build(pts, _family(), rows=5)
    seen.clear()
    results = [None] * 6

    def run(i):
        results[i] = rk.build(pts, _family(), rows=5, threads=2)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert all(r == expected for r in results)
    assert seen == [1] * 6 * 8 * 2  # six builds, eight chunks, two row ranges each
    assert state["threads"] == 5


def test_serial_build_leaves_blas_alone(monkeypatch):
    def untouchable():
        raise AssertionError("a threads=1 build looked up the BLAS")

    monkeypatch.setattr(rk.sketch, "_numpy_openblas", untouchable)
    assert rk.build(np.ones((3, 2)), _family(), rows=5).inserted == 3


def test_threaded_build_without_numpy_openblas_runs_one_thread(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a pool was started without a pinned BLAS")

    pts = np.random.default_rng(2).standard_normal((500, 2))
    serial = rk.build(pts, _family(), rows=5)
    monkeypatch.setattr(rk.sketch, "_numpy_openblas", lambda: None)
    monkeypatch.setattr(rk.sketch, "ThreadPoolExecutor", no_pool)
    assert rk.build(pts, _family(), rows=5, threads=3) == serial


def test_threaded_build_restores_numpy_blas_threads():
    blas = rk.sketch._numpy_openblas()
    if blas is None:
        pytest.skip("numpy does not bundle a scipy-openblas library here")
    get, set_ = blas
    before = get()
    try:
        set_(2)
        rk.build(np.random.default_rng(3).standard_normal((300, 2)), _family(), rows=5,
                 threads=2)
        assert get() == 2
    finally:
        set_(before)


def test_threaded_stream_build_keeps_memory_bounded():
    n = 200_000
    points = (np.array([np.cos(i), np.sin(i)]) for i in range(n))
    tracemalloc.start()
    try:
        sk = rk.build(points, _family(), rows=10, threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sk.inserted == n
    assert peak < 10 * 2**20  # the whole stream as arrays would take ~30 MB


def test_threaded_stream_build_counts_each_row_range_where_it_was_hashed(monkeypatch):
    # each chunk's rows go out as ranges [0, 2) and [2, 5); every range of every
    # chunk is hashed and counted once, by one thread, before the next chunk
    _, blas = _fake_blas(1)
    monkeypatch.setattr(rk.sketch, "_numpy_openblas", lambda: blas)
    monkeypatch.setattr(rk.sketch, "_CHUNK", 50)
    pts = np.random.default_rng(6).standard_normal((420, 2))
    fam = _family()
    events = []  # (chunk, "hash" or "count", thread, row range, buckets, their values)
    hash_batch, scatter = rk.lsh.hash_batch, rk.sketch._scatter

    def hashed(family, rows, points, **kwargs):
        buckets = hash_batch(family, rows, points, **kwargs)
        chunk = int(np.flatnonzero((pts == points[0]).all(axis=1))[0]) // 50
        events.append((chunk, "hash", threading.get_ident(), rows, buckets, buckets.copy()))
        return buckets

    def counted(counts, buckets, *args):
        first = (counts.ctypes.data - counts.base.ctypes.data) // counts.strides[0]
        chunk = next(e[0] for e in events if e[4] is buckets)
        events.append((chunk, "count", threading.get_ident(),
                       range(first, first + len(counts)), buckets, buckets.copy()))
        scatter(counts, buckets, *args)

    monkeypatch.setattr(rk.lsh, "hash_batch", hashed)
    monkeypatch.setattr(rk.sketch, "_scatter", counted)
    sk = rk.build(iter(pts), fam, rows=5, threads=2)
    monkeypatch.undo()
    assert [e[0] for e in events] == sorted(e[0] for e in events)  # one chunk in flight
    spans = {range(0, 2): threading.get_ident()}  # the caller takes the first range
    for chunk in range(9):
        mine = [e for e in events if e[0] == chunk]
        hashes = {e[3]: e for e in mine if e[1] == "hash"}
        counts = {e[3]: e for e in mine if e[1] == "count"}
        assert len(mine) == 4 and set(hashes) == set(counts) == {range(0, 2), range(2, 5)}
        want = rk.hash_batch(fam, 5, pts[50 * chunk:50 * chunk + 50])
        for span, (_, _, thread, _, buckets, values) in hashes.items():
            assert spans.setdefault(span, thread) == thread == counts[span][2]
            assert counts[span][4] is buckets
            assert np.array_equal(counts[span][5], values)
            assert np.array_equal(values, want[span.start:span.stop])
    assert spans[range(2, 5)] != threading.get_ident()
    assert sk == rk.build(pts, fam, rows=5)


def test_threaded_build_memory_is_the_table_plus_bucket_arrays():
    # a 4 MB table of the 256 reachable columns. Each thread hashes its rows
    # one block at a time into its own bucket buffer and counts the block at
    # once, so the peak is the table plus one hash block and its count per
    # thread: no (rows, chunk) bucket array (4 MB here) is held
    fam = rk.new_family("srp", dim=2, depth=8, width=1000, seed=3)
    pts = np.random.default_rng(7).standard_normal((6000, 2))
    rk.lsh._row_params(fam, 2000)  # cached parameters are not part of the peak
    step = rk.lsh._BLOCK_BUDGET // (fam.depth * 2000)
    # one hash block, its buckets included
    tracemalloc.start()
    try:
        buckets = rk.hash_batch(fam, range(0, step), pts[:2000], table=2000)
        hashing = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one count block: its intp indices and a bincount no longer than them
    count_block = 2 * buckets.size * np.dtype(np.intp).itemsize
    for threads in (1, 2, 3, 4):
        tracemalloc.start()
        try:
            sk = rk.build(pts, fam, 2000, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sk.inserted == 6000 and sk.counts.shape == (2000, 256)
        assert peak <= sk.counts.nbytes + threads * (hashing + count_block), threads


@pytest.mark.parametrize("threads", [1, 2])
def test_build_memory_at_the_fit_shape_is_the_table_parameters_and_a_block_per_thread(
        threads):
    # fit_regression's build: 128 points through 100k folded rows. The parent
    # code peaked at 48.8 MB here, with a 25.6 MB table of all 32 columns, a
    # (rows, chunk) bucket array and a C-ordered copy of the projections
    fam = rk.new_family("folded-srp", dim=2, depth=4, width=32, seed=9)
    pts = np.random.default_rng(9).standard_normal((128, 2))
    rk.lsh._row_params.cache_clear()  # drawn inside the peak, as fit_regression draws them
    tracemalloc.start()
    try:
        sk = rk.build(pts, fam, 100_000, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    proj = rk.lsh._row_params(fam, 100_000).proj
    rk.lsh._row_params.cache_clear()  # 100k-row parameters
    assert sk.counts.shape == (100_000, 8)
    budget = rk.lsh._BLOCK_BUDGET
    # projections (float64) and their sign bytes, then per depth-4 row block
    # of buckets: the uint8 buckets, their intp indices and a tally no longer
    per_thread = 9 * budget + budget // fam.depth * (1 + 8 + 8)
    assert peak <= sk.counts.nbytes + proj.nbytes + threads * per_thread
    assert sk == rk.build(pts, fam, 100_000)


def test_add_single_point():
    fam = _family()
    sk = rk.build(np.zeros((0, 2)), fam, rows=12)
    x = np.array([1.0, 2.0])
    sk.add(x)
    assert sk.inserted == 1
    assert (sk.counts.sum(axis=1) == 1).all()
    assert int((sk.counts == 1).sum()) == 12
    sk.add(x)
    assert int((sk.counts == 2).sum()) == 12  # same counters again


def test_add_takes_a_point_in_the_shapes_a_query_takes():
    fam = _family()
    x = np.array([1.0, 2.0])
    want = rk.build(np.zeros((0, 2)), fam, rows=12)
    want.add(x)
    for shaped in ([[1.0, 2.0]], [[[1.0, 2.0]]], (1.0, 2.0)):
        sk = rk.build(np.zeros((0, 2)), fam, rows=12)
        sk.add(shaped)
        assert sk == want
        assert rk.query_median_of_means(sk, shaped, 0.78).f_hat == 1.0
    for wrong in (3.0, [1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]]):
        with pytest.raises(rk.DimensionMismatchError):
            want.add(wrong)
    assert want.inserted == 1


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_add_each_point_equals_build(name):
    fam = rk.new_family(**_GOLDEN[name][0])
    pts = _GOLDEN_POINTS[:200]
    sk = rk.build(np.zeros((0, 3)), fam, 30)
    for x in pts:
        sk.add(x)
    assert sk == rk.build(pts, fam, 30)


def test_add_to_privatized_sketch_fails():
    sk = rk.build(np.ones((3, 2)), _family(), rows=5)
    released = rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=0)
    with pytest.raises(FrozenSketchError):
        released.add(np.ones(2))


def test_merge_equals_build_on_union():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((120, 2))
    b = rng.standard_normal((80, 2))
    fam = _family()
    merged = rk.merge(rk.build(a, fam, 40), rk.build(b, fam, 40))
    assert merged == rk.build(np.vstack([a, b]), fam, 40)


def test_merge_with_empty_is_identity():
    fam = _family()
    sk = rk.build(np.random.default_rng(2).standard_normal((50, 2)), fam, 10)
    empty = rk.build(np.zeros((0, 2)), fam, 10)
    assert rk.merge(sk, empty) == sk


def test_merge_rejects_descriptor_mismatch():
    pts = np.ones((4, 2))
    a = rk.build(pts, _family(seed=1), 10)
    b = rk.build(pts, _family(seed=2), 10)
    with pytest.raises(IncompatibleSketchError):
        rk.merge(a, b)
    c = rk.build(pts, _family(seed=1), 11)
    with pytest.raises(IncompatibleSketchError):
        rk.merge(a, c)


def test_merge_rejects_privatized_inputs():
    pts = np.ones((4, 2))
    fam = _family()
    a = rk.build(pts, fam, 10)
    b = rk.privatize(rk.build(pts, fam, 10), rk.PrivacyBudget(1.0), rng_seed=1)
    with pytest.raises(FrozenSketchError):
        rk.merge(a, b)


def test_merge_associative_and_commutative():
    rng = np.random.default_rng(4)
    fam = _family()
    s1, s2, s3 = (rk.build(rng.standard_normal((30, 2)), fam, 8) for _ in range(3))
    assert rk.merge(s1, s2) == rk.merge(s2, s1)
    assert rk.merge(rk.merge(s1, s2), s3) == rk.merge(s1, rk.merge(s2, s3))


def test_serialize_round_trip_clean():
    sk = rk.build(np.random.default_rng(6).standard_normal((40, 2)), _family(), 7)
    again = rk.deserialize(rk.serialize(sk))
    assert again == sk
    assert again.inserted == 40


def test_serialize_round_trip_privatized_drops_inserted():
    fam = _family(kind="euclidean", bandwidth=0.5)
    sk = rk.build(np.random.default_rng(6).standard_normal((40, 2)), fam, 7)
    released = rk.privatize(sk, rk.PrivacyBudget(2.5), rng_seed=3)
    again = rk.deserialize(rk.serialize(released))
    assert again == released
    assert again.privatized and again.epsilon == 2.5
    assert again.inserted is None


def test_deserialize_rejects_bad_magic():
    buf = bytearray(rk.serialize(rk.build(np.ones((1, 2)), _family(), 3)))
    buf[:4] = b"JUNK"
    with pytest.raises(MalformedHeaderError):
        rk.deserialize(bytes(buf))


def test_deserialize_rejects_unknown_version():
    buf = bytearray(rk.serialize(rk.build(np.ones((1, 2)), _family(), 3)))
    buf[4:6] = (999).to_bytes(2, "little")
    with pytest.raises(VersionMismatchError):
        rk.deserialize(bytes(buf))


def test_deserialize_rejects_truncation_and_trailing_bytes():
    buf = rk.serialize(rk.build(np.ones((1, 2)), _family(), 3))
    with pytest.raises(TruncationError):
        rk.deserialize(buf[: len(buf) - 5])
    with pytest.raises(TruncationError):
        rk.deserialize(buf[:20])
    with pytest.raises(MalformedHeaderError):
        rk.deserialize(buf + b"\x00")


@pytest.mark.parametrize("offset,fmt,value", [
    (40, "<d", -1.0),           # privatized epsilon
    (40, "<d", 0.0),
    (40, "<d", float("nan")),
    (16, "<I", 0),              # rows
], ids=["epsilon=-1", "epsilon=0", "epsilon=nan", "rows=0"])
def test_deserialize_maps_invalid_header_fields_to_format_error(offset, fmt, value):
    sk = rk.build(np.ones((1, 2)), _family(), 3)
    buf = bytearray(rk.serialize(rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=0)))
    struct.pack_into(fmt, buf, offset, value)
    rows, width = struct.unpack_from("<II", buf, 16)
    with pytest.raises(MalformedHeaderError):
        rk.deserialize(bytes(buf[:48 + 8 * rows * width]))


def test_deserialize_rejects_non_canonical_headers():
    clean = rk.serialize(rk.build(np.ones((1, 2)), _family(), 3))
    for offset, value in [(7, 2), (7, 0x81), (32, 1), (38, 0xF0), (39, 0x3F)]:
        buf = bytearray(clean)
        buf[offset] = value  # an unknown flag bit, or a bandwidth on an angular family
        with pytest.raises(MalformedHeaderError):
            rk.deserialize(bytes(buf))


_FUZZ_PAYLOADS = [
    rk.serialize(rk.build(np.random.default_rng(1).standard_normal((30, 2)), _family(), 3)),
    rk.serialize(rk.privatize(
        rk.build(np.random.default_rng(2).standard_normal((30, 2)),
                 _family(kind="euclidean", bandwidth=0.5, width=8), 2),
        rk.PrivacyBudget(0.5), rng_seed=1)),
    rk.serialize(rk.privatize(
        rk.build(np.random.default_rng(3).standard_normal((30, 3)),
                 _family(kind="folded-srp", dim=3, width=16), 2),
        rk.PrivacyBudget(2.0), rng_seed=2)),
]


@settings(max_examples=1000, deadline=None)
@given(payload=st.sampled_from(_FUZZ_PAYLOADS),
       edits=st.lists(st.tuples(st.integers(0, 47), st.integers(0, 255)),
                      min_size=1, max_size=3))
def test_deserialize_mutated_header_raises_or_round_trips(payload, edits):
    buf = bytearray(payload)
    for offset, value in edits:
        buf[offset] = value
    try:
        decoded = rk.deserialize(bytes(buf))
    except SketchFormatError:
        return
    assert rk.serialize(decoded) == bytes(buf)


def test_save_load_files(tmp_path):
    sk = rk.build(np.random.default_rng(7).standard_normal((20, 2)), _family(), 5)
    path = tmp_path / "s.race"
    rk.save(sk, path)
    assert rk.load(path) == sk
    released = rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=1)
    for one in (sk, released):
        rk.save(one, path)
        assert path.read_bytes() == rk.serialize(one)
    wanted = rk.serialize(sk)
    sk.counts = sk.counts.astype(">i8")  # a big-endian table is written little-endian
    rk.save(sk, path)
    assert path.read_bytes() == rk.serialize(sk) == wanted


def test_save_writes_the_table_without_copying_it(tmp_path):
    # the table went through astype, tobytes and a concatenation: three 400 KB
    # copies; a table of the reachable columns goes out padded, one block of
    # rows at a time, and a full-width one as itself
    built = rk.build(np.zeros((0, 2)), _family(), rows=1000)
    built.counts[:] = np.arange(built.counts.size).reshape(built.counts.shape)
    full = rk.RaceSketch(_whole_table(built), built.family)
    block = 8 * rk.sketch._IO_BUDGET
    for sk, bound in ((built, block + 2**14), (full, 2**16)):
        tracemalloc.start()
        try:
            rk.save(sk, tmp_path / "s.race")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert (tmp_path / "s.race").read_bytes() == rk.serialize(sk)
    assert built.counts.nbytes == 1000 * 16 * 8 and full.counts.nbytes == 1000 * 50 * 8
    assert rk.serialize(built) == rk.serialize(full)
    assert len(rk.serialize(built)) == 48 + 1000 * 50 * 8


def test_load_holds_one_copy_of_the_table(tmp_path):
    # the file's bytes and then an astype copy of its counters: twice the
    # whole table; now the reachable columns and one block of file rows
    sk = rk.build(np.zeros((0, 2)), _family(), rows=1000)
    sk.counts[:] = np.arange(sk.counts.size).reshape(sk.counts.shape)
    rk.save(sk, tmp_path / "s.race")
    tracemalloc.start()
    try:
        loaded = rk.load(tmp_path / "s.race")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == sk and loaded.counts.shape == (1000, 16)
    assert peak < loaded.counts.nbytes + 8 * rk.sketch._IO_BUDGET + 2**14
    loaded.add([0.3, 0.4])  # the table read is the sketch's own, and writable
    assert loaded.counts.sum() == sk.counts.sum() + 1000
    # a family that reaches every column is read straight into its table
    every = rk.build(np.random.default_rng(1).standard_normal((300, 2)),
                     _family(depth=12), rows=1000)
    rk.save(every, tmp_path / "e.race")
    tracemalloc.start()
    try:
        loaded = rk.load(tmp_path / "e.race")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == every and loaded.counts.shape == (1000, 50)
    assert peak < loaded.counts.nbytes + 2**14


def test_deserialize_copies_from_every_kind_of_buffer():
    # the reachable columns of a direct family are always copied out
    direct = rk.build(np.random.default_rng(7).standard_normal((20, 2)), _family(), 5)
    buf = bytearray(rk.serialize(direct))
    compact = rk.deserialize(buf)
    assert compact == direct and compact.counts.shape == (5, 16)
    assert not np.shares_memory(compact.counts, np.frombuffer(buf, np.uint8))
    # a table of every column (depth 12 codes are rebucketed into all 50)
    sk = rk.build(np.random.default_rng(7).standard_normal((20, 2)), _family(depth=12), 5)
    assert sk.counts.shape == (5, 50)
    data = rk.serialize(sk)
    from_bytes = rk.deserialize(data)
    assert from_bytes == sk and from_bytes.counts.flags.writeable
    from_bytes.add([0.3, 0.4])
    assert rk.serialize(rk.deserialize(data)) == data
    buf = bytearray(data)
    own = rk.deserialize(buf)
    assert own == sk and own.counts.flags.writeable
    assert not np.shares_memory(own.counts, np.frombuffer(buf, np.uint8))
    misaligned = memoryview(bytearray(b"\0" + data))[1:]
    copied = rk.deserialize(misaligned)
    assert copied == sk and copied.counts.flags.aligned and copied.counts.flags.writeable
    assert not np.shares_memory(copied.counts, np.frombuffer(misaligned, np.uint8))


# A release that drew noise on all 64 columns, as releases did before noise
# was limited to the reachable ones: the sha256 of its file, its n_hat, and
# the sha256 of estimate's f_hat then kde bytes on 50 queries, taken from the
# code that held every table at full width.
_OLD_RELEASE = ("f9975b3d09d7b0fa18d89319d879009a00fa5a7c9a4db2466dddd427765bce18",
                2023.1666666666667,
                {"median_of_means":
                 "d26b1de9516ac65f7e352bdd9c64bff9a2624090fabb2b1c4707524d4b36bbd6",
                 "mean": "48036f92ec9c5ae18605f40678d928aa8df2b6bfb9fa440d1b6b9c848c2de642"})


def test_a_release_with_noise_past_the_reachable_columns_loads_at_full_width(tmp_path):
    fam = rk.new_family(**_GOLDEN["srp"][0])
    clean = rk.build(_GOLDEN_POINTS[:2000], fam, 30)
    table = _whole_table(clean) + rk.laplace_noise_matrix(30, 64, 30 / 2.0, 77)
    rk.save(rk.RaceSketch(table, fam, privatized=True, epsilon=2.0), tmp_path / "old.race")
    data = (tmp_path / "old.race").read_bytes()
    digest, n_hat, answers = _OLD_RELEASE
    assert hashlib.sha256(data).hexdigest() == digest
    for old in (rk.load(tmp_path / "old.race"), rk.deserialize(data)):
        assert old.counts.shape == (30, 64) and np.array_equal(old.counts, table)
        assert old.n_hat == n_hat
        for estimator, want in answers.items():
            est = rk.estimate(old, _GOLDEN_POINTS[-50:], estimator)
            got = hashlib.sha256(est.f_hat.tobytes() + est.kde.tobytes()).hexdigest()
            assert got == want, estimator
        assert rk.serialize(old) == data
        rk.save(old, tmp_path / "again.race")
        assert (tmp_path / "again.race").read_bytes() == data


def test_load_reads_a_pipe_as_it_reads_the_file(tmp_path):
    # a clean sketch and a release with noise on every column, as _OLD_RELEASE's
    fam = rk.new_family(**_GOLDEN["srp"][0])
    clean = rk.build(_GOLDEN_POINTS[:2000], fam, 30)
    table = _whole_table(clean) + rk.laplace_noise_matrix(30, 64, 30 / 2.0, 77)
    rk.save(clean, tmp_path / "clean.race")
    rk.save(rk.RaceSketch(table, fam, privatized=True, epsilon=2.0), tmp_path / "old.race")
    assert hashlib.sha256((tmp_path / "old.race").read_bytes()).hexdigest() == _OLD_RELEASE[0]
    np.save(tmp_path / "q.npy", _GOLDEN_POINTS[-50:])
    src = os.path.dirname(os.path.dirname(rk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = ("import sys, numpy as np, racekit as rk; sk = rk.load('/dev/stdin'); "
             "q = np.load(sys.argv[1]); "
             "ests = [rk.estimate(sk, q, e) for e in ('median_of_means', 'mean')]; "
             "sys.stdout.buffer.write(b''.join([rk.serialize(sk), sk.counts.tobytes(), "
             "*(a.tobytes() for est in ests for a in est)]))")
    for name, shape in (("clean.race", (30, 16)), ("old.race", (30, 64))):
        data = (tmp_path / name).read_bytes()
        piped = subprocess.run([sys.executable, "-c", child, str(tmp_path / "q.npy")],
                               input=data, env=env, capture_output=True, check=True).stdout
        sk = rk.load(tmp_path / name)
        assert sk.counts.shape == shape
        ests = [rk.estimate(sk, _GOLDEN_POINTS[-50:], e) for e in ("median_of_means", "mean")]
        assert piped == b"".join([data, sk.counts.tobytes(),
                                  *(a.tobytes() for est in ests for a in est)])


@pytest.mark.parametrize("row", [0, 7, 29])
def test_load_widens_at_the_first_block_with_a_count_past_the_reachable_columns(
        monkeypatch, tmp_path, row):
    # blocks of 2 rows; a count in column 40 of row 0, 7 or 29
    monkeypatch.setattr(rk.sketch, "_IO_BUDGET", 2 * 50)
    clean = rk.build(np.random.default_rng(3).standard_normal((200, 2)), _family(), 30)
    table = _whole_table(clean)
    table[row, int(np.argmax(table[row]))] -= 1
    table[row, 40] += 1
    crafted = rk.RaceSketch(table, clean.family, inserted=clean.inserted)
    rk.save(crafted, tmp_path / "c.race")
    loaded = rk.load(tmp_path / "c.race")
    assert loaded.counts.shape == (30, 50) and np.array_equal(loaded.counts, table)
    assert loaded == crafted == rk.deserialize((tmp_path / "c.race").read_bytes())
    assert loaded != clean
    assert rk.serialize(loaded) == (tmp_path / "c.race").read_bytes()
    rk.save(clean, tmp_path / "s.race")
    assert rk.load(tmp_path / "s.race").counts.shape == (30, 16)


def test_load_names_a_fault_as_deserialize_does(tmp_path):
    data = rk.serialize(rk.build(np.ones((4, 2)), _family(), 3))
    faults = [data[:20], data[:47], data[:-5], data + b"\0", b"JUNK" + data[4:]]
    for i, buf in enumerate(faults):
        path = tmp_path / f"{i}.race"
        path.write_bytes(buf)
        with pytest.raises(SketchFormatError) as want:
            rk.deserialize(buf)
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            rk.load(path)


def test_equality_compares_whole_tables():
    sk = rk.build(np.random.default_rng(2).standard_normal((50, 2)), _family(), 10)
    full = rk.RaceSketch(_whole_table(sk), sk.family, inserted=sk.inserted)
    assert sk == full and full == sk
    table = _whole_table(sk)
    table[3, 40] = 1  # a count past the reachable columns, which sk holds as 0
    for other in (rk.RaceSketch(table, sk.family, inserted=sk.inserted),
                  rk.RaceSketch(table[:, :41], sk.family, inserted=sk.inserted)):
        assert sk != other and other != sk


def test_merge_takes_a_full_width_table_with_a_reachable_one():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((120, 2)), rng.standard_normal((80, 2))
    fam = _family()
    compact = rk.build(b, fam, 40)
    full = rk.build(a, fam, 40)
    full = rk.RaceSketch(_whole_table(full), fam, inserted=full.inserted)
    union = rk.build(np.vstack([a, b]), fam, 40)
    for merged in (rk.merge(full, compact), rk.merge(compact, full)):
        assert merged == union and merged.counts.shape == (40, 16)
    # a count past the reachable columns is kept, at full width
    table = _whole_table(compact)
    table[0, int(np.argmax(table[0]))] -= 1
    table[0, 30] += 1
    crafted = rk.RaceSketch(table, fam, inserted=compact.inserted)
    merged = rk.merge(crafted, rk.build(a, fam, 40))
    assert merged.counts.shape == (40, 50) and merged.counts[0, 30] == 1
    assert np.array_equal(merged.counts, _whole_table(union) + table - _whole_table(compact))


def test_build_takes_point_matrices_within_a_stream(monkeypatch):
    monkeypatch.setattr(rk.sketch, "_CHUNK", 5)
    pts = np.random.default_rng(8).standard_normal((23, 2))
    whole = rk.build(pts, _family(), rows=4)
    # a short block, then longer ones: the bucket buffer grows to the longest
    stream = [pts[:2], pts[2], pts[3:12], *pts[12:14], pts[14:23]]
    assert rk.build(iter(stream), _family(), rows=4, threads=2) == whole


def test_counts_are_int64_and_sized_by_rows_width():
    # rows times the reachable width: 16 of 50 columns for depth 4 codes, all
    # 50 when depth 12 codes are rebucketed
    for depth, live in ((4, 16), (12, 50)):
        sk = rk.build(np.ones((10, 2)), _family(depth=depth), rows=6)
        assert sk.counts.dtype == np.int64
        assert sk.family.reachable_width == live
        assert sk.counts.nbytes == 6 * live * 8
        assert sk.width == 50 and len(rk.serialize(sk)) == 48 + 6 * 50 * 8


def test_sketch_constructor_validation():
    fam = _family()
    with pytest.raises(InvalidParameterError):
        rk.RaceSketch(np.zeros((3, 7), dtype=np.int64), fam)  # wrong width
    with pytest.raises(InvalidParameterError):
        rk.RaceSketch(np.zeros((3, 50), dtype=np.int64), fam, privatized=True)
    with pytest.raises(InvalidParameterError):
        rk.RaceSketch(np.zeros((3, 50), dtype=np.int64), fam,
                      privatized=True, epsilon=1.0, inserted=5)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 6), width=st.integers(2, 9), depth=st.integers(1, 6),
       seed=st.integers(0, 2**64 - 1), private=st.booleans(),
       eps=st.floats(0.01, 100.0))
def test_serialize_round_trip_property(rows, width, depth, seed, private, eps):
    fam = rk.new_family("srp", dim=2, depth=depth, width=width, seed=seed)
    counts = np.random.default_rng(0).integers(-5, 50, size=(rows, width))
    if private:
        sk = rk.RaceSketch(counts, fam, privatized=True, epsilon=eps)
    else:
        sk = rk.RaceSketch(np.abs(counts), fam, inserted=int(np.abs(counts)[0].sum()))
    assert rk.deserialize(rk.serialize(sk)) == sk
