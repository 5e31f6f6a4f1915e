import hashlib
import struct
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
    buckets = rk.hash_batch(fam, 15, pts)
    for r in range(15):
        for j in range(fam.width):
            assert sk.counts[r, j] == int((buckets[r] == j).sum())


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
    monkeypatch.setattr(rk.sketch, "_CHUNK_BUDGET", 60 * rows * 4)  # 60-point chunks
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
])
@pytest.mark.parametrize("budget", [None, 1])
def test_pair_count_equals_one_row_at_a_time(monkeypatch, rows, n, alphabet, budget):
    rng = np.random.default_rng(rows * n)
    buckets = rng.integers(0, alphabet, size=(rows, n)).astype(np.uint8)
    buckets[0, 0] = alphabet - 1  # the alphabet is the largest bucket + 1
    width = 20
    pairs = []
    count_pairs = rk.sketch._count_pairs
    monkeypatch.setattr(rk.sketch, "_count_pairs",
                        lambda c, b, a, s: pairs.append(len(b)) or count_pairs(c, b, a, s))
    # a row slice of a wider table, counted on top of what it holds
    table = rng.integers(0, 5, size=(rows + 3, width))
    want = table.copy()
    want[2:rows + 2] += _bincount_reference(width, buckets)
    rk.sketch._scatter(table[2:rows + 2], buckets, budget)
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
    monkeypatch.setattr(rk.sketch, "_CHUNK_BUDGET", chunk * 30 * params["depth"])
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
    monkeypatch.setattr(rk.sketch, "_CHUNK_BUDGET", 50 * 5 * 4)  # 50-point chunks
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
    monkeypatch.setattr(rk.sketch, "_CHUNK_BUDGET", 50 * 5 * 4)  # 50-point chunks
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
    # a 16 MB table against 4 MB bucket arrays of 2000-point chunks; the
    # threads' row ranges share one chunk's buckets, one hash budget and one
    # count block, so the peak is the same for any thread count
    fam = rk.new_family("srp", dim=2, depth=8, width=1000, seed=3)
    pts = np.random.default_rng(7).standard_normal((6000, 2))
    # one chunk's buckets and one hash budget
    tracemalloc.start()
    try:
        rk.hash_batch(fam, 2000, pts[:2000])
        hashing = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one count block: its intp indices and a bincount no longer than them
    count_block = 2 * rk.sketch._INDEX_BUDGET * np.dtype(np.intp).itemsize
    for threads in (2, 3, 4):
        tracemalloc.start()
        try:
            sk = rk.build(pts, fam, 2000, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sk.inserted == 6000
        assert peak <= sk.counts.nbytes + hashing + count_block, threads


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


def test_counts_are_int64_and_sized_by_rows_width():
    sk = rk.build(np.ones((10, 2)), _family(), rows=6)
    assert sk.counts.dtype == np.int64
    assert sk.counts.nbytes == 6 * 50 * 8


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
