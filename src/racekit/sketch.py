"""The RACE counter matrix: one-pass build, streaming updates, merge, serialization.

A sketch is an R x W array of signed 64-bit counters plus the LSH family that
indexes it. Building is a single pass: each point increments exactly one
counter per row, so every row of a clean sketch sums to the number of inserted
points. Clean sketches from the same family merge by elementwise addition;
privatized sketches are frozen (no add, no merge) because the release
mechanism is one-shot.

Binary format (``.race`` files), little-endian, version 1:

====== ====== ===========================================
offset size   field
====== ====== ===========================================
0      4      magic ``b"RACE"``
4      2      format version, u16 (currently 1)
6      1      family kind: 0 = srp, 1 = euclidean, 3 = folded-srp
              (2, the retired asymmetric-srp pair sketch, is rejected)
7      1      flags: bit 0 = privatized, other bits 0
8      4      dim, u32
12     4      depth, u32
16     4      rows (R), u32
20     4      width (W), u32
24     8      family seed, u64
32     8      bandwidth, f64 (the NaN 0x7ff8... when the family has none)
40     8      epsilon (f64) if privatized, else inserted count (u64)
48     8*R*W  counters, i64, row-major
====== ====== ===========================================

The exact element count is serialized only for clean sketches; a privatized
sketch carries no record of it. Decoders must reject unknown versions and
any header an encoder would not write, so a decoded file re-encodes exactly.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import lsh
from .errors import (
    DimensionMismatchError,
    FrozenSketchError,
    IncompatibleSketchError,
    InvalidParameterError,
    MalformedHeaderError,
    TruncationError,
    VersionMismatchError,
)
from .lsh import HashKind, LshFamily

_MAGIC = b"RACE"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBIIIIQd")
_KIND_CODES = {HashKind.SRP: 0, HashKind.EUCLIDEAN: 1, HashKind.FOLDED_SRP: 3}
_KIND_FROM_CODE = {v: k for k, v in _KIND_CODES.items()}
_NO_BANDWIDTH = struct.pack("<d", float("nan"))  # an angular family's bandwidth bytes

# Sizes build chunks at _CHUNK_BUDGET // (rows * depth) points, so the
# (rows, chunk) bucket array of the one chunk in flight holds at most
# _CHUNK_BUDGET / depth entries, for any stream length and thread count.
_CHUNK_BUDGET = 32_000_000
# Flat counter indices (intp) per block of rows counted or read, about 4 MiB:
# one index over a whole chunk or query batch (80 MB for 10k points at R=1000)
# would be allocated and page-faulted in afresh for every call.
_INDEX_BUDGET = 1 << 19


@functools.lru_cache(maxsize=16)
def _row_base(rows: int, width: int) -> np.ndarray:
    """Flat offset of each row's first counter, ``r * width``, read-only."""
    base = np.arange(0, rows * width, width)
    base.flags.writeable = False
    return base


def _row_blocks(counts: np.ndarray, buckets: np.ndarray, budget: int | None = None):
    """Yield ``(row slice, flat counters, flat indices)`` per block of rows.

    The counters view the C-contiguous (R, W) table; the indices, ``bucket +
    r * W`` from the block's first row, fill one reused buffer of about
    ``budget`` entries (default ``_INDEX_BUDGET``).
    """
    rows, n = buckets.shape
    step = min(rows, max(1, (_INDEX_BUDGET if budget is None else budget) // max(n, 1)))
    base = _row_base(step, counts.shape[1])
    index = np.empty((step, n), np.intp)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        np.add(buckets[r0:r1], base[:r1 - r0, None], out=index[:r1 - r0])
        yield slice(r0, r1), counts[r0:r1].ravel(), index[:r1 - r0]


def _scatter(counts: np.ndarray, buckets: np.ndarray, budget: int | None = None) -> None:
    """Count (R, n) buckets into the (R, W) table: one increment per row and point.

    When the buckets' alphabet A (the largest + 1) is narrow, ``4 * A**2 <= n``,
    rows go in pairs through ``_count_pairs``; an odd last row, and every row
    of a wider alphabet, through ``bincount`` (``add.at`` on blocks shorter
    than their counters). Blocks hold about ``budget`` flat indices (default
    ``_INDEX_BUDGET``).
    """
    rows, n = buckets.shape
    budget = _INDEX_BUDGET if budget is None else budget
    alphabet = int(buckets.max(initial=0)) + 1
    paired = rows - rows % 2 if 4 * alphabet * alphabet <= n else 0
    if paired:
        _count_pairs(counts[:paired], buckets[:paired], alphabet, budget)
    if paired == rows:
        return
    for _, flat, index in _row_blocks(counts[paired:], buckets[paired:], budget):
        # add.at over bincount, at R=1000, W=500: 0.3x the time at n = W/10,
        # 0.8x at n = W, 1.0x at 2W and 1.05-1.28x on the dense build blocks
        if index.size < flat.size:
            np.add.at(flat, index.ravel(), 1)
        else:
            flat += np.bincount(index.ravel(), minlength=flat.size)


def _count_pairs(counts: np.ndarray, buckets: np.ndarray, alphabet: int,
                 budget: int) -> None:
    """Count an even number of rows two at a time over an alphabet of ``alphabet``.

    Rows 2g and 2g+1 give each point one key ``b[2g+1] * A + b[2g]`` of an
    A x A joint table; one ``bincount`` per block of pairs fills the joint
    tables and their two marginals are the two rows' counts. Half as many
    increments land on A**2 counters in place of A, where a narrow row's few
    live counters would be hit back to back: an ingest chunk (cube-scaled
    points, A = 16, n = 8000, R = 1000) counts in 12-14 ms, against 25-27 ms
    one row at a time (median, 2 vCPUs, numpy 2.4). Blocks hold about
    ``budget`` flat indices.
    """
    pairs, n = buckets.shape[0] // 2, buckets.shape[1]
    cells = alphabet * alphabet
    step = min(pairs, max(1, budget // n))
    base = _row_base(step, cells)
    keys = np.empty((step, n), np.min_scalar_type(cells - 1))
    index = np.empty((step, n), np.intp)
    for g0 in range(0, pairs, step):
        g1 = min(g0 + step, pairs)
        two = buckets[2 * g0:2 * g1].reshape(g1 - g0, 2, n)
        key = np.multiply(two[:, 1], alphabet, out=keys[:g1 - g0], dtype=keys.dtype)
        np.add(key, two[:, 0], out=key)
        np.add(key, base[:g1 - g0, None], out=index[:g1 - g0])
        joint = np.bincount(index[:g1 - g0].ravel(), minlength=(g1 - g0) * cells)
        joint = joint.reshape(g1 - g0, alphabet, alphabet)
        counts[2 * g0:2 * g1:2, :alphabet] += joint.sum(axis=1)
        counts[2 * g0 + 1:2 * g1:2, :alphabet] += joint.sum(axis=2)


class RaceSketch:
    """R x W counter matrix with its family descriptor and privatization state."""

    def __init__(self, counts: np.ndarray, family: LshFamily, *,
                 privatized: bool = False, epsilon: float | None = None,
                 inserted: int | None = None):
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] != family.width:
            raise InvalidParameterError(
                f"counts must be (rows, {family.width}), got shape {counts.shape}")
        self.counts = np.ascontiguousarray(counts, dtype=np.int64)
        self.family = family
        self.privatized = bool(privatized)
        if self.privatized:
            if epsilon is None or not epsilon > 0:
                raise InvalidParameterError("a privatized sketch needs epsilon > 0")
            if inserted is not None:
                raise InvalidParameterError("a privatized sketch must not carry 'inserted'")
            self.epsilon = float(epsilon)
            self.inserted = None
        else:
            if epsilon is not None:
                raise InvalidParameterError("epsilon is only set by privatization")
            self.epsilon = None
            self.inserted = int(inserted or 0)
            if self.inserted < 0:
                raise InvalidParameterError("inserted must be >= 0")

    @property
    def rows(self) -> int:
        return self.counts.shape[0]

    @property
    def width(self) -> int:
        return self.counts.shape[1]

    @functools.cached_property
    def n_hat(self) -> float:
        """Estimated dataset size, the grand counter total over the row count.

        Computed once per counter state; ``add`` drops the cached value.
        """
        return float(self.counts.sum()) / self.rows

    def descriptor(self) -> tuple:
        """Everything that must match for two sketches to be merge-compatible."""
        return (self.family, self.rows, self.width)

    def add(self, x) -> None:
        """Insert one point, in any shape holding ``dim`` values: one counter per row."""
        if self.privatized:
            raise FrozenSketchError("cannot add to a privatized sketch")
        point = lsh._as_vector(x, self.family.dim)
        _scatter(self.counts, lsh.hash_batch(self.family, self.rows, point[None, :]))
        self.inserted += 1
        self.__dict__.pop("n_hat", None)

    def row_sums_consistent(self) -> bool:
        """True when every row sums to the inserted count (clean sketches only)."""
        if self.privatized:
            return False
        return bool((self.counts.sum(axis=1) == self.inserted).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RaceSketch):
            return NotImplemented
        return (self.family == other.family
                and self.privatized == other.privatized
                and self.epsilon == other.epsilon
                and self.inserted == other.inserted
                and self.counts.shape == other.counts.shape
                and bool((self.counts == other.counts).all()))

    def __repr__(self) -> str:
        state = f"privatized eps={self.epsilon}" if self.privatized \
            else f"clean n={self.inserted}"
        return (f"RaceSketch(rows={self.rows}, width={self.width}, "
                f"kind={self.family.kind.value}, {state})")


def _iter_chunks(data, dim: int, chunk: int):
    """Yield (n_chunk, dim) float64 blocks from an array or a point stream."""
    pts = getattr(data, "points", data)
    if isinstance(pts, np.ndarray):
        mat = lsh._as_matrix(pts, dim)
        yield from (mat[start:start + chunk] for start in range(0, mat.shape[0], chunk))
        return
    buf = []
    for row in pts:
        buf.append(lsh._as_vector(row, dim))
        if len(buf) == chunk:
            yield np.vstack(buf)
            buf = []
    if buf:
        yield np.vstack(buf)


# Holders of the one-thread BLAS setting and the thread count to restore when
# the last of them ends, so overlapping threaded builds restore it once.
_BLAS_LOCK = threading.Lock()
_blas_holders = 0
_blas_restore = 1


@functools.lru_cache(maxsize=1)
def _numpy_openblas():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None.

    numpy wheels ship it under ``numpy.libs``; it is already loaded, so
    opening it again returns the same library. scipy loads a second OpenBLAS,
    which numpy's matmul never calls.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread(blas):
    """Run numpy's OpenBLAS on one thread inside the block, then restore it."""
    global _blas_holders, _blas_restore
    get, set_ = blas
    with _BLAS_LOCK:
        if _blas_holders == 0:
            _blas_restore = get()
            set_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_(_blas_restore)


def build(data, family: LshFamily, rows: int, *, threads: int = 1) -> RaceSketch:
    """One-pass sketch construction.

    ``data`` may be an (N, dim) array, a Dataset, or any iterable of points.
    Points are hashed in bounded-size chunks, so a stream never needs to fit
    in memory. Each chunk's rows are cut into ``min(threads, rows)``
    contiguous ranges; each thread hashes its range of rows
    (``lsh.hash_batch`` with a row range) and counts it into those rows of
    the table, the calling thread taking the first range, and the next chunk
    starts when every range is counted. Every counter thus has one writer and
    the result is byte-identical for every ``threads``.

    Peak memory is the table, one chunk's bucket array and one hash budget,
    which the threads share, for any ``threads``. Each pool thread adds a
    fixed cost: its allocator arena keeps the high-water mark of its hash and
    count buffers resident, and OpenBLAS gives a second concurrent caller its
    own buffer (about 3 MB of RSS per thread, measured at R=1000 on
    8000-point chunks with glibc and numpy 2.4's OpenBLAS). While the pool
    runs, numpy's OpenBLAS is held at one thread (for the whole process),
    since each thread's projection matmul would otherwise start its own BLAS
    threads and oversubscribe the cores; when that BLAS cannot be found, the
    build runs on one thread.
    """
    if rows < 1:
        raise InvalidParameterError(f"rows must be >= 1, got {rows}")
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    chunk = int(np.clip(_CHUNK_BUDGET // (rows * family.depth), 1, 8192))
    counts = np.zeros((rows, family.width), dtype=np.int64)
    threads = min(threads, rows)
    blas = _numpy_openblas() if threads > 1 else None
    if blas is None:
        threads = 1
    cuts = [rows * i // threads for i in range(threads + 1)]
    spans = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    def count(span, block, buckets):
        # the ranges split one hash budget and one count budget by their rows;
        # the caller's bucket array keeps the pool threads' allocations small,
        # which their allocator arenas would otherwise hold on to
        mine = lsh.hash_batch(family, span, block, table=rows,
                              out=buckets[span.start:span.stop])
        _scatter(counts[span.start:span.stop], mine, _INDEX_BUDGET * len(span) // rows)

    inserted, pool, out = 0, None, None
    with contextlib.ExitStack() as stack:
        if threads > 1:
            stack.enter_context(_one_blas_thread(blas))
            pool = stack.enter_context(ThreadPoolExecutor(threads - 1))
            lsh._row_params(family, rows)  # drawn once here, not by each thread at once
        for block in _iter_chunks(data, family.dim, chunk):
            inserted += block.shape[0]
            if out is None:  # the first chunk is the longest
                out = np.empty((rows, block.shape[0]), family._plan.out_dtype)
            buckets = out[:, :block.shape[0]]
            others = [pool.submit(count, span, block, buckets) for span in spans[1:]]
            count(spans[0], block, buckets)
            for other in others:
                other.result()
    return RaceSketch(counts, family, inserted=inserted)


def merge(a: RaceSketch, b: RaceSketch) -> RaceSketch:
    """Elementwise sum of two clean, descriptor-identical sketches."""
    if a.privatized or b.privatized:
        raise FrozenSketchError("privatized sketches cannot be merged")
    if a.descriptor() != b.descriptor():
        raise IncompatibleSketchError(
            f"sketch descriptors differ: {a.descriptor()} vs {b.descriptor()}")
    return RaceSketch(a.counts + b.counts, a.family,
                      inserted=a.inserted + b.inserted)


def serialize(sketch: RaceSketch) -> bytes:
    """Encode to the canonical little-endian byte layout (see module docstring)."""
    fam = sketch.family
    bandwidth = fam.bandwidth if fam.bandwidth is not None else float("nan")
    header = _HEADER.pack(_MAGIC, _VERSION, _KIND_CODES[fam.kind],
                          1 if sketch.privatized else 0,
                          fam.dim, fam.depth, sketch.rows, sketch.width,
                          fam.seed, bandwidth)
    if sketch.privatized:
        tail = struct.pack("<d", sketch.epsilon)
    else:
        tail = struct.pack("<Q", sketch.inserted)
    return header + tail + sketch.counts.astype("<i8").tobytes()


def deserialize(buf: bytes) -> RaceSketch:
    """Decode a sketch, rejecting non-canonical headers and payloads of the wrong length."""
    if len(buf) < _HEADER.size + 8:
        raise TruncationError(f"buffer of {len(buf)} bytes is shorter than the header")
    magic, version, kind_code, flags, dim, depth, rows, width, seed, bandwidth = \
        _HEADER.unpack_from(buf, 0)
    if magic != _MAGIC:
        raise MalformedHeaderError(f"bad magic bytes {magic!r}")
    if version != _VERSION:
        raise VersionMismatchError(f"unsupported format version {version}")
    if kind_code == 2:
        raise MalformedHeaderError("kind code 2 is the retired asymmetric-srp pair sketch; "
                                   "regression sketches are now folded-srp (code 3)")
    if kind_code not in _KIND_FROM_CODE:
        raise MalformedHeaderError(f"unknown family kind code {kind_code}")
    kind = _KIND_FROM_CODE[kind_code]
    if flags & ~1:
        raise MalformedHeaderError(f"unknown flag bits {flags:#04x}")
    if kind.angular and buf[_HEADER.size - 8:_HEADER.size] != _NO_BANDWIDTH:
        raise MalformedHeaderError(f"an angular family has no bandwidth, got {bandwidth!r}")
    privatized = bool(flags)
    if privatized:
        (epsilon,) = struct.unpack_from("<d", buf, _HEADER.size)
        inserted = None
    else:
        epsilon = None
        (inserted,) = struct.unpack_from("<Q", buf, _HEADER.size)
    body = _HEADER.size + 8
    expected = body + 8 * rows * width
    if len(buf) < expected:
        raise TruncationError(f"expected {expected} bytes, got {len(buf)}")
    if len(buf) > expected:
        raise MalformedHeaderError(f"{len(buf) - expected} trailing bytes after payload")
    counts = np.frombuffer(buf, dtype="<i8", count=rows * width, offset=body)
    counts = counts.astype(np.int64).reshape(rows, width)
    try:
        family = LshFamily(kind=kind, dim=dim, depth=depth, width=width,
                           bandwidth=bandwidth, seed=seed)
        return RaceSketch(counts, family, privatized=privatized,
                          epsilon=epsilon, inserted=inserted)
    except InvalidParameterError as exc:
        raise MalformedHeaderError(f"invalid header fields: {exc}") from exc


def save(sketch: RaceSketch, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(sketch))


def load(path) -> RaceSketch:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
