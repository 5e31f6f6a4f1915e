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

import collections
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
# (rows, chunk) bucket array of a chunk in flight holds at most
# _CHUNK_BUDGET / depth entries; peak memory is the sketch plus `threads`
# such bucket arrays for any stream length, as the caller does every count.
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


def _row_blocks(counts: np.ndarray, buckets: np.ndarray):
    """Yield ``(row slice, flat counters, flat indices)`` per block of rows.

    The counters view the C-contiguous (R, W) table; the indices, ``bucket +
    r * W`` from the block's first row, fill one reused ``_INDEX_BUDGET`` buffer.
    """
    rows, n = buckets.shape
    step = min(rows, max(1, _INDEX_BUDGET // max(n, 1)))
    base = _row_base(step, counts.shape[1])
    index = np.empty((step, n), np.intp)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        np.add(buckets[r0:r1], base[:r1 - r0, None], out=index[:r1 - r0])
        yield slice(r0, r1), counts[r0:r1].ravel(), index[:r1 - r0]


def _scatter(counts: np.ndarray, buckets: np.ndarray) -> None:
    """Count (R, n) buckets into the (R, W) table: one increment per row and point."""
    for _, flat, index in _row_blocks(counts, buckets):
        # add.at over bincount, at R=1000, W=500: 0.3x the time at n = W/10,
        # 0.8x at n = W, 1.0x at 2W and 1.05-1.28x on the dense build blocks
        if index.size < flat.size:
            np.add.at(flat, index.ravel(), 1)
        else:
            flat += np.bincount(index.ravel(), minlength=flat.size)


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
        """Insert one point: increments one counter in every row."""
        if self.privatized:
            raise FrozenSketchError("cannot add to a privatized sketch")
        _scatter(self.counts,
                 lsh.hash_batch(self.family, self.rows, np.asarray(x, float)[None, :]))
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
    in memory. With ``threads > 1`` a pool hashes up to ``threads`` chunks of
    the same stream at once and the caller counts each chunk in stream order,
    so the result is identical to the single-threaded build and peak memory
    is the table plus ``threads`` chunks' bucket arrays. While the pool runs,
    numpy's OpenBLAS is held at one thread (for the whole process), since each
    builder's projection matmul would otherwise start its own BLAS threads
    and oversubscribe the cores; when that BLAS cannot be found, the build
    runs on one thread.
    """
    if rows < 1:
        raise InvalidParameterError(f"rows must be >= 1, got {rows}")
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    chunk = int(np.clip(_CHUNK_BUDGET // (rows * family.depth), 1, 8192))
    counts = np.zeros((rows, family.width), dtype=np.int64)
    blas = _numpy_openblas() if threads > 1 else None
    if blas is None:
        threads = 1
    inserted, pending = 0, collections.deque()
    with contextlib.ExitStack() as stack:
        pool = None
        if threads > 1:
            stack.enter_context(_one_blas_thread(blas))
            pool = stack.enter_context(ThreadPoolExecutor(threads))
        for block in _iter_chunks(data, family.dim, chunk):
            inserted += block.shape[0]
            if pool is None:
                _scatter(counts, lsh.hash_batch(family, rows, block))
                continue
            if len(pending) == threads:
                _scatter(counts, pending.popleft().result())
            pending.append(pool.submit(lsh.hash_batch, family, rows, block))
        for buckets in pending:
            _scatter(counts, buckets.result())
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
