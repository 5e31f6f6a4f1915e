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

In memory a table holds only a prefix of its W columns: ``counts`` is
(R, k) with ``LshFamily.reachable_width <= k <= W``, and every column past k
is 0. ``build`` and ``merge`` give tables of the reachable columns (16 of
500 at the CLI defaults), and ``add`` and a release keep the columns of the
table they are given. The file layout does not change: ``save``
and ``serialize`` write every row padded with zeros to W, and ``load`` and
``deserialize`` read it through one block reader that keeps the reachable
columns when the file's other columns are all 0. Files that hold a non-zero
count there, such as releases that drew noise on every column, keep all W
columns, so they answer and re-encode as they always have. Builds hash their
points in chunks of a fixed 8000, one block of rows at a time, and count each
block with one ``bincount`` as soon as it is hashed.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
import stat
import struct
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

# Points per build chunk, and per CSV chunk that ``racekit build`` parses:
# a chunk is hashed one block of rows at a time, so its length bounds only the
# chunk's own (chunk, dim) floats, for any table size and thread count.
_CHUNK = 8000
# Counters per block of whole rows that save pads and load reads, 64 KiB.
_IO_BUDGET = 1 << 13
_BODY = _HEADER.size + 8  # the bytes before the counters


@functools.lru_cache(maxsize=16)
def _row_base(rows: int, width: int) -> np.ndarray:
    """Flat offset of each row's first counter, ``r * width``: a read-only (rows, 1) column."""
    base = np.arange(0, rows * width, width)[:, None]
    base.flags.writeable = False
    return base


def _scatter(counts: np.ndarray, buckets: np.ndarray) -> None:
    """Count (R, n) buckets into the (R, W) table: one increment per row and point.

    When the buckets' alphabet A (the largest + 1) is narrow, ``4 * A**2 <= n``,
    rows go in pairs through ``_count_pairs``; an odd last row, and every row
    of a wider alphabet, through one ``bincount`` over the flat indices
    ``bucket + r * W``. The caller bounds the block: :func:`build` hands over
    one hash block, at most ``lsh._BLOCK_BUDGET // (depth * n)`` rows.
    """
    rows, n = buckets.shape
    alphabet = int(buckets.max(initial=0)) + 1
    paired = rows - rows % 2 if 4 * alphabet * alphabet <= n else 0
    if paired:
        _count_pairs(counts[:paired], buckets[:paired], alphabet)
    if paired < rows:
        flat = counts[paired:].ravel()  # a view: the table's rows are contiguous
        index = buckets[paired:] + _row_base(rows - paired, counts.shape[1])
        flat += np.bincount(index.ravel(), minlength=flat.size)


def _count_pairs(counts: np.ndarray, buckets: np.ndarray, alphabet: int) -> None:
    """Count an even number of rows two at a time over an alphabet of ``alphabet``.

    Rows 2g and 2g+1 give each point one key ``b[2g+1] * A + b[2g]`` of an
    A x A joint table; one ``bincount`` fills the joint tables and their two
    marginals are the two rows' counts. Half as many increments land on A**2
    counters in place of A, where a narrow row's few live counters would be
    hit back to back: an ingest chunk (cube-scaled points, A = 16, n = 8000,
    R = 1000) counts in 12-14 ms, against 25-27 ms one row at a time (median,
    2 vCPUs, numpy 2.4). The caller bounds the block, as for :func:`_scatter`.
    """
    pairs, n = buckets.shape[0] // 2, buckets.shape[1]
    cells = alphabet * alphabet
    two = buckets.reshape(pairs, 2, n)
    key = np.multiply(two[:, 1], alphabet, dtype=np.min_scalar_type(cells - 1))
    key += two[:, 0]
    joint = np.bincount((key + _row_base(pairs, cells)).ravel(), minlength=pairs * cells)
    joint = joint.reshape(pairs, alphabet, alphabet)
    counts[0::2, :alphabet] += joint.sum(axis=1)
    counts[1::2, :alphabet] += joint.sum(axis=2)


def _live_prefix(counts: np.ndarray, live: int) -> np.ndarray:
    """``counts`` itself, or a view of its first ``live`` columns when the rest are all 0."""
    return counts if live == counts.shape[1] or counts[:, live:].any() else counts[:, :live]


class RaceSketch:
    """R x W counter matrix with its family descriptor and privatization state.

    ``counts`` holds columns ``[0, k)`` of the table, ``family.reachable_width
    <= k <= width``; every column past k is 0. Equality compares whole tables.
    """

    def __init__(self, counts: np.ndarray, family: LshFamily, *,
                 privatized: bool = False, epsilon: float | None = None,
                 inserted: int | None = None):
        counts = np.asarray(counts)
        live, width = family.reachable_width, family.width
        if counts.ndim != 2 or counts.shape[0] < 1 or not live <= counts.shape[1] <= width:
            raise InvalidParameterError(
                f"counts must be (rows, k) with {live} <= k <= {width}, "
                f"got shape {counts.shape}")
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
        return self.family.width

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
        point = lsh._as_vector(x, self.family.dim)[None, :]
        lsh._check_finite(point)  # once, off the point's norm
        buckets = lsh.hash_batch(self.family, self.rows, point, checked=True)
        # one counter in each row, so no index repeats and a buffered += is exact
        self.counts.ravel()[buckets + _row_base(*self.counts.shape)] += 1
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
        k = min(self.counts.shape[1], other.counts.shape[1])
        return (self.family == other.family
                and self.privatized == other.privatized
                and self.epsilon == other.epsilon
                and self.inserted == other.inserted
                and self.rows == other.rows
                and np.array_equal(self.counts[:, :k], other.counts[:, :k])
                and not self.counts[:, k:].any() and not other.counts[:, k:].any())

    def __repr__(self) -> str:
        state = f"privatized eps={self.epsilon}" if self.privatized \
            else f"clean n={self.inserted}"
        return (f"RaceSketch(rows={self.rows}, width={self.width}, "
                f"kind={self.family.kind.value}, {state})")


def _iter_chunks(data, dim: int):
    """Yield float64 chunks of at most ``_CHUNK`` points from an array or a stream."""
    def blocks(pts):
        mat = lsh._as_matrix(pts, dim)
        return (mat[start:start + _CHUNK] for start in range(0, mat.shape[0], _CHUNK))

    pts = getattr(data, "points", data)
    if isinstance(pts, np.ndarray):
        yield from blocks(pts)
        return
    buf = []
    for row in pts:
        if isinstance(row, np.ndarray) and row.ndim == 2 and row.shape[1] == dim:
            yield from blocks(row)  # a matrix of points, such as a parsed CSV chunk
            continue
        buf.append(lsh._as_vector(row, dim))
        if len(buf) == _CHUNK:
            yield np.vstack(buf)
            buf = []
    if buf:
        yield np.vstack(buf)


def build(data, family: LshFamily, rows: int, *, threads: int = 1) -> RaceSketch:
    """One-pass sketch construction.

    ``data`` may be an (N, dim) array, a Dataset, or any iterable of points
    and of (n, dim) point matrices, such as the chunks
    :func:`racekit.io.csv_chunks` parses, which ``racekit build`` reads at the
    build's own chunk length. Points are hashed in chunks of ``_CHUNK`` (8000)
    points, so a stream never needs to fit in memory. Each chunk's rows are
    cut into ``min(threads, rows)`` contiguous ranges; each thread hashes its
    range of rows (``lsh.hash_batch`` with a row range) and counts it into
    those rows of the table, the calling thread taking the first range, and
    the next chunk starts when every range is counted. A thread walks its
    range one hash block of ``lsh._BLOCK_BUDGET // (depth * n)`` rows at a
    time, the only blocking of the write path, and counts each block as soon
    as it is hashed (:func:`_scatter`, one ``bincount``). Every counter thus
    has one writer and the result is byte-identical for every ``threads``.

    Peak memory is the table of ``rows * reachable_width`` counters, one
    chunk of points, the row parameters (``lsh._row_params``) and, per
    thread, one tile of projections (``8 * lsh._TILE_BUDGET`` bytes, equal
    to ``lsh._BLOCK_BUDGET``), one hash block's sign bytes
    (``lsh._BLOCK_BUDGET``) and buckets and their count: about 6.25 *
    ``lsh._BLOCK_BUDGET`` bytes (3.3 MB) at depth 4, for any data length.
    Each pool thread adds a fixed cost: its allocator arena keeps the
    high-water mark of its hash and count buffers resident, and the BLAS
    gives a second concurrent caller its own buffer. ``threads`` is honoured
    on every numpy build, and numpy's BLAS is left as the process set it.
    """
    try:
        rows, threads = operator.index(rows), operator.index(threads)
    except TypeError as exc:
        raise InvalidParameterError(f"rows and threads must be integers: {exc}") from None
    if rows < 1 or threads < 1:
        raise InvalidParameterError(f"rows and threads must be >= 1, got {rows}, {threads}")
    counts = np.zeros((rows, family.reachable_width), dtype=np.int64)
    threads = min(threads, rows)
    cuts = [rows * i // threads for i in range(threads + 1)]
    spans = [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    def count(span, points):
        step = max(1, lsh._BLOCK_BUDGET // (family.depth * points.shape[0]))
        for r0 in range(span.start, span.stop, step):
            r1 = min(r0 + step, span.stop)
            _scatter(counts[r0:r1], lsh.hash_batch(family, range(r0, r1), points,
                                                   table=rows, checked=True))

    if threads > 1:
        lsh._row_params(family, rows)  # drawn once here, not by each thread at once
    inserted = 0
    with ThreadPoolExecutor(threads - 1) if threads > 1 else contextlib.nullcontext() as pool:
        for points in _iter_chunks(data, family.dim):
            lsh._check_finite(points)  # once, not once per hash block
            inserted += points.shape[0]
            others = [pool.submit(count, span, points) for span in spans[1:]]
            count(spans[0], points)
            for other in others:
                other.result()
    return RaceSketch(counts, family, inserted=inserted)


def merge(a: RaceSketch, b: RaceSketch) -> RaceSketch:
    """Elementwise sum of two clean, descriptor-identical sketches, of their reachable columns.

    A table that holds a non-zero count past them (a crafted file) keeps its
    width, so no count is dropped.
    """
    if a.privatized or b.privatized:
        raise FrozenSketchError("privatized sketches cannot be merged")
    if a.descriptor() != b.descriptor():
        raise IncompatibleSketchError(
            f"sketch descriptors differ: {a.descriptor()} vs {b.descriptor()}")
    live = a.family.reachable_width
    narrow, wide = sorted((_live_prefix(s.counts, live) for s in (a, b)),
                          key=lambda counts: counts.shape[1])
    counts = wide.copy()
    counts[:, :narrow.shape[1]] += narrow
    return RaceSketch(counts, a.family, inserted=a.inserted + b.inserted)


def _header(sketch: RaceSketch) -> bytes:
    """The 48 bytes before the counters (see module docstring)."""
    fam = sketch.family
    bandwidth = fam.bandwidth if fam.bandwidth is not None else float("nan")
    header = _HEADER.pack(_MAGIC, _VERSION, _KIND_CODES[fam.kind],
                          1 if sketch.privatized else 0,
                          fam.dim, fam.depth, sketch.rows, sketch.width,
                          fam.seed, bandwidth)
    if sketch.privatized:
        return header + struct.pack("<d", sketch.epsilon)
    return header + struct.pack("<Q", sketch.inserted)


def _payload(sketch: RaceSketch):
    """The counters as little-endian i8 blocks of whole rows, each padded with zeros to W.

    A full-width table is one block, the table itself (byteswapped only on
    big-endian hosts). A prefix goes out through one reused block of about
    ``_IO_BUDGET`` counters, each yielded block valid until the next.
    """
    counts, rows, width = sketch.counts, sketch.rows, sketch.width
    if counts.shape[1] == width:
        yield counts.astype("<i8", copy=False)
        return
    step = max(1, _IO_BUDGET // width)
    block = np.zeros((min(step, rows), width), "<i8")  # columns past the prefix stay 0
    for r0 in range(0, rows, step):
        part = block[:min(step, rows - r0)]
        part[:, :counts.shape[1]] = counts[r0:r0 + step]
        yield part


def serialize(sketch: RaceSketch) -> bytes:
    """Encode to the canonical little-endian byte layout (see module docstring)."""
    return b"".join([_header(sketch), *(part.tobytes() for part in _payload(sketch))])


def _parse_header(buf) -> tuple[dict, int, dict]:
    """Check the 48 bytes before the counters: ``(family fields, rows, sketch state)``.

    Raises what the header's first fault calls for; the counters' length and
    the fields the constructors check are left to the caller.
    """
    if len(buf) < _BODY:
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
    if flags:
        (epsilon,) = struct.unpack_from("<d", buf, _HEADER.size)
        state = dict(privatized=True, epsilon=epsilon)
    else:
        (inserted,) = struct.unpack_from("<Q", buf, _HEADER.size)
        state = dict(inserted=inserted)
    fields = dict(kind=kind, dim=dim, depth=depth, width=width, bandwidth=bandwidth,
                  seed=seed)
    return fields, rows, state


@contextlib.contextmanager
def _header_fields():
    """Report a header field that a constructor refuses as a malformed header."""
    try:
        yield
    except InvalidParameterError as exc:
        raise MalformedHeaderError(f"invalid header fields: {exc}") from exc


class _BufferReader:
    """The ``read``, ``readinto`` and ``tell`` of a file over a bytes-like object.

    Reads copy only the bytes asked for, where ``io.BytesIO`` copies any
    buffer but ``bytes`` whole before the first read.
    """

    def __init__(self, view: memoryview):
        self._view = view  # of bytes, format "B"
        self._pos = 0

    def read(self, size: int = -1) -> bytes:
        end = len(self._view) if size < 0 else min(self._pos + size, len(self._view))
        data = self._view[self._pos:end].tobytes()
        self._pos = end
        return data

    def readinto(self, into) -> int:
        dest = memoryview(into).cast("B")
        got = min(len(dest), len(self._view) - self._pos)
        dest[:got] = self._view[self._pos:self._pos + got]
        self._pos += got
        return got

    def tell(self) -> int:
        return self._pos


def deserialize(buf) -> RaceSketch:
    """Decode a bytes-like object through :func:`load`'s reader: the sketch owns its table.

    The reader reads the buffer in place, so decoding holds the table and
    one block of rows, never a second copy of the buffer.
    """
    view = memoryview(buf).cast("B")
    return _read(_BufferReader(view), len(view))


def save(sketch: RaceSketch, path) -> None:
    """Write ``serialize(sketch)``'s bytes: the header, then the padded rows block by block."""
    with open(path, "wb") as fh:
        fh.write(_header(sketch))
        for part in _payload(sketch):
            fh.write(part)


def load(path) -> RaceSketch:
    """Read a ``.race`` file in blocks of rows into a table of its reachable columns.

    A regular file is read by :func:`_read`; anything else, such as a pipe,
    has no size to check the header against, so it is read whole and
    decoded by :func:`deserialize`.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read(fh, info.st_size)
        return deserialize(fh.read())


def _read(fh, size: int) -> RaceSketch:
    """Decode the ``size`` bytes of ``fh``, the one decoder of ``load`` and ``deserialize``.

    Rejects non-canonical headers, a ``size`` the header does not give, and
    a source that ends early or runs on past ``size``. The counters are read
    in blocks of rows into a table of the reachable columns, which widens to
    all W columns at the first block with a non-zero count past them; from
    there the rest is read straight into it, as it is from the start for a
    family that reaches every column.
    """
    head = fh.read(_BODY)
    fields, rows, state = _parse_header(head)
    width = fields["width"]
    expected = _BODY + 8 * rows * width
    if size < expected:
        raise TruncationError(f"expected {expected} bytes, got {size}")
    if size > expected:
        raise MalformedHeaderError(f"{size - expected} trailing bytes after payload")
    with _header_fields():
        family = LshFamily(**fields)
    live = family.reachable_width

    def read_into(table):
        got = fh.readinto(table)
        if got < table.nbytes:  # the source shrank after its size was read
            raise TruncationError(f"expected {expected} bytes, got {fh.tell()}")

    counts = np.empty((rows, live), "<i8")
    step = max(1, _IO_BUDGET // width)
    block = np.empty((min(step, rows), width), "<i8") if live < width else None
    r0 = 0
    while r0 < rows and counts.shape[1] < width:
        part = block[:min(step, rows - r0)]
        read_into(part)
        counts[r0:r0 + len(part)] = part[:, :live]
        if part[:, live:].any():
            wide = np.zeros((rows, width), "<i8")
            wide[:r0, :live] = counts[:r0]
            wide[r0:r0 + len(part)] = part
            counts = wide
        r0 += len(part)
    if r0 < rows:
        read_into(counts[r0:])
    extra = len(fh.read())  # what a source that grew holds past the size read
    if extra:
        raise MalformedHeaderError(f"{extra} trailing bytes after payload")
    with _header_fields():
        return RaceSketch(counts, family, **state)
