"""Seeded LSH families with analytic collision probabilities.

``LshFamily`` (alias ``new_family``) describes a family, ``hash_batch``
buckets points, and ``kernel_values`` is the analytic law of each below.

Signed random projection (SRP) concatenates ``depth`` sign bits of Gaussian
projections; its collision probability for one sign bit is
``1 - angle(x, y) / pi``, so the depth-p kernel is ``(1 - angle / pi) ** p``.
Folded SRP maps each SRP code ``c`` to ``min(c, c ^ (2 ** p - 1))``: the code
of ``-x`` is the complement of the code of ``x``, so ``x`` and ``y`` share a
folded code when ``y`` collides with ``x`` or with ``-x``, and the kernel is
``(1 - angle / pi) ** p + (angle / pi) ** p``. The Euclidean p-stable family
concatenates ``depth`` values ``floor((g . x + b) / bandwidth)`` with Gaussian
``g`` and offset ``b`` uniform on ``[0, bandwidth)``; a single hash collides
with the standard 2-stable probability ``q(c)`` at distance ``c``, so the
depth-p kernel is ``q(c) ** p``.

Raw hash codes are mapped into ``[0, width)`` so that every family fits a
fixed-width count array. SRP and folded codes are used directly whenever
``2 ** depth <= width`` (no extra collisions); otherwise (after the fold), and
always for the unbounded p-stable codes, a seeded 2-universal mix
``((a * code + b) mod P) mod width`` is applied, which adds a false-collision
rate of at most ``1 / width``. A p-stable row mixes its ``depth`` floors as
``(b + sum_i a_i * (floor_i mod P)) mod P``; each floor enters as a shifted
representative in ``[1, 2P)`` (exact through ``fmod`` for floors past
``+-P``, including those past int64, which a Cauchy-Schwarz bound rules out
for most calls), and the sum is reduced once per two terms. Every ``mod`` of
every mix runs as ``x - (x // m) * m``, which numpy computes without a
hardware division.

All per-row parameters derive deterministically from the family seed, so the
bucket of a point depends only on (seed, row, point). ``hash_batch`` therefore
projects rows in tiles of L2 size and packs them in blocks of a few tiles, or
hashes any range of rows alone, and writes buckets into the narrowest unsigned
dtype that holds them; the grouping never changes a code. Families are
immutable and safe for concurrent readers.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, ZeroVectorError

# Mersenne prime for the 2-universal bucket mix. Multipliers lie below P and
# the values they multiply below 2P, so a product is below 2**63, and a
# residue plus two products still fits in uint64.
_MIX_PRIME = np.uint64((1 << 31) - 1)

# Stream tags so projection, offset, and mixer draws never interleave. Row r
# of each stream is a fixed prefix, independent of how many rows are asked for.
_PROJ_TAG = 0x5EED_0001
_OFFSET_TAG = 0x5EED_0002
_MIX_TAG = 0x5EED_0003

# A euclidean floor in (-P, P) plus _SHIFT is an exact double in
# (2**52, 2**52 + 2P), whose bits read as uint64 are _EXPONENT + floor + P:
# _EXPONENT is the bits of 2**52, and the low 52 bits hold the rest.
_PRIME_F = float(_MIX_PRIME)
_SHIFT = 2.0 ** 52 + _PRIME_F
_EXPONENT = np.array(2.0 ** 52).view(np.uint64)[()]

_MAX_DEPTH = 62  # SRP codes are packed into an unsigned 64-bit word
_MAX_WIDTH = 1 << 32  # the .race header stores width as u32

# Projections per block of rows in hash_batch: an angular block packs, folds
# and mixes the codes of this many sign bytes (512 KiB) at once, where one
# pass over all rows would be bound by memory bandwidth.
_BLOCK_BUDGET = 1 << 19

# Projections (doubles) per tile, 512 KiB: every batch projection is computed
# a tile at a time into one reused buffer, so that it is read back (by an
# angular block's sign pass, or a euclidean tile's ten or so in-place passes)
# from a 2 MiB per-core L2, not from L3. A euclidean block is one tile.
_TILE_BUDGET = 1 << 16

# Multiply-shift packing of a single point's sign bytes, for depths 2, 4 and 8.
# Row r's depth sign bytes, read as one little-endian word, hold bit i in byte
# i; times the multiplier, byte i gains weight 2**i in the top byte, every
# other partial product is shifted out or stays below it without a carry (the
# lower bytes sum to at most 254), so the top byte is the code.
_PACK_MULTIPLIERS = {2: 0x102, 4: 0x01020408, 8: 0x0102040810204080}


class HashKind(Enum):
    SRP = "srp"
    EUCLIDEAN = "euclidean"
    FOLDED_SRP = "folded-srp"

    @property
    def angular(self) -> bool:
        """True for sign-bit families (hash ignores vector magnitude)."""
        return self is not HashKind.EUCLIDEAN


class _Plan(NamedTuple):
    """Constants of hash_batch that depend only on a family's kind, depth and width."""

    code_dtype: np.dtype  # narrowest unsigned dtype holding 2**depth - 1
    out_dtype: np.dtype   # bucket dtype: code_dtype when direct, else for width - 1
    direct: bool          # angular codes are the buckets, with no mix
    reachable: int        # columns a bucket can land in: 2**depth, 2**(depth-1) folded, or width
    weights: np.ndarray   # (depth,) bit weights 2**i in code_dtype, read-only
    word: np.dtype | None  # little-endian word of depth sign bytes, depths 2, 4, 8
    multiplier: np.unsignedinteger | None  # its multiply-shift constant


_FIELD_TYPES = (("kind", HashKind), ("dim", operator.index), ("depth", operator.index),
                ("width", operator.index), ("seed", operator.index))


def _make_plan(kind: HashKind, depth: int, width: int) -> _Plan:
    code_dtype = np.min_scalar_type((1 << depth) - 1)
    direct = kind.angular and (1 << depth) <= width
    out_dtype = code_dtype if direct else np.min_scalar_type(width - 1)
    reachable = width
    if direct:
        # a folded code min(c, c ^ (2**depth - 1)) has its top bit clear
        reachable = 1 << (depth - 1 if kind is HashKind.FOLDED_SRP else depth)
    weights = 1 << np.arange(depth, dtype=code_dtype)
    weights.flags.writeable = False
    word = multiplier = None
    if depth in _PACK_MULTIPLIERS:
        word = np.dtype(f"<u{depth}")
        multiplier = word.type(_PACK_MULTIPLIERS[depth])
    return _Plan(code_dtype, out_dtype, direct, reachable, weights, word, multiplier)


@dataclass(frozen=True)
class LshFamily:
    """Descriptor of a seeded LSH family.

    Fields
    ------
    kind: hash family; FOLDED_SRP identifies each SRP code with its
        complement, so one record z answers queries for both z and -z
        (regression) while still landing in one bucket per row.
    dim: input dimension d.
    depth: number of elementary hashes concatenated per row (p).
    width: bucket count per row (W); all buckets lie in [0, width).
    bandwidth: p-stable bucket width, in input coordinate units; None for
        angular kinds.
    seed: 64-bit root seed; every per-row parameter derives from it.

    ``_plan`` holds hash_batch's dtypes, direct flag and bit weights, worked
    out once here rather than on every call; it takes no part in equality.
    """

    kind: HashKind
    dim: int
    depth: int
    width: int
    bandwidth: float | None = None
    seed: int = 0
    _plan: _Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # operator.index refuses 2.5 or "4" rather than truncating it
        for name, convert in _FIELD_TYPES:
            try:
                object.__setattr__(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise InvalidParameterError(f"{name}: {exc}") from None
        if self.dim < 1:
            raise InvalidParameterError(f"dim must be >= 1, got {self.dim}")
        if not 1 <= self.depth <= _MAX_DEPTH:
            raise InvalidParameterError(
                f"depth must be in [1, {_MAX_DEPTH}], got {self.depth}")
        if not 2 <= self.width < _MAX_WIDTH:
            raise InvalidParameterError(
                f"width must be in [2, {_MAX_WIDTH}), got {self.width}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError("seed must fit in 64 bits")
        if self.kind is HashKind.EUCLIDEAN:
            if not (isinstance(self.bandwidth, numbers.Real) and 0 < self.bandwidth < math.inf):
                raise InvalidParameterError(
                    f"bandwidth must be a positive finite float, got {self.bandwidth}")
        elif self.bandwidth is not None:
            # angular hashes have no length scale
            object.__setattr__(self, "bandwidth", None)
        object.__setattr__(self, "_plan", _make_plan(self.kind, self.depth, self.width))

    @property
    def reachable_width(self) -> int:
        """Columns ``[0, reachable_width)`` that a bucket can land in.

        ``2 ** depth`` for SRP codes used directly, ``2 ** (depth - 1)`` for
        folded codes used directly, and ``width`` otherwise; the columns past
        it hold 0 in every clean sketch of this family.
        """
        return self._plan.reachable


new_family = LshFamily  # reads as a factory: new_family("srp", 2, 4, 500)


class _RowParams(NamedTuple):
    proj: np.ndarray      # (rows * depth, dim) Gaussian projections, column-major, read-only
    offsets: np.ndarray | None  # (rows, depth) uniform offsets, p-stable only
    mix_a: np.ndarray | None  # (rows, depth) uint64 in [1, P); None when codes are buckets
    mix_b: np.ndarray | None  # (rows,) uint64 in [0, P); None when codes are buckets
    proj_norm: float | None = None  # largest projection norm, p-stable only
    # (rows, ceil(depth / 2)) uint64, p-stable only: per pair of terms, minus
    # _EXPONENT times the pair's multipliers mod 2**64, plus b in the first pair
    pair_b: np.ndarray | None = None


@lru_cache(maxsize=16)
def _row_params(family: LshFamily, rows: int) -> _RowParams:
    p, d = family.depth, family.dim
    # column-major: one point's matrix-vector product then runs along the
    # projections, which OpenBLAS does about twice as fast as rows * depth
    # short dot products; a block of rows is still a strided BLAS operand.
    # The stream fills the (rows * depth, dim) matrix row by row, so each
    # tile of its rows is drawn C-ordered and copied across, never the whole.
    proj = np.empty((rows * p, d), order="F")
    rng = np.random.default_rng([family.seed, _PROJ_TAG])
    step = max(1, _TILE_BUDGET // d)
    block = np.empty((min(step, rows * p), d))
    euclidean = family.kind is HashKind.EUCLIDEAN
    largest = 0.0  # squared norm of the longest projection, for euclidean range bounds
    for i0 in range(0, rows * p, step):
        drawn = rng.standard_normal(out=block[:min(step, rows * p - i0)])
        proj[i0:i0 + step] = drawn
        if euclidean:
            largest = max(largest, float(np.einsum("ij,ij->i", drawn, drawn).max()))
    offsets = proj_norm = pair_b = None
    if euclidean:
        offsets = np.random.default_rng([family.seed, _OFFSET_TAG]).uniform(
            0.0, family.bandwidth, size=(rows, p))
        offsets.flags.writeable = False
        proj_norm = math.sqrt(largest)
    mix_a = mix_b = None
    if not family._plan.direct:
        # one contiguous block per row, so row r's parameters never depend on
        # how many rows were requested (hash_batch over r + 1 rows gives row r
        # the same buckets as any larger batch); the multipliers are copied
        # out contiguous, which one point's (rows, depth) product reads faster
        mix = np.random.default_rng([family.seed, _MIX_TAG]).integers(
            1, int(_MIX_PRIME), size=(rows, p + 1)).astype(np.uint64)
        mix_a, mix_b = np.ascontiguousarray(mix[:, :p]), np.ascontiguousarray(mix[:, p])
        mix_a.flags.writeable = mix_b.flags.writeable = False
        if euclidean:  # unsigned arrays wrap mod 2**64
            pair_b = np.negative(_EXPONENT * np.add.reduceat(mix_a, range(0, p, 2), axis=1))
            pair_b[:, 0] += mix_b
            pair_b.flags.writeable = False
    proj.flags.writeable = False
    return _RowParams(proj, offsets, mix_a, mix_b, proj_norm, pair_b)


def _as_matrix(points, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1) if pts.size else pts.reshape(0, dim)
    elif pts.ndim == 2 and pts.shape[0] == 0:
        pts = pts.reshape(0, dim)  # no rows, such as an empty CSV's (0, 0)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise DimensionMismatchError(
            f"expected points of dimension {dim}, got shape {pts.shape}")
    return pts


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.shape != (dim,):
        raise DimensionMismatchError(f"expected a point of dimension {dim}, got shape {v.shape}")
    return v


def _mod(x: np.ndarray, m: np.unsignedinteger, out: np.ndarray | None = None,
         quotient: np.ndarray | None = None) -> np.ndarray:
    """``x mod m`` for unsigned ``x``, as ``x - (x // m) * m``, into ``out`` when given.

    Exact for unsigned integers, and faster than ``np.remainder``: numpy
    divides by a scalar through libdivide's multiply and shift (Granlund and
    Montgomery, PLDI 1994), where ``remainder`` runs the hardware division.
    On 262k entries (2 vCPUs, numpy 2.4) ``% P`` in uint64 took 0.6 ms
    against 1.05, and ``% 200`` in uint32 0.22 against 0.63. ``quotient``,
    when given, is scratch of ``x``'s shape and dtype for ``x // m``;
    ``out`` may be ``x``.
    """
    q = np.floor_divide(x, m, out=quotient)
    np.multiply(q, m, out=q)
    return np.subtract(x, q, out=out, casting="unsafe")


def _angular_buckets(family: LshFamily, codes: np.ndarray, params: _RowParams,
                     rows: slice) -> np.ndarray:
    """Buckets of packed (rows, n) angular codes, folded in place if the kind folds.

    Direct codes are their own buckets; others take the 2-universal mix
    ``((a * code + b) mod P) mod width`` of ``params``' ``rows``, returned in
    uint64.
    """
    if family.kind is HashKind.FOLDED_SRP:
        np.minimum(codes, codes ^ codes.dtype.type((1 << family.depth) - 1), out=codes)
    if family._plan.direct:
        return codes
    mixed = params.mix_a[rows, :1] * _mod(codes, _MIX_PRIME)
    np.add(mixed, params.mix_b[rows, None], out=mixed)
    return _mod(_mod(mixed, _MIX_PRIME, out=mixed), np.uint64(family.width), out=mixed)


def _floors_in_range(params: _RowParams, bandwidth: float, norm: float) -> bool:
    """True when a bound proves every euclidean floor finite and inside ``(-P, P)``.

    ``norm`` is the largest norm of the points. By Cauchy-Schwarz
    ``|g . x| <= |g| |x|``, and the offset adds less than one bandwidth, so
    ``|floor| <= proj_norm * norm / bandwidth + 1``; half of P leaves room
    for the rounding of the matmul and of the norms. An infinite or NaN
    bound fails the test.
    """
    return params.proj_norm * norm / bandwidth + 1.0 < _PRIME_F / 2


def _euclidean_buckets(family: LshFamily, floors: np.ndarray, offsets: np.ndarray,
                       mix_a: np.ndarray, pair_b: np.ndarray, in_range: bool,
                       out: np.ndarray, scratch: list[np.ndarray] | None = None) -> np.ndarray:
    """Buckets of the projections ``floors``, (rows, depth) or (rows, depth, n), into ``out``.

    ``offsets``, ``mix_a`` and ``pair_b`` are those rows' parameters, shaped
    to broadcast against ``floors``, whose term ``floors[:, i]`` has
    ``out``'s shape. ``in_range`` is :func:`_floors_in_range`. Works in
    place in ``floors`` and in ``scratch`` of ``out``'s shape: an
    accumulator, contiguous where the grid's terms are strided, and a
    quotient in uint64, then the residues mod P and their quotient in
    uint32, which may share the spent uint64 quotient's bytes. Without
    ``scratch`` each step allocates its result, which one point's (rows,)
    arrays do as cheaply.
    """
    np.add(floors, offsets, out=floors)
    np.divide(floors, family.bandwidth, out=floors)
    np.floor(floors, out=floors)
    if not in_range:
        least, most = floors.min(initial=0.0), floors.max(initial=0.0)
        if not (math.isfinite(least) and math.isfinite(most)):
            raise InvalidParameterError(
                "a bucket index overflowed float64: the points are too far from "
                f"the origin for bandwidth {family.bandwidth!r}")
        if not -_PRIME_F < least <= most < _PRIME_F:
            np.fmod(floors, _PRIME_F, out=floors)
    np.add(floors, _SHIFT, out=floors)
    # term i is a_i * (_EXPONENT + g_i) mod 2**64; adding a pair's pair_b
    # leaves b + a_i g_i + a_j g_j, which is below 2**64 and so exact
    grid = floors.view(np.uint64)
    np.multiply(grid, mix_a, out=grid)
    acc, quotient, residues, quotient32 = scratch or (None,) * 4
    acc = np.add(grid[:, 0], pair_b[:, 0], out=acc)
    p = family.depth
    for i in range(1, p):
        if i % 2 == 0:  # a pair starts, after a % P
            np.add(acc, pair_b[:, i // 2], out=acc)
        np.add(acc, grid[:, i], out=acc)
        if i % 2 and i < p - 1:  # two products added since the last % P
            _mod(acc, _MIX_PRIME, out=acc, quotient=quotient)
    residues = _mod(acc, _MIX_PRIME, out=residues, quotient=quotient)
    # a divisor of the residues' own dtype: a mixed pair costs a cast per call
    return _mod(residues, residues.dtype.type(family.width), out=out, quotient=quotient32)


def _check_finite(pts: np.ndarray) -> None:
    """Raise ``InvalidParameterError`` unless every entry of the (n, d) ``pts`` is finite.

    One point's norm (``math.hypot``, about 0.5 us against 1.6-3 us for
    ``np.isfinite(...).all()``) is finite only when every entry is: an inf
    entry makes it inf and a NaN NaN. So a point whose norm is finite
    passes on the norm alone, and the full check runs only when it is not,
    which a finite point whose norm overflows float64 also passes.
    """
    if pts.shape[0] == 1 and math.isfinite(math.hypot(*pts[0].tolist())):
        return
    if not np.isfinite(pts).all():
        raise InvalidParameterError("points must be finite, got NaN or inf")


def hash_batch(family: LshFamily, rows: int | range, points, *,
               table: int | None = None, checked: bool = False) -> np.ndarray:
    """Bucket every point under every row hash, or under a range of rows.

    ``rows`` is a row count R, for rows ``0 .. R-1``, or a ``range(lo, hi)``
    of rows out of a table of ``table`` rows (default ``hi``); the buckets of
    a range equal those rows of the whole table's buckets, since row r's
    parameters do not depend on how many rows are drawn. The parameters are
    looked up once per table, so callers that hash a table's rows in ranges
    share one cache entry.

    Returns an array of shape (len(rows), n) with entries in [0, width), in
    the smallest unsigned dtype that holds ``width - 1`` (``2 ** depth - 1``
    for SRP codes used directly); never uint64, since width < 2**32. Points
    must be finite; NaN or inf raises ``InvalidParameterError``.
    Points are validated once on their way in: ``checked=True`` skips the
    finiteness check for a caller that made it (``lsh._check_finite``)
    itself. ``sketch.build`` checks each chunk once and hashes it one row
    block at a time; ``estimation.estimate`` and ``query_median_of_means``
    check their points once and ``_gather`` hashes them checked;
    ``RaceSketch.add`` checks its point once. Unchecked, finiteness is read
    off the largest norm of the points where it is at hand (one point, or a
    euclidean batch), with a full pass only when that norm is not finite,
    and off a full pass otherwise. Rows are projected one tile of
    ``_TILE_BUDGET // (depth * n)`` rows (at least one) at a time into one
    reused buffer, 512 KiB of float64 projections for any row count or
    range, so the projection is never materialized for all rows at once
    and each tile is read back from a 2 MiB per-core L2 rather than from
    L3. Angular rows go in blocks of ``_BLOCK_BUDGET // (depth * n)`` rows
    (at least one), about eight tiles: each tile's ``greater_equal``
    writes its sign bytes into the block's one bool buffer (512 KiB), and
    an ``einsum`` against the bit weights ``2 ** i`` packs the block in one
    pass into the code dtype (bit i of row r is the sign of projection
    ``r * depth + i``), which is then folded or mixed. A euclidean block
    is one tile (below). A caller that hashes one block per call holds one
    block's buffers at a time. The dtypes and bit weights come from the
    family's plan.

    A single angular point skips the blocks: one matrix-vector product with
    the (column-major) projections gives its ``rows * depth`` projections and
    one ``greater_equal`` their sign bytes, which lie row by row. At depth 2,
    4 or 8 a row's sign bytes are read as one little-endian word and
    multiplied by ``0x102``, ``0x01020408`` or ``0x0102040810204080``, whose
    product's top byte is the code; other depths take a ``matmul`` of the
    (rows, depth) sign bytes against the bit weights, an integer loop in
    numpy that at depth 4 runs 2x (R=1000) to 14x (R=100 000) slower than
    the multiply-shift. The words are shifted in place and stay in their
    dtype; direct SRP codes are the buckets as they are, folded codes are
    folded and others mixed (:func:`_angular_buckets`), and the result is
    cast once to the bucket dtype. The codes equal the batch path's.

    A euclidean tile runs its ten or so passes in place in the projection
    buffer, in L2, with an accumulator, a quotient and a residue (20 bytes)
    of scratch per bucket. The floors ``floor((proj +
    offset) / bandwidth)`` are shifted by P to a representative of ``floor
    mod P`` in ``[1, 2P)``: directly when they lie in ``(-P, P)``, otherwise
    after an ``fmod`` by P, which is exact for every finite double, so
    floors past int64 still hash apart. A bound decides first: when the
    largest projection norm times the largest point norm over the
    bandwidth, plus one, is below P / 2, every floor is finite and in
    range, and no block is checked. Otherwise one min/max per block decides,
    and a floor that overflowed float64 raises ``InvalidParameterError``.
    Adding ``2 ** 52`` as well makes each double's bits, read as uint64,
    ``_EXPONENT`` plus that representative ``g``. Products ``a_i * g_i`` are
    below ``(P - 1)(2P - 1) < 2 ** 63``, so the mix ``b + sum_i a_i * g_i``
    takes one ``% P`` per two terms; the ``_EXPONENT * a_i`` that each term
    carries wraps mod 2**64, and a per-row constant for each pair of terms
    (``pair_b``) takes it out again, which leaves the sum exact. The final
    ``% width`` runs in uint32. Every ``%`` is ``x - (x // m) * m``
    (:func:`_mod`), since numpy divides by a scalar without a hardware
    division. Codes equal those of reducing every floor and every term mod
    P, since mod P is a ring homomorphism.

    A single euclidean point runs the same steps on (rows, depth) arrays
    after one matrix-vector product, whose (rows,) results each step
    allocates; its product runs over the blocks of ``_BLOCK_BUDGET //
    depth`` rows it always did, because a product's rounding depends on its
    length and a floor on every bit.
    """
    span = rows if isinstance(rows, range) else range(rows)
    table = span.stop if table is None else table
    if not (span.step == 1 and 0 <= span.start < span.stop <= table):
        raise InvalidParameterError(
            f"rows must be a count >= 1 or a nonempty range of the table's "
            f"{table} rows with step 1, got {rows!r}")
    pts = _as_matrix(points, family.dim)
    n, p = pts.shape[0], family.depth
    euclidean = not family.kind.angular
    if euclidean:
        norm = math.hypot(*pts[0].tolist()) if n == 1 else \
            math.sqrt(np.einsum("ij,ij->i", pts, pts).max(initial=0.0))
    # the largest norm is finite only when every point is, so the full check
    # runs when it is not: on a NaN or inf, or an overflow
    if not (checked or euclidean and math.isfinite(norm)):
        _check_finite(pts)
    lo, hi = span.start, span.stop
    plan = family._plan
    params = _row_params(family, table)
    code_dtype, direct = plan.code_dtype, plan.direct
    if euclidean:
        in_range = _floors_in_range(params, family.bandwidth, norm)
    if n == 1 and euclidean:
        proj, offsets, mix_a, pair_b = params.proj, params.offsets, params.mix_a, params.pair_b
        if hi - lo < table:  # a whole-table call, the common one, skips the slices
            proj, offsets = proj[lo * p:hi * p], offsets[lo:hi]
            mix_a, pair_b = mix_a[lo:hi], pair_b[lo:hi]
        # a gemv rounds by its length, and a floor turns on every bit: the
        # point is projected in the blocks of rows it always was
        step = max(1, _BLOCK_BUDGET // p) * p
        if len(proj) > step:
            proj = np.concatenate([proj[i:i + step] @ pts[0] for i in range(0, len(proj), step)])
        else:
            proj = proj @ pts[0]
        out = np.empty((hi - lo, 1), plan.out_dtype)
        _euclidean_buckets(family, proj.reshape(hi - lo, p), offsets, mix_a, pair_b, in_range,
                           out[:, 0])
        return out
    if n == 1:
        proj = params.proj
        if hi - lo < table:  # a whole-table call, the common one, skips the slice
            proj = proj[lo * p:hi * p]
        signs = np.greater_equal(proj @ pts[0], 0)
        if plan.word is not None:  # codes in the word dtype, shifted in place
            codes = np.multiply(signs.view(plan.word), plan.multiplier)
            np.right_shift(codes, 8 * (p - 1), out=codes)
        else:
            codes = np.matmul(signs.view(np.uint8).reshape(hi - lo, p), plan.weights)
        codes = codes[:, None]
        if family.kind is HashKind.FOLDED_SRP or not direct:  # a fold or a mix
            codes = _angular_buckets(family, codes, params, slice(lo, hi))
        return codes.astype(plan.out_dtype, copy=False)
    out = np.empty((hi - lo, n), plan.out_dtype)
    tile = max(1, _TILE_BUDGET // (p * max(n, 1)))
    # one projection buffer for all tiles: a fresh one per tile faults in anew
    buf = np.empty((min(tile, hi - lo) * p, n))
    if euclidean:
        quotient = np.empty((min(tile, hi - lo), n), np.uint64)
        scratch = (np.empty_like(quotient), quotient, np.empty(quotient.shape, np.uint32),
                   quotient.reshape(-1).view(np.uint32)[:quotient.size].reshape(quotient.shape))
        for r0 in range(lo, hi, tile):
            r1 = min(r0 + tile, hi)
            proj = np.matmul(params.proj[r0 * p:r1 * p], pts.T, out=buf[:(r1 - r0) * p])
            _euclidean_buckets(family, proj.reshape(r1 - r0, p, n),
                               params.offsets[r0:r1, :, None], params.mix_a[r0:r1, :, None],
                               params.pair_b[r0:r1, :, None], in_range, out[r0 - lo:r1 - lo],
                               [a[:r1 - r0] for a in scratch])
        return out
    step = max(1, _BLOCK_BUDGET // (p * max(n, 1)))
    signs = np.empty((min(step, hi - lo) * p, n), np.bool_)
    if not direct:
        packed = np.empty((min(step, hi - lo), n), code_dtype)
    for r0 in range(lo, hi, step):
        r1 = min(r0 + step, hi)
        for t0 in range(r0, r1, tile):
            t1 = min(t0 + tile, r1)
            proj = np.matmul(params.proj[t0 * p:t1 * p], pts.T, out=buf[:(t1 - t0) * p])
            np.greater_equal(proj, 0, out=signs[(t0 - r0) * p:(t1 - r0) * p])
        dest = out[r0 - lo:r1 - lo]
        codes = dest if direct else packed[:r1 - r0]
        np.einsum("rpn,p->rn", signs[:(r1 - r0) * p].view(np.uint8).reshape(r1 - r0, p, n),
                  plan.weights, out=codes, dtype=code_dtype, casting="unsafe")
        buckets = _angular_buckets(family, codes, params, slice(r0, r1))
        if not direct:
            dest[:] = buckets
    return out


def _pstable_single_collision(dist, bandwidth: float):
    """Single-hash collision probability of the 2-stable family at distance ``dist``."""
    c = np.asarray(dist, dtype=np.float64)
    out = np.where(c == np.inf, 0.0, 1.0)  # an overflowed distance never collides
    pos = (c > 0) & (c < np.inf)
    r = bandwidth / c[pos]
    erf = np.vectorize(math.erf, otypes=[np.float64])
    out[pos] = (erf(r / math.sqrt(2.0))  # 2 Phi(r) - 1, Phi the normal CDF
                - 2.0 * c[pos] / (bandwidth * math.sqrt(2.0 * math.pi))
                * (1.0 - np.exp(-0.5 * r * r)))
    return out


def kernel_values(family: LshFamily, points, q) -> np.ndarray:
    """Analytic collision probability of the raw depth-p hash, k(x_i, q), per point."""
    pts = _as_matrix(points, family.dim)
    qv = _as_vector(q, family.dim)
    if pts.shape[0] == 0:
        return np.zeros(0)
    if family.kind.angular:
        norms = np.linalg.norm(pts, axis=1)
        qnorm = np.linalg.norm(qv)
        if qnorm == 0.0 or np.any(norms == 0.0):
            raise ZeroVectorError("angle to a zero vector is undefined")
        cos = np.clip((pts @ qv) / (norms * qnorm), -1.0, 1.0)
        theta = np.arccos(cos) / math.pi
        if family.kind is HashKind.FOLDED_SRP:
            return (1.0 - theta) ** family.depth + theta ** family.depth
        return (1.0 - theta) ** family.depth
    dist = np.linalg.norm(pts - qv[None, :], axis=1)
    return _pstable_single_collision(dist, family.bandwidth) ** family.depth


def rebucket_allowance(family: LshFamily, n_points: float) -> float:
    """Worst-case extra kernel sum from mapping raw codes into [0, width).

    Zero when SRP codes fit the width exactly; otherwise the false-collision
    rate is at most 1/width per point.
    """
    if family._plan.direct:
        return 0.0
    return n_points / family.width
