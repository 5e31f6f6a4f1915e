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
``+-P``, including those past int64), and the sum is reduced once per two
terms.

All per-row parameters derive deterministically from the family seed, so the
bucket of a point depends only on (seed, row, point). ``hash_batch`` therefore
evaluates rows in blocks of cache size, or any range of rows alone, and writes
buckets into the narrowest unsigned dtype that holds them; the grouping never
changes a code. Families are immutable and safe for concurrent readers.
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
from scipy.special import ndtr

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
# (2**52, 2**52 + 2P), whose low 52 bits hold floor + P.
_PRIME_F = float(_MIX_PRIME)
_SHIFT = 2.0 ** 52 + _PRIME_F
_LOW_52 = np.uint64((1 << 52) - 1)

_MAX_DEPTH = 62  # SRP codes are packed into an unsigned 64-bit word
_MAX_WIDTH = 1 << 32  # the .race header stores width as u32

# Projections (doubles) evaluated per block of rows in hash_batch, about 4 MiB:
# one block's projection and its sign or grid temporaries stay near cache
# size, where one matrix over all rows would be bound by memory bandwidth.
_BLOCK_BUDGET = 1 << 19

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


@lru_cache(maxsize=16)
def _row_params(family: LshFamily, rows: int) -> _RowParams:
    p, d = family.depth, family.dim
    # column-major: one point's matrix-vector product then runs along the
    # projections, which OpenBLAS does about twice as fast as rows * depth
    # short dot products; a block of rows is still a strided BLAS operand.
    # The stream fills the (rows * depth, dim) matrix row by row, so each
    # block of its rows is drawn C-ordered and copied across, never the whole.
    proj = np.empty((rows * p, d), order="F")
    rng = np.random.default_rng([family.seed, _PROJ_TAG])
    step = max(1, _BLOCK_BUDGET // d)
    block = np.empty((min(step, rows * p), d))
    for i0 in range(0, rows * p, step):
        proj[i0:i0 + step] = rng.standard_normal(out=block[:min(step, rows * p - i0)])
    offsets = None
    if family.kind is HashKind.EUCLIDEAN:
        offsets = np.random.default_rng([family.seed, _OFFSET_TAG]).uniform(
            0.0, family.bandwidth, size=(rows, p))
        offsets.flags.writeable = False
    mix_a = mix_b = None
    if not family._plan.direct:
        # one contiguous block per row, so row r's parameters never depend on
        # how many rows were requested (hash_batch over r + 1 rows gives row r
        # the same buckets as any larger batch)
        mix = np.random.default_rng([family.seed, _MIX_TAG]).integers(
            1, int(_MIX_PRIME), size=(rows, p + 1)).astype(np.uint64)
        mix.flags.writeable = False
        mix_a, mix_b = mix[:, :p], mix[:, p]
    proj.flags.writeable = False
    return _RowParams(proj, offsets, mix_a, mix_b)


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
    mixed = (params.mix_a[rows, :1] * (codes % _MIX_PRIME) + params.mix_b[rows, None]) \
        % _MIX_PRIME
    return mixed % np.uint64(family.width)


def _check_finite(pts: np.ndarray) -> None:
    if not np.isfinite(pts).all():
        raise InvalidParameterError("points must be finite, got NaN or inf")


def hash_batch(family: LshFamily, rows: int | range, points, *,
               table: int | None = None, out: np.ndarray | None = None,
               checked: bool = False) -> np.ndarray:
    """Bucket every point under every row hash, or under a range of rows.

    ``rows`` is a row count R, for rows ``0 .. R-1``, or a ``range(lo, hi)``
    of rows out of a table of ``table`` rows (default ``hi``); the buckets of
    a range equal those rows of the whole table's buckets, since row r's
    parameters do not depend on how many rows are drawn. The parameters are
    looked up once per table, so callers that hash a table's rows in ranges
    share one cache entry.

    Returns an array of shape (len(rows), n) with entries in [0, width), in
    the smallest unsigned dtype that holds ``width - 1`` (``2 ** depth - 1``
    for SRP codes used directly); never uint64, since width < 2**32. It is
    written into ``out`` when given, an array (or strided view) of exactly
    that shape and dtype, so a caller can keep one bucket array for all its
    calls. Points must be finite; NaN or inf raises ``InvalidParameterError``.
    ``checked=True`` skips that check, which reads every point, for a caller
    that made it once and hashes the same points in many calls, as
    ``sketch.build`` does one row block at a time. Rows are evaluated in
    blocks of ``_BLOCK_BUDGET // (depth * n)`` rows (at least one), about
    4 MiB of float64 projections for any row count or range, so the
    projection is never materialized for all rows at once; a caller that
    hashes one such block per call holds one block's buffers at a time.
    Angular codes are packed in one pass per block: the signs of all
    ``depth`` projections go into one bool buffer, and an ``einsum`` against
    the bit weights ``2 ** i`` sums them into the code dtype (bit i of row r
    is the sign of projection ``r * depth + i``). The dtypes and bit weights
    come from the family's plan.

    A single angular point skips the blocks: one matrix-vector product with
    the (column-major) projections gives its ``rows * depth`` projections and
    one ``greater_equal`` their sign bytes, which lie row by row. At depth 2,
    4 or 8 a row's sign bytes are read as one little-endian word and
    multiplied by ``0x102``, ``0x01020408`` or ``0x0102040810204080``, whose
    product's top byte is the code; other depths take a ``matmul`` of the
    (rows, depth) sign bytes against the bit weights, an integer loop in
    numpy that at depth 4 runs 2x (R=1000) to 14x (R=100 000) slower than
    the multiply-shift. The codes equal the batch path's.

    Euclidean blocks work in place in the projection buffer. The floors
    ``floor((proj + offset) / bandwidth)`` are shifted by P to a
    representative of ``floor mod P`` in ``[1, 2P)``: directly when one
    min/max shows the block's floors lie in ``(-P, P)``, otherwise after an
    ``fmod`` by P, which is exact for every finite double, so floors past
    int64 still hash apart. A floor that overflowed float64 raises
    ``InvalidParameterError``. Adding ``2 ** 52`` as well makes each double's
    low 52 bits that representative, read as uint64 with one mask. Products
    ``a_i * g_i`` are below ``(P - 1)(2P - 1) < 2 ** 63``, so the mix
    ``b + sum_i a_i * g_i`` takes one ``% P`` per two terms, and the final
    ``% width`` runs in uint32. Codes equal those of reducing every floor and
    every term mod P, since mod P is a ring homomorphism.
    """
    span = rows if isinstance(rows, range) else range(rows)
    table = span.stop if table is None else table
    if not (span.step == 1 and 0 <= span.start < span.stop <= table):
        raise InvalidParameterError(
            f"rows must be a count >= 1 or a nonempty range of the table's "
            f"{table} rows with step 1, got {rows!r}")
    pts = _as_matrix(points, family.dim)
    if not checked:
        _check_finite(pts)
    n, p = pts.shape[0], family.depth
    lo, hi = span.start, span.stop
    plan = family._plan
    if out is not None and (out.shape != (hi - lo, n) or out.dtype != plan.out_dtype):
        raise InvalidParameterError(
            f"out must be a {(hi - lo, n)} {plan.out_dtype} array, "
            f"got {out.shape} {out.dtype}")
    params = _row_params(family, table)
    code_dtype, direct = plan.code_dtype, plan.direct
    if n == 1 and family.kind.angular:
        proj = params.proj
        if hi - lo < table:  # a whole-table call, the common one, skips the slice
            proj = proj[lo * p:hi * p]
        signs = np.greater_equal(proj @ pts[0], 0)
        if plan.word is not None:
            words = np.multiply(signs.view(plan.word), plan.multiplier)
            codes = np.right_shift(words, 8 * (p - 1)).astype(code_dtype)
        else:
            codes = np.matmul(signs.view(np.uint8).reshape(hi - lo, p), plan.weights)
        buckets = _angular_buckets(family, codes[:, None], params, slice(lo, hi))
        if out is None:
            return buckets.astype(plan.out_dtype, copy=False)
        out[:] = buckets
        return out
    if out is None:
        out = np.empty((hi - lo, n), plan.out_dtype)
    step = max(1, _BLOCK_BUDGET // (p * max(n, 1)))
    # one projection buffer for all blocks: a fresh one per block faults in anew
    buf = np.empty((min(step, hi - lo) * p, n))
    if family.kind.angular:
        signs = np.empty(buf.shape, np.bool_)
        if not direct:
            packed = np.empty((min(step, hi - lo), n), code_dtype)
    else:
        residues = np.empty((min(step, hi - lo), n), np.uint32)
    for r0 in range(lo, hi, step):
        r1 = min(r0 + step, hi)
        dest = out[r0 - lo:r1 - lo]
        proj = np.matmul(params.proj[r0 * p:r1 * p], pts.T, out=buf[:(r1 - r0) * p])
        if family.kind.angular:
            bits = np.greater_equal(proj, 0, out=signs[:(r1 - r0) * p])
            codes = dest if direct else packed[:r1 - r0]
            np.einsum("rpn,p->rn", bits.view(np.uint8).reshape(r1 - r0, p, n), plan.weights,
                      out=codes, dtype=code_dtype, casting="unsafe")
            buckets = _angular_buckets(family, codes, params, slice(r0, r1))
            if not direct:
                dest[:] = buckets
            continue
        floors = proj.reshape(r1 - r0, p, n)
        np.add(floors, params.offsets[r0:r1, :, None], out=floors)
        np.divide(floors, family.bandwidth, out=floors)
        np.floor(floors, out=floors)
        least, most = floors.min(initial=0.0), floors.max(initial=0.0)
        if not (math.isfinite(least) and math.isfinite(most)):
            raise InvalidParameterError(
                "a bucket index overflowed float64: the points are too far from "
                f"the origin for bandwidth {family.bandwidth!r}")
        if not -_PRIME_F < least <= most < _PRIME_F:
            np.fmod(floors, _PRIME_F, out=floors)
        np.add(floors, _SHIFT, out=floors)
        grid = np.bitwise_and(floors.view(np.uint64), _LOW_52, out=floors.view(np.uint64))
        np.multiply(grid, params.mix_a[r0:r1, :, None], out=grid)
        mixed = np.add(grid[:, 0, :], params.mix_b[r0:r1, None], out=grid[:, 0, :])
        for i in range(1, p):
            np.add(mixed, grid[:, i, :], out=mixed)
            if i % 2 and i < p - 1:  # two products added since the last % P
                np.remainder(mixed, _MIX_PRIME, out=mixed)
        np.remainder(mixed, _MIX_PRIME, out=residues[:r1 - r0], casting="unsafe")
        np.remainder(residues[:r1 - r0], np.uint32(family.width), out=dest,
                     casting="unsafe")
    return out


def _pstable_single_collision(dist, bandwidth: float):
    """Single-hash collision probability of the 2-stable family at distance ``dist``."""
    c = np.asarray(dist, dtype=np.float64)
    out = np.ones_like(c)
    pos = c > 0
    r = bandwidth / c[pos]
    out[pos] = (2.0 * ndtr(r) - 1.0
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
