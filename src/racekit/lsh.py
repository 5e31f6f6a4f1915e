"""Seeded LSH families with analytic collision probabilities.

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
evaluates rows in blocks of cache size and writes buckets into the narrowest
unsigned dtype that holds them; the grouping never changes a code. Families
are immutable and safe for concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class HashKind(Enum):
    SRP = "srp"
    EUCLIDEAN = "euclidean"
    FOLDED_SRP = "folded-srp"

    @property
    def angular(self) -> bool:
        """True for sign-bit families (hash ignores vector magnitude)."""
        return self is not HashKind.EUCLIDEAN


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
    """

    kind: HashKind
    dim: int
    depth: int
    width: int
    bandwidth: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, HashKind):
            object.__setattr__(self, "kind", HashKind(self.kind))
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
            if self.bandwidth is None or not (0 < self.bandwidth < math.inf):
                raise InvalidParameterError(
                    f"bandwidth must be a positive finite float, got {self.bandwidth}")
        elif self.bandwidth is not None:
            # angular hashes have no length scale
            object.__setattr__(self, "bandwidth", None)


def new_family(kind, dim, depth, width, bandwidth=None, seed=0) -> LshFamily:
    """Build a family descriptor; ``kind`` may be a HashKind or its string value."""
    return LshFamily(kind=HashKind(kind), dim=dim, depth=depth, width=width,
                     bandwidth=bandwidth, seed=seed)


class _RowParams(NamedTuple):
    proj: np.ndarray      # (rows * depth, dim) Gaussian projections, read-only
    offsets: np.ndarray | None  # (rows, depth) uniform offsets, p-stable only
    mix_a: np.ndarray     # (rows, depth) uint64 in [1, P)
    mix_b: np.ndarray     # (rows,) uint64 in [0, P)


@lru_cache(maxsize=16)
def _row_params(family: LshFamily, rows: int) -> _RowParams:
    p, d = family.depth, family.dim
    proj = np.random.default_rng([family.seed, _PROJ_TAG]).standard_normal((rows * p, d))
    offsets = None
    if family.kind is HashKind.EUCLIDEAN:
        offsets = np.random.default_rng([family.seed, _OFFSET_TAG]).uniform(
            0.0, family.bandwidth, size=(rows, p))
        offsets.flags.writeable = False
    # one contiguous block per row, so row r's parameters never depend on how
    # many rows were requested (hash_batch over r + 1 rows gives row r the same
    # buckets as any larger batch)
    mix = np.random.default_rng([family.seed, _MIX_TAG]).integers(
        1, int(_MIX_PRIME), size=(rows, p + 1)).astype(np.uint64)
    mix_a, mix_b = mix[:, :p], mix[:, p]
    proj.flags.writeable = False
    mix.flags.writeable = False
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


def hash_batch(family: LshFamily, rows: int, points) -> np.ndarray:
    """Bucket every point under every row hash.

    Returns an array of shape (rows, n) with entries in [0, width), in the
    smallest unsigned dtype that holds ``width - 1`` (``2 ** depth - 1`` for
    SRP codes used directly); never uint64, since width < 2**32. Points must
    be finite; NaN or inf raises ``InvalidParameterError``. Rows are
    evaluated in blocks of about ``_BLOCK_BUDGET`` projections, so the float64
    projection is never materialized for all rows at once. Angular codes are
    packed in one pass per block: the signs of all ``depth`` projections go
    into one bool buffer, and an ``einsum`` against the bit weights
    ``2 ** i`` sums them into the code dtype (bit i of row r is the sign of
    projection ``r * depth + i``).

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
    if rows < 1:
        raise InvalidParameterError(f"rows must be >= 1, got {rows}")
    pts = _as_matrix(points, family.dim)
    if not np.isfinite(pts).all():
        raise InvalidParameterError("points must be finite, got NaN or inf")
    n, p = pts.shape[0], family.depth
    params = _row_params(family, rows)
    code_dtype = np.min_scalar_type((1 << p) - 1)
    direct = family.kind.angular and (1 << p) <= family.width
    out = np.empty((rows, n), code_dtype if direct else np.min_scalar_type(family.width - 1))
    step = max(1, _BLOCK_BUDGET // (p * max(n, 1)))
    # one projection buffer for all blocks: a fresh one per block faults in anew
    buf = np.empty((min(step, rows) * p, n))
    if family.kind.angular:
        signs = np.empty(buf.shape, np.bool_)
        weights = 1 << np.arange(p, dtype=code_dtype)
        if not direct:
            packed = np.empty((min(step, rows), n), code_dtype)
    else:
        residues = np.empty((min(step, rows), n), np.uint32)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        proj = np.matmul(params.proj[r0 * p:r1 * p], pts.T, out=buf[:(r1 - r0) * p])
        if family.kind.angular:
            bits = np.greater_equal(proj, 0, out=signs[:(r1 - r0) * p])
            codes = out[r0:r1] if direct else packed[:r1 - r0]
            np.einsum("rpn,p->rn", bits.view(np.uint8).reshape(r1 - r0, p, n), weights,
                      out=codes, dtype=code_dtype, casting="unsafe")
            if family.kind is HashKind.FOLDED_SRP:
                np.minimum(codes, codes ^ code_dtype.type((1 << p) - 1), out=codes)
            if direct:
                continue
            mixed = (params.mix_a[r0:r1, :1] * (codes % _MIX_PRIME)
                     + params.mix_b[r0:r1, None]) % _MIX_PRIME
            out[r0:r1] = mixed % np.uint64(family.width)
            continue
        floors = proj.reshape(r1 - r0, p, n)
        np.add(floors, params.offsets[r0:r1, :, None], out=floors)
        np.divide(floors, family.bandwidth, out=floors)
        np.floor(floors, out=floors)
        lo, hi = floors.min(initial=0.0), floors.max(initial=0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidParameterError(
                "a bucket index overflowed float64: the points are too far from "
                f"the origin for bandwidth {family.bandwidth!r}")
        if not -_PRIME_F < lo <= hi < _PRIME_F:
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
        np.remainder(residues[:r1 - r0], np.uint32(family.width), out=out[r0:r1],
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


def collision_probability(family: LshFamily, x, y) -> float:
    """Probability that x and y share a raw hash code, in [0, 1]."""
    xv = _as_vector(x, family.dim)
    return float(kernel_values(family, xv[None, :], y)[0])


def rebucket_allowance(family: LshFamily, n_points: float) -> float:
    """Worst-case extra kernel sum from mapping raw codes into [0, width).

    Zero when SRP codes fit the width exactly; otherwise the false-collision
    rate is at most 1/width per point.
    """
    if family.kind.angular and (1 << family.depth) <= family.width:
        return 0.0
    return n_points / family.width
