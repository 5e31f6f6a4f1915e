"""Query-side estimators over a sketch.

A query reads one counter per row (the row's bucket for the query point).
The mean of those reads is an unbiased estimate of the kernel sum f_D(q)
only where codes are their own buckets (angular, ``2 ** depth <= width``).
Mixed into W buckets (euclidean, or angular with ``2 ** depth > width``),
each other point shares the query's bucket with probability 1/W, so
``E[read] = f + (N - f) / W``, uncorrected here (``lsh.rebucket_allowance``
bounds it). The median-of-means aggregation trades a constant for exponential
concentration and is what the utility bound covers. The dataset size N-hat
is the grand counter total divided by the row count: each row of a clean
sketch sums to N, and a release adds integer, zero-mean discrete Laplace noise
(its scale is capped so draws stay exact in int64; see ``racekit.privacy``)
to the family's reachable columns only: N-hat sums R * live draws of
variance ``2 alpha / (1 - alpha) ** 2``, about ``2 (R / epsilon) ** 2``, over
R, so its noise variance is about ``2 R live / epsilon ** 2`` with ``live =
LshFamily.reachable_width``. N-hat lives on the sketch as ``RaceSketch.n_hat``
and is computed once per counter state, not once per query. Negative values
can appear after privatization: the raw estimate is reported as-is, the size
estimate is floored at one before dividing, and the normalized density is
clipped to [0, 1], the true one's range (post-processing, no privacy cost).

Every consumer (the classifier, the regression surrogate, mode finding and
the CLI) reads counters through :func:`estimate` and its :class:`Estimate`.
A batch is read one block of ``max(1, _INDEX_BUDGET // rows)`` queries at a
time (524 at R=1000), each block with one ``take`` of its flat counter
indices, so its memory is its (n,) answers plus a few 4 MiB blocks, for any
n; reads are integers, whose float64 sums are exact in any order, so the
block size never changes an answer.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import lsh, sketch as rsketch
from .errors import InsufficientRowsError, InvalidParameterError
from .lsh import LshFamily
from .sketch import RaceSketch, _row_base

_N_FLOOR = 1.0


class Estimate(NamedTuple):
    """Raw kernel-sum estimates and densities ``f_hat / max(n_hat, 1)`` clipped to [0, 1].

    Two (n,) arrays from :func:`estimate`, two floats from
    :func:`query_median_of_means` and :func:`query_many`. The counter reads
    behind them are not kept: ``_gather`` returns a batch's (rows, n) reads.
    """

    f_hat: np.ndarray | float
    kde: np.ndarray | float


def mom_group_count(delta: float) -> int:
    """Number of median-of-means groups for failure probability delta."""
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return math.ceil(8.0 * math.log(1.0 / delta))


def _gather(sketch: RaceSketch, points, out: np.ndarray | None = None) -> np.ndarray:
    """Counter reads for each query: shape (rows, n_queries), into ``out`` when given.

    ``points`` is an (n, d) matrix whose values the caller has checked as
    finite (:func:`estimate` checks a batch once, :func:`query_median_of_means`
    its point once), so it is hashed with ``checked=True``. One ``take`` from
    ``counts.ravel()`` at the flat indices ``bucket + r * k`` of every row
    and query, k being the table's stored columns (buckets lie below
    ``reachable_width <= k``), for any n: its (rows, n) index is
    :func:`estimate`'s block, at most ``_INDEX_BUDGET`` entries or one query.
    Buckets lie in ``[0, width)`` by construction, so ``clip`` never clips,
    and it spares ``take`` the buffered copy of its raise mode. ``out`` must
    be a C-contiguous int64 array of that shape.
    """
    buckets = lsh.hash_batch(sketch.family, sketch.rows, points, checked=True)
    index = buckets + _row_base(*sketch.counts.shape)
    return sketch.counts.ravel().take(index, out=out, mode="clip")


def _mom_aggregate(values: np.ndarray, delta: float) -> np.ndarray:
    """Median of k contiguous group means along axis 0; surplus rows ignored.

    Equal, bit for bit, to ``np.median(groups.mean(axis=1), axis=0)``: the
    group means are the float64 sums divided by the group size, as
    ``ndarray.mean`` computes them, and the median is read off a partition
    at the central index, or the two central indices for an even k, whose
    values are averaged as ``(a + b) / 2``. One query's (rows, 1) reads take
    the same path: their cost is the float64 group sums, which a
    one-dimensional reduction does not make cheaper.
    """
    rows = values.shape[0]
    k = mom_group_count(delta)
    m = rows // k
    if m < 1:
        raise InsufficientRowsError(
            f"median-of-means at delta={delta} needs k={k} groups, "
            f"but the sketch has only {rows} rows")
    groups = values[:k * m].reshape(k, m, *values.shape[1:])
    means = np.add.reduce(groups, axis=1, dtype=np.float64) / m
    half = k // 2
    if k % 2:
        means.partition(half, axis=0)
        return means[half]
    means.partition((half - 1, half), axis=0)
    return (means[half - 1] + means[half]) / 2


def density(sketch: RaceSketch, f_hat: np.ndarray) -> np.ndarray:
    """``max(f_hat, 0) / max(n_hat, 1)`` unclipped, for ranking: ``kde`` ties at 1."""
    return np.maximum(f_hat, 0.0) / max(sketch.n_hat, _N_FLOOR)


def _aggregate(values: np.ndarray, estimator: str, delta: float) -> np.ndarray:
    return values.mean(axis=0) if estimator == "mean" else _mom_aggregate(values, delta)


def _estimate_one(sketch: RaceSketch, point: np.ndarray, estimator: str,
                  delta: float) -> Estimate:
    """Two floats for one checked (1, d) ``point``: :func:`estimate`'s steps, in floats.

    ``kde`` is ``min(max(f, 0) / max(n_hat, 1), 1)`` on Python floats, the
    same IEEE operations as the batch's ``np.maximum``, divide and
    ``np.minimum``, which on one-element arrays cost 2-4 us.
    """
    f_hat = _aggregate(_gather(sketch, point), estimator, delta).item()
    return Estimate(f_hat, min(max(f_hat, 0.0) / max(sketch.n_hat, _N_FLOOR), 1.0))


def estimate(sketch: RaceSketch, points, estimator: str = "median_of_means",
             delta: float = 0.1) -> Estimate:
    """Kernel-sum estimates for a batch of queries, arrays in and arrays out.

    ``estimator`` is "mean" or "median_of_means" (which uses ``delta``).
    The points' shape and finiteness are checked once, here (one point's
    finiteness off its norm, see ``lsh._check_finite``), and every block is
    hashed with ``checked=True``. Queries are hashed, gathered and
    aggregated in blocks of ``max(1, _INDEX_BUDGET // rows)``, so no (rows,
    n) array is formed; one point takes :func:`query_median_of_means`'s
    float steps. Every block is read into one buffer the size of the first
    block's reads, and an empty batch runs one empty block, so it is refused
    where a batch of points would be: glibc's malloc may hand freed
    block-sized arrays back to the OS, and fresh ones per block cost 38k
    page faults per 10k-query batch at R=1000 (in ``racekit query`` between
    single-point queries), against 2k with the buffer.
    """
    if estimator not in ("mean", "median_of_means"):
        raise InvalidParameterError(f"unknown estimator {estimator!r}")
    pts = lsh._as_matrix(points, sketch.family.dim)
    lsh._check_finite(pts)
    n, rows = pts.shape[0], sketch.rows
    if n == 1:
        f_hat, kde = _estimate_one(sketch, pts, estimator, delta)
        return Estimate(np.array([f_hat]), np.array([kde]))
    step = max(1, rsketch._INDEX_BUDGET // rows)
    f_hat = np.empty(n)
    reads = np.empty(rows * min(n, step), sketch.counts.dtype)
    for q0 in range(0, max(n, 1), step):  # an empty batch is one empty block
        block = pts[q0:q0 + step]
        out = reads[:rows * len(block)].reshape(rows, len(block))
        f_hat[q0:q0 + step] = _aggregate(_gather(sketch, block, out), estimator, delta)
    # clipped without np.clip, whose Python wrapper costs ~2.5 us a call
    return Estimate(f_hat, np.minimum(density(sketch, f_hat), 1.0))


def query_median_of_means(sketch: RaceSketch, q, delta: float = 0.1) -> Estimate:
    """Median-of-means estimate at one point, covered by the utility bound at failure rate delta.

    Rows are split into k = ceil(8 ln(1/delta)) contiguous groups of equal
    size; rows beyond k * floor(rows / k) are ignored. The median of an even
    group count is the average of the two central means. The point's shape
    and finiteness are checked once, here, and ``f_hat`` and ``kde`` are
    computed as floats, equal to :func:`estimate`'s entries bit for bit.
    """
    point = lsh._as_vector(q, sketch.family.dim)[None, :]
    lsh._check_finite(point)
    return _estimate_one(sketch, point, "median_of_means", delta)


def query_many(sketch: RaceSketch, points, estimator: str = "median_of_means",
               delta: float = 0.1) -> list[Estimate]:
    """One :func:`estimate` of a batch, split into per-query ``Estimate``s of two floats.

    Kept for ``perfbench``'s serve workload, which reads and times it by name;
    library code reads :func:`estimate`.
    """
    f_hat, kde = estimate(sketch, points, estimator, delta)
    return [Estimate(f, k) for f, k in zip(f_hat.tolist(), kde.tolist())]


def error_bound(f_tilde_value: float, rows: int, epsilon: float, delta: float) -> float:
    """High-probability error of the private median-of-means estimate.

    sqrt((f_tilde^2 / R + 2 R / eps^2) * 32 ln(1 / delta)).
    """
    if f_tilde_value < 0 or rows < 1 or not epsilon > 0 or not 0 < delta < 1:
        raise InvalidParameterError(
            f"invalid arguments: f_tilde={f_tilde_value}, rows={rows}, "
            f"epsilon={epsilon}, delta={delta}")
    variance = f_tilde_value**2 / rows + 2.0 * rows / epsilon**2
    return math.sqrt(variance * 32.0 * math.log(1.0 / delta))


def optimal_rows(f_tilde_or_n: float, epsilon: float) -> int:
    """Row count minimizing the error bound: ceil(f_tilde * eps / sqrt(2)), at least 1.

    Callers that cannot evaluate f_tilde may pass the dataset size N, which
    upper-bounds it.
    """
    if not f_tilde_or_n > 0 or not epsilon > 0:
        raise InvalidParameterError(
            f"inputs must be positive, got {f_tilde_or_n}, {epsilon}")
    return max(1, math.ceil(f_tilde_or_n * epsilon / math.sqrt(2.0)))


def f_tilde(data, q, family: LshFamily) -> float:
    """Variance-controlling sum of root kernels over a raw dataset.

    Needs the raw points, so it is for planning row counts and test bounds in
    non-private contexts only.
    """
    pts = lsh._as_matrix(getattr(data, "points", data), family.dim)
    if pts.shape[0] == 0:
        return 0.0
    return float(np.sqrt(lsh.kernel_values(family, pts, q)).sum())
