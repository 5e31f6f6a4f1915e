"""Query-side estimators over a sketch.

A query reads one counter per row (the row's bucket for the query point).
The mean of those reads is an unbiased estimate of the kernel sum f_D(q);
the median-of-means aggregation trades a constant for exponential
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

Every consumer (the query functions here, the classifier, the regression
surrogate and mode finding) reads counters through :func:`estimate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lsh
from .errors import InsufficientRowsError, InvalidParameterError
from .lsh import LshFamily
from .sketch import RaceSketch, _row_base, _row_blocks

_N_FLOOR = 1.0


@dataclass
class QueryEstimate:
    """Per-query output bundle."""

    f_hat: float              # estimated kernel sum
    n_hat: float              # estimated dataset size
    kde: float                # normalized density, f_hat / max(n_hat, 1) clipped to [0, 1]
    row_values: np.ndarray    # the R per-row counter reads
    estimator: str            # "mean" or "median_of_means"


def mom_group_count(delta: float) -> int:
    """Number of median-of-means groups for failure probability delta."""
    if not 0.0 < delta < 1.0:
        raise InvalidParameterError(f"delta must be in (0, 1), got {delta}")
    return math.ceil(8.0 * math.log(1.0 / delta))


def _gather(sketch: RaceSketch, points) -> np.ndarray:
    """Counter reads for each query: shape (rows, n_queries).

    Reads ``counts.ravel()`` at ``bucket + r * width``: one query with one
    ``take`` of its R flat indices, a batch with a flat ``take`` per block of
    ``sketch._row_blocks``, so no flat index is formed for the whole batch.
    Buckets lie in ``[0, width)`` by construction, so ``clip`` never clips,
    and it spares ``take`` the buffered copy of its raise mode.
    """
    buckets = lsh.hash_batch(sketch.family, sketch.rows, points)
    rows, n = buckets.shape
    if n == 1:
        return sketch.counts.ravel().take(buckets[:, 0] + _row_base(rows, sketch.width))[:, None]
    out = np.empty((rows, n), sketch.counts.dtype)
    for block, flat, index in _row_blocks(sketch.counts, buckets):
        np.take(flat, index, out=out[block], mode="clip")
    return out


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


def estimate(sketch: RaceSketch, points, estimator: str = "median_of_means",
             delta: float = 0.1):
    """Kernel-sum estimates for a batch of queries, arrays in and arrays out.

    Returns ``(f_hat, kde, row_reads)``: the raw estimates and the normalized
    densities, each of shape (n,), and the counter reads of shape (rows, n).
    ``estimator`` is "mean" or "median_of_means" (which uses ``delta``).
    """
    values = _gather(sketch, points)
    if estimator == "mean":
        f_hat = values.mean(axis=0)
    elif estimator == "median_of_means":
        f_hat = _mom_aggregate(values, delta)
    else:
        raise InvalidParameterError(f"unknown estimator {estimator!r}")
    # clipped without np.clip, whose Python wrapper costs ~2.5 us a call
    kde = np.minimum(density(sketch, f_hat), 1.0)
    return f_hat, kde, values


def _query_one(sketch: RaceSketch, q, estimator: str, delta: float) -> QueryEstimate:
    qv = lsh._as_vector(q, sketch.family.dim)
    f_hat, kde, values = estimate(sketch, qv[None, :], estimator, delta)
    return QueryEstimate(float(f_hat[0]), sketch.n_hat, float(kde[0]), values[:, 0],
                         estimator)


def query_mean(sketch: RaceSketch, q) -> QueryEstimate:
    """Mean-of-rows estimate of the kernel sum at q, with N-hat normalization."""
    return _query_one(sketch, q, "mean", 0.5)


def query_median_of_means(sketch: RaceSketch, q, delta: float = 0.1) -> QueryEstimate:
    """Median-of-means estimate covered by the utility bound at failure rate delta.

    Rows are split into k = ceil(8 ln(1/delta)) contiguous groups of equal
    size; rows beyond k * floor(rows / k) are ignored. The median of an even
    group count is the average of the two central means.
    """
    return _query_one(sketch, q, "median_of_means", delta)


def query_many(sketch: RaceSketch, points, estimator: str = "median_of_means",
               delta: float = 0.1) -> list[QueryEstimate]:
    """Batch form of the query estimators (one pass over the counter array)."""
    pts = lsh._as_matrix(points, sketch.family.dim)
    f_hat, kde, values = estimate(sketch, pts, estimator, delta)
    return [QueryEstimate(float(f_hat[i]), sketch.n_hat, float(kde[i]), values[:, i],
                          estimator)
            for i in range(pts.shape[0])]


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
