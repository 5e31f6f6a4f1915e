"""Laplace-mechanism release of a sketch and one-shot budget bookkeeping.

Each counter has sensitivity 1 within its row (a point lands in exactly one
bucket per row), and the R rows stack, so releasing the whole array with
epsilon-differential privacy requires i.i.d. Laplace noise of scale
``rows / epsilon`` on every counter. The noised counters are floored to
integers; flooring is post-processing and costs no privacy.

Noise generation is counter-based (Philox keyed by the release seed), so the
value added at (row, column) is a reproducible function of the seed and the
counter position, and independent across counters. Passing an explicit
``rng_seed`` makes the release deterministic, which is for tests only and is
NOT private; production releases must leave the seed unset so it is drawn
from the OS entropy pool.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from .errors import DoubleReleaseError, FrozenSketchError, InvalidParameterError
from .sketch import RaceSketch


@dataclass
class PrivacyBudget:
    """An epsilon that can be spent exactly once."""

    epsilon: float
    consumed: bool = False

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidParameterError(f"epsilon must be > 0, got {self.epsilon}")

    def consume(self) -> None:
        if self.consumed:
            raise DoubleReleaseError("privacy budget already spent")
        self.consumed = True


def laplace_inverse_cdf(u, scale: float):
    """Map uniform draws in [0, 1) to zero-mean Laplace(scale) samples."""
    if not scale > 0:
        raise InvalidParameterError(f"scale must be > 0, got {scale}")
    u = np.asarray(u, dtype=np.float64)
    inner = 1.0 - 2.0 * np.abs(u - 0.5)
    # u == 0.0 would map to -inf; nudge onto the smallest positive double
    inner = np.maximum(inner, np.finfo(np.float64).tiny)
    return -scale * np.sign(u - 0.5) * np.log(inner)


def laplace_noise_matrix(rows: int, cols: int, scale: float, seed: int) -> np.ndarray:
    """The exact (rows, cols) noise matrix a release with this seed adds, pre-floor."""
    if rows < 1 or cols < 1:
        raise InvalidParameterError("noise matrix must have positive shape")
    if not 0 <= seed < 2**128:
        raise InvalidParameterError("seed must fit in 128 bits")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return laplace_inverse_cdf(rng.random((rows, cols)), scale)


def privatize(sketch: RaceSketch, budget: PrivacyBudget, rng_seed: int | None = None) -> RaceSketch:
    """Release a clean sketch: add Laplace(rows / epsilon) noise and floor.

    Returns a new privatized sketch carrying epsilon instead of the exact
    element count; the input sketch is left untouched and the budget is
    marked consumed. Deterministic only when ``rng_seed`` is given (test
    mode, not private).
    """
    if sketch.privatized:
        raise FrozenSketchError("sketch is already privatized")
    if not sketch.row_sums_consistent():
        # each row must partition the inserted points across its buckets
        raise InvalidParameterError(
            "row sums do not match the inserted count; refusing to release")
    budget.consume()
    seed = secrets.randbits(128) if rng_seed is None else rng_seed
    scale = sketch.rows / budget.epsilon
    noise = laplace_noise_matrix(sketch.rows, sketch.width, scale, seed)
    noised = np.floor(sketch.counts + noise).astype(np.int64)
    return RaceSketch(noised, sketch.family, privatized=True, epsilon=budget.epsilon)
