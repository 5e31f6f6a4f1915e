"""Discrete Laplace release of a sketch and one-shot budget bookkeeping.

A record moves one counter per row in every sketch, regression sketches
included (their folded family answers for ``z`` and ``-z`` from one insertion
of ``z``), so the R rows stack to an L1 sensitivity of R. The release adds
i.i.d. discrete Laplace noise, ``P(k) ~ alpha ** |k|`` with ``alpha =
exp(-1 / scale)`` and ``scale = R / epsilon`` (Ghosh, Roughgarden
and Sundararajan, STOC 2009): each counter it covers is released as an
integer with zero-mean noise of variance ``2 alpha / (1 - alpha) ** 2``. A
noise value is the difference of two geometric draws ``floor(scale * E)``,
``E`` standard exponential, since ``P(floor(scale * E) >= k) = alpha ** k``; a scale above
``MAX_NOISE_SCALE``, past which a draw may not be an exact integer, is rejected.

Only the columns a bucket can reach carry noise (``LshFamily.reachable_width``:
``2 ** p`` for direct SRP codes, ``2 ** (p - 1)`` for direct folded codes, W
otherwise). A column past it is 0 in the sketch of every dataset, so adding
or removing a record never moves it: the record's one counter per row lies
in a reachable column, the L1 sensitivity of the reachable block is still R,
and the rest is a constant that releasing as an exact 0 leaks nothing about,
while noise on it would only add variance to N-hat. Built and loaded tables
hold only the reachable columns (see :mod:`racekit.sketch`), so a release
keeps that table and its file carries the other columns as zeros. A table
that holds a non-zero count past them (a crafted file, which ``load`` keeps
at full width) was not built by its family and is refused, since that
count would be published without noise.

Noise generation is counter-based (Philox keyed by the release seed). The
(rows, reachable width) matrix added is a reproducible function of the seed
and that shape, and its entries are independent; the value at one counter
depends on the drawn shape as well as its position. The matrix is drawn in
blocks of rows, about 4 MiB of draws each, from the one stream: the first
``rows * cols`` exponentials give the first geometric term of every entry and
the next ``rows * cols`` the second, in the order a one-shot draw of shape
(2, rows, cols) would read them, so the block size changes no value. Each
term is added to (or subtracted from) its int64 destination in integer
arithmetic, so a release adds the noise straight into the table it releases
and needs that table plus one block of draws; ``privatize`` adds it to a copy,
and the library's own releases (``fit_regression``, ``train_classifier``,
``racekit privatize``) to the table they built or loaded. Passing an explicit
``rng_seed`` makes the release deterministic, which is for tests only and is
NOT private; production releases must leave the seed unset so it is drawn from
the OS entropy pool. ``seed`` in :mod:`racekit.ml` follows this rule.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from .errors import DoubleReleaseError, FrozenSketchError, InvalidParameterError
from .sketch import RaceSketch

# floor(scale * E) reaches 2**53, where doubles stop being exact integers, only
# when E > 2**13, which has probability exp(-8192).
MAX_NOISE_SCALE = 2.0**40

# Exponential draws per block of noise rows, about 4 MiB of float64.
_DRAW_BUDGET = 1 << 19


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


def _check_noise(scale: float, seed: int) -> None:
    if not 0 < scale <= MAX_NOISE_SCALE:
        raise InvalidParameterError(f"noise scale {scale} is outside (0, {MAX_NOISE_SCALE:g}]")
    if not 0 <= seed < 2**128:
        raise InvalidParameterError("seed must fit in 128 bits")


def laplace_noise_matrix(rows: int, cols: int, scale: float, seed: int, *,
                         add_to: np.ndarray | None = None) -> np.ndarray:
    """The exact (rows, cols) int64 noise matrix a release with this seed adds.

    With ``add_to``, an int64 (rows, cols) array or view, the noise is added
    into it in place, one block of draws at a time, and it is returned.
    """
    if rows < 1 or cols < 1:
        raise InvalidParameterError("noise matrix must have positive shape")
    _check_noise(scale, seed)
    if add_to is None:
        add_to = np.zeros((rows, cols), np.int64)
    elif add_to.shape != (rows, cols) or add_to.dtype != np.int64:
        raise InvalidParameterError(
            f"cannot add ({rows}, {cols}) int64 noise to a {add_to.dtype} array "
            f"of shape {add_to.shape}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    step = max(1, _DRAW_BUDGET // cols)
    block = np.empty((min(step, rows), cols))

    def terms():
        """``(destination rows, floor(scale * E))`` per block, in stream order."""
        for r0 in range(0, rows, step):
            draws = rng.standard_exponential(out=block[:min(step, rows - r0)])
            draws *= scale
            yield add_to[r0:r0 + step], np.floor(draws, out=draws)

    # each term is an integer below 2**53, cast exactly to int64 in the
    # ufunc's small casting buffers; the sums are integer arithmetic
    for dest, term in terms():
        np.add(dest, term, out=dest, dtype=np.int64, casting="unsafe")
    for dest, term in terms():
        np.subtract(dest, term, out=dest, dtype=np.int64, casting="unsafe")
    return add_to


def _release(clean: RaceSketch, budget: PrivacyBudget, rng_seed: int | None) -> RaceSketch:
    """Release ``clean`` in place: its table becomes the released sketch's.

    Refuses what ``privatize`` refuses and consumes the budget once every
    check has passed, before noise is drawn; the noise is then added into
    the reachable columns of ``clean.counts``, so the caller must own that
    table and drop ``clean``, which no longer holds clean counts.
    """
    if clean.privatized:
        raise FrozenSketchError("sketch is already privatized")
    if not clean.row_sums_consistent():
        # each row must partition the inserted points across its buckets
        raise InvalidParameterError(
            "row sums do not match the inserted count; refusing to release")
    live = clean.family.reachable_width
    if clean.counts[:, live:].any():
        # these columns are released without noise
        raise InvalidParameterError(
            f"columns {live} and up, which no bucket reaches, hold non-zero counts; "
            "refusing to release")
    scale = clean.rows / budget.epsilon
    seed = secrets.randbits(128) if rng_seed is None else rng_seed
    _check_noise(scale, seed)
    budget.consume()
    laplace_noise_matrix(clean.rows, live, scale, seed, add_to=clean.counts[:, :live])
    return RaceSketch(clean.counts, clean.family, privatized=True, epsilon=budget.epsilon)


def privatize(sketch: RaceSketch, budget: PrivacyBudget, rng_seed: int | None = None) -> RaceSketch:
    """Release a clean sketch: add discrete Laplace(rows / epsilon) noise.

    Noise covers the family's reachable columns; the rest are released as the
    exact zeros they hold, and a sketch with a non-zero count there raises
    ``InvalidParameterError``. Returns a new privatized sketch carrying
    epsilon instead of the exact element count; the input sketch is left
    untouched (the release is a copy of its table) and the budget is
    consumed once every check has passed, before noise is drawn.
    Deterministic only when ``rng_seed`` is given (test mode, not private).
    """
    if sketch.privatized:
        raise FrozenSketchError("sketch is already privatized")
    copy = RaceSketch(sketch.counts.copy(), sketch.family, inserted=sketch.inserted)
    return _release(copy, budget, rng_seed)
