"""Derivative-free minimization for sketch-defined objectives.

Sketch queries are piecewise-constant in their argument, so gradients do not
exist; simplex search handles this well as long as the initial simplex is
large enough to straddle the plateaus. The driver below runs Nelder-Mead
with shrinking restarts from the incumbent and falls back to a simple
pattern search over coordinates when the simplex makes no progress at all.
Only strict improvements are accepted, so the recorded trace is nonincreasing
and a flat objective returns the start point unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .errors import InvalidParameterError, OptimizerDivergenceError

_TOL = 1e-6  # convergence tolerance on the loss and on simplex moves


@dataclass
class OptimizerConfig:
    """Search budget; every value must allow at least one simplex run."""

    max_iters: int = 400      # objective evaluation budget per simplex run
    initial_step: float = 0.5
    restarts: int = 2

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise InvalidParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.restarts >= 0:
            raise InvalidParameterError(f"restarts must be >= 0, got {self.restarts}")
        if not 0 < self.initial_step < math.inf:
            raise InvalidParameterError(
                f"initial_step must be positive and finite, got {self.initial_step!r}")


class _BestTracker:
    """Wraps an objective, keeping the best strict improvement seen."""

    def __init__(self, fn, x0: np.ndarray):
        self._fn = fn
        self.best_x = np.array(x0, dtype=np.float64)
        self.best_f = float(fn(self.best_x))
        self.trace = [self.best_f]
        self.evals = 1

    def __call__(self, x) -> float:
        f = float(self._fn(np.asarray(x, dtype=np.float64)))
        self.evals += 1
        if np.isfinite(f) and f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=np.float64)
            self.trace.append(f)
        return f


def _coordinate_search(tracker: _BestTracker, step: float, max_evals: int):
    """Axis-aligned pattern search with halving steps."""
    dim = tracker.best_x.size
    start = tracker.evals
    while step > _TOL and tracker.evals - start < max_evals:
        improved = False
        for axis in range(dim):
            for sign in (+1.0, -1.0):
                probe = tracker.best_x.copy()
                probe[axis] += sign * step
                before = tracker.best_f
                tracker(probe)
                if tracker.best_f < before:
                    improved = True
                    break
        if not improved:
            step /= 2.0


def minimize_derivative_free(fn, x0, config: OptimizerConfig | None = None):
    """Minimize ``fn`` from ``x0`` without derivatives.

    Returns ``(x_best, f_best, trace)`` where ``trace`` is the nonincreasing
    list of accepted loss values (starting with the loss at ``x0``).
    """
    config = config or OptimizerConfig()
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    tracker = _BestTracker(fn, x0)

    step = config.initial_step
    for _ in range(config.restarts + 1):
        start = tracker.best_x
        simplex = np.vstack([start] + [start + step * e
                                       for e in np.eye(start.size)])
        before = tracker.best_f
        _scipy_minimize(tracker, start, method="Nelder-Mead",
                        options={"maxfev": config.max_iters,
                                 "fatol": _TOL, "xatol": _TOL,
                                 "initial_simplex": simplex, "disp": False})
        if tracker.best_f >= before - _TOL:
            break  # restart would reshrink an already stalled simplex
        step /= 2.0

    if tracker.best_f == tracker.trace[0]:
        # simplex never moved; sweep the axes before giving up
        _coordinate_search(tracker, config.initial_step, max_evals=config.max_iters)

    if not np.isfinite(tracker.best_f):
        raise OptimizerDivergenceError(
            f"no finite objective value within {tracker.evals} evaluations")
    return tracker.best_x, tracker.best_f, tracker.trace
