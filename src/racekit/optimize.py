"""Derivative-free minimization for sketch-defined objectives.

Sketch queries are piecewise-constant in their argument, so gradients do not
exist; simplex search handles this well as long as the initial simplex is
large enough to straddle the plateaus. The driver below runs Nelder-Mead
(Nelder and Mead, 1965) with shrinking restarts from the incumbent; the
simplex method is a port of ``scipy.optimize.minimize(method="Nelder-Mead")``
that evaluates the same points in the same order, so racekit needs numpy
alone. Only strict improvements are accepted, so the recorded trace is
nonincreasing and a flat objective returns the start point unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, OptimizerDivergenceError

_TOL = 1e-6  # convergence tolerance on the loss and on simplex moves


@dataclass
class OptimizerConfig:
    """Search budget; every value must allow at least one simplex run."""

    max_iters: int = 400      # objective evaluation budget per Nelder-Mead search
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
        f = float(fn(self.best_x))
        self.best_f = math.inf if math.isnan(f) else f  # so any finite value improves on it
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


class _OutOfBudget(Exception):
    pass


def _nelder_mead(fn, simplex: np.ndarray, max_evals: int) -> None:
    """Nelder-Mead from ``simplex`` (rows are vertices), at most ``max_evals`` calls.

    The unbounded, non-adaptive method (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2) in scipy's steps and order: vertices are
    ranked by ``argsort``, a search stops once every vertex is within
    ``_TOL`` of the best in each coordinate and in value, and a budget that
    runs out mid-step ends it there. ``fn`` gets a copy of each point and
    keeps the result itself, as :class:`_BestTracker` does.
    """
    sim = np.array(simplex, dtype=np.float64)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    evals = 0

    def f(x):
        nonlocal evals
        if evals >= max_evals:
            raise _OutOfBudget
        evals += 1
        return fn(x.copy())

    def ranked():
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        sim, fsim = ranked()
        sim, fsim = ranked()  # scipy ranks twice; argsort need not keep ties in place
        while evals < max_evals:
            if (np.max(np.abs(sim[1:] - sim[0])) <= _TOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= _TOL):
                return
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    keep = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            sim, fsim = ranked()
    except _OutOfBudget:
        pass


def minimize_derivative_free(fn, x0, config: OptimizerConfig | None = None):
    """Minimize ``fn`` from ``x0`` without derivatives.

    Returns ``(x_best, f_best, trace)`` where ``trace`` is the nonincreasing
    list of accepted loss values (starting with the loss at ``x0``, read as
    +inf where it is NaN).
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
        _nelder_mead(tracker, simplex, config.max_iters)
        if tracker.best_f >= before - _TOL:
            break  # restart would reshrink an already stalled simplex
        step /= 2.0

    if not np.isfinite(tracker.best_f):
        raise OptimizerDivergenceError(
            f"no finite objective value within {tracker.evals} evaluations")
    return tracker.best_x, tracker.best_f, tracker.trace
