"""The in-house Nelder-Mead against scipy's, point for point.

``optimize._nelder_mead`` ports ``scipy.optimize.minimize(method="Nelder-Mead")``
under the options racekit used to pass it (``maxfev``, ``xatol`` and
``fatol`` at ``_TOL``, an explicit initial simplex). Each case records every
point both searches evaluate and asserts the two sequences are equal bit for
bit, so ``fit_regression`` and ``find_mode`` answers do not move.
"""

import numpy as np
import pytest

from racekit import optimize

scipy_optimize = pytest.importorskip("scipy.optimize")


def _scipy_points(objective, simplex, max_evals):
    points = []

    def fn(x):
        points.append(np.array(x))
        return float(objective(x))

    scipy_optimize.minimize(fn, simplex[0], method="Nelder-Mead",
                            options={"maxfev": max_evals, "fatol": optimize._TOL,
                                     "xatol": optimize._TOL, "initial_simplex": simplex,
                                     "disp": False})
    return points


def _port_points(objective, simplex, max_evals):
    points = []

    def fn(x):
        points.append(np.array(x))
        return float(objective(x))

    optimize._nelder_mead(fn, simplex, max_evals)
    return points


def _simplex(start, step=0.5):
    start = np.asarray(start, dtype=np.float64)
    return np.vstack([start] + [start + step * e for e in np.eye(start.size)])


def _assert_same_points(objective, simplex, max_evals):
    ours = _port_points(objective, simplex, max_evals)
    theirs = _scipy_points(objective, simplex, max_evals)
    assert len(ours) == len(theirs) <= max_evals
    assert np.stack(ours).tobytes() == np.stack(theirs).tobytes()
    return ours


def _quadratic(dim):
    rng = np.random.default_rng(dim)
    center = rng.standard_normal(dim)
    weights = rng.uniform(0.5, 3.0, dim)
    return lambda x: float(weights @ (x - center) ** 2)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_quadratics_evaluate_scipys_points(dim):
    points = _assert_same_points(_quadratic(dim), _simplex(np.full(dim, 0.3)), 400)
    assert len(points) > 10 * dim  # a real search, not just the start simplex


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_a_piecewise_constant_objective_evaluates_scipys_points(dim):
    # plateaus make ties: equal vertex values and contractions no better than
    # the reflection they replace
    center = np.linspace(-0.7, 0.9, dim)
    _assert_same_points(lambda x: float(np.floor(2.0 * np.abs(x - center)).sum()),
                        _simplex(np.zeros(dim)), 400)


def test_an_objective_nan_on_a_half_space_evaluates_scipys_points():
    def objective(x):  # its minimum, at (1, 1), lies in the NaN half-space
        return float("nan") if x[0] + x[1] > 0.6 else float((x - 1.0) @ (x - 1.0))

    points = _assert_same_points(objective, _simplex(np.zeros(2)), 400)
    assert sum(p[0] + p[1] > 0.6 for p in points) > 3


@pytest.mark.parametrize("max_evals", [1, 2, 3, 4, 5, 17])
def test_budgets_cut_the_search_where_scipys_does(max_evals):
    points = _assert_same_points(_quadratic(3), _simplex(np.zeros(3)), max_evals)
    assert len(points) == max_evals


def _needle(x):
    return -1.0 if x @ x < 0.01 else 1.0


def test_a_budget_that_runs_out_during_a_shrink_stops_where_scipys_does():
    simplex = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # three vertices, a reflection and an inside contraction that both fail,
    # then the shrink's two halved vertices
    full = _port_points(_needle, simplex, 7)
    shrunk = {tuple(p) for p in full[5:]}
    assert shrunk == {(0.5, 0.0), (0.0, 0.5)}
    assert len(_assert_same_points(_needle, simplex, 6)) == 6
    _assert_same_points(_needle, simplex, 400)


def test_the_objective_gets_a_copy_of_each_point():
    simplex = _simplex(np.zeros(2))
    objective = _quadratic(2)

    def clobbering(x):
        value = objective(x)
        x[:] = 99.0
        return value

    assert (np.stack(_port_points(clobbering, simplex, 60)).tobytes()
            == np.stack(_port_points(objective, simplex, 60)).tobytes())
