import math

import numpy as np
import pytest

import racekit as rk
from racekit import oracle
from racekit.errors import InvalidParameterError


def test_exact_kernel_sum_single_point_is_one():
    fam = rk.new_family("srp", dim=2, depth=3, width=8, seed=0)
    q = np.array([0.6, -0.2])
    assert oracle.exact_kernel_sum(q[None, :], q, fam).value == pytest.approx(1.0)


def test_exact_kernel_sum_n_copies():
    fam = rk.new_family("euclidean", dim=2, depth=2, width=16, bandwidth=1.0, seed=0)
    q = np.array([1.0, 2.0])
    pts = np.tile(q, (37, 1))
    assert oracle.exact_kernel_sum(pts, q, fam).value == pytest.approx(37.0)


def test_exact_kernel_sum_known_angles():
    # points at angles 0, pi/2, pi from the query, depth 2: 1 + 0.25 + 0
    fam = rk.new_family("srp", dim=2, depth=2, width=4, seed=0)
    q = np.array([1.0, 0.0])
    pts = np.array([[2.0, 0.0], [0.0, 1.0], [-3.0, 0.0]])
    assert oracle.exact_kernel_sum(pts, q, fam).value == pytest.approx(1.25)


def test_exact_kernel_sum_permutation_and_partition():
    fam = rk.new_family("srp", dim=3, depth=2, width=8, seed=1)
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((40, 3))
    q = rng.standard_normal(3)
    whole = oracle.exact_kernel_sum(pts, q, fam).value
    shuffled = oracle.exact_kernel_sum(pts[rng.permutation(40)], q, fam).value
    parts = (oracle.exact_kernel_sum(pts[:17], q, fam).value
             + oracle.exact_kernel_sum(pts[17:], q, fam).value)
    assert shuffled == pytest.approx(whole)
    assert parts == pytest.approx(whole)


def test_monte_carlo_identical_points_collide_always():
    fam = rk.new_family("euclidean", dim=2, depth=2, width=8, bandwidth=0.3, seed=0)
    x = np.array([0.4, 0.5])
    res = oracle.monte_carlo_collision(fam, x, x, trials=1000, seed=5)
    assert res.value == 1.0
    assert res.std_err == 0.0
    assert res.trials == 1000


def test_monte_carlo_orthogonal_srp():
    fam = rk.new_family("srp", dim=2, depth=1, width=2, seed=0)
    res = oracle.monte_carlo_collision(fam, [1.0, 0.0], [0.0, 1.0],
                                       trials=100_000, seed=11)
    assert abs(res.value - 0.5) <= 0.005


def test_monte_carlo_validates_pstable_formula():
    fam = rk.new_family("euclidean", dim=3, depth=1, width=64, bandwidth=0.5, seed=0)
    x = np.zeros(3)
    y = np.array([0.25, 0.0, 0.0])
    analytic = rk.kernel_values(fam, [x], y)[0]
    res = oracle.monte_carlo_collision(fam, x, y, trials=150_000, seed=17)
    assert abs(analytic - res.value) <= 3 * res.std_err + 1e-9


def test_monte_carlo_deterministic_under_seed():
    fam = rk.new_family("srp", dim=2, depth=2, width=4, seed=0)
    a = oracle.monte_carlo_collision(fam, [1.0, 0.2], [0.4, 1.0], trials=5000, seed=9)
    b = oracle.monte_carlo_collision(fam, [1.0, 0.2], [0.4, 1.0], trials=5000, seed=9)
    assert a.value == b.value
    with pytest.raises(InvalidParameterError):
        oracle.monte_carlo_collision(fam, [1.0, 0.0], [0.0, 1.0], trials=0)


def test_exact_kde_classify_point_masses():
    fam = rk.new_family("srp", dim=2, depth=2, width=4, seed=0)
    a = np.tile([1.0, 0.1], (30, 1))
    b = np.tile([-1.0, 0.3], (30, 1))
    assert oracle.exact_kde_classify({"a": a, "b": b}, np.array([1.0, 0.1]), fam) == "a"
    assert oracle.exact_kde_classify({"a": a, "b": b}, np.array([-1.0, 0.3]), fam) == "b"


def test_exact_surrogate_loss_orthogonal_theta():
    # all pairs [x, 2x]; theta = 2 makes [theta, -1] orthogonal to every pair
    fam = rk.LshFamily(kind=rk.HashKind.FOLDED_SRP, dim=2, depth=4, width=16, seed=0)
    x = np.linspace(0.1, 1.0, 25)
    res = oracle.exact_surrogate_loss(x[:, None], 2 * x, [2.0], fam)
    assert res.value == pytest.approx(2 * 25 * 0.5**4)


def test_error_bound_reference_matches_formula():
    for f_tilde, rows, eps, delta in [(1000.0, 71, 0.1, 0.1), (5.0, 3, 2.0, 0.5)]:
        direct = math.sqrt((f_tilde**2 / rows + 2 * rows / eps**2)
                           * 32 * math.log(1 / delta))
        assert oracle.error_bound_reference(f_tilde, rows, eps, delta) == \
            pytest.approx(direct, rel=1e-12)
