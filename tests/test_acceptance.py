"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them all),
and uses frozen seeds so reruns are deterministic. Statistical tolerances
come from the estimator variance bounds plus the documented rebucket
allowance; released counters are integers with zero-mean noise, so a release
adds no offset of its own.
"""

import itertools
import math
import time

import numpy as np
import pytest

import racekit as rk
from racekit import estimation, ml, oracle
from racekit.errors import DoubleReleaseError, FrozenSketchError
from racekit.privacy import laplace_noise_matrix


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_mean_estimator_unbiasedness():
    # 2D Gaussian, N=2000, sign projections depth 4, R=4000, W=500, clean sketch
    rng = np.random.default_rng(99)
    data = rng.standard_normal((2000, 2))
    fam = rk.new_family("srp", dim=2, depth=4, width=500, seed=31)
    sk = rk.build(data, fam, rows=4000)
    queries = rng.standard_normal((50, 2))
    f_hat = rk.estimate(sk, queries, "mean").f_hat
    hits = 0
    for q, est in zip(queries, f_hat):
        exact = oracle.exact_kernel_sum(data, q, fam).value
        ft = rk.f_tilde(data, q, fam)
        bound = 3.0 * math.sqrt((ft**2 + ft**2 / fam.width) / sk.rows)
        hits += abs(est - exact) <= bound
    _report(1, "mean-estimator unbiasedness", hits >= 47, f"{hits}/50 within 3-sigma")


def test_criterion_02_collision_probability_laws():
    worst = 0.0
    angles = np.linspace(0.15 * math.pi, 0.8 * math.pi, 20)
    for kind, depth in itertools.product(("srp", "folded-srp"), (1, 2, 4)):
        fam = rk.new_family(kind, dim=2, depth=depth, width=max(2, 2**depth), seed=0)
        for i, a in enumerate(angles):
            x, y = np.array([1.0, 0.0]), np.array([math.cos(a), math.sin(a)])
            analytic = rk.collision_probability(fam, x, y)
            mc = oracle.monte_carlo_collision(fam, x, y, trials=100_000, seed=100 + i)
            worst = max(worst, abs(analytic - mc.value) / max(mc.std_err, 1e-12))
    angular_worst = worst

    worst = 0.0
    for depth in (1, 2):
        fam = rk.new_family("euclidean", dim=3, depth=depth, width=64,
                            bandwidth=0.5, seed=0)
        for i, c in enumerate(np.linspace(0.05, 1.5, 10)):
            x, y = np.zeros(3), np.array([c, 0.0, 0.0])
            analytic = rk.collision_probability(fam, x, y)
            mc = oracle.monte_carlo_collision(fam, x, y, trials=100_000,
                                              seed=200 + i + 10 * depth)
            worst = max(worst, abs(analytic - mc.value) / max(mc.std_err, 1e-12))
    _report(2, "collision-probability laws", angular_worst <= 3.0 and worst <= 3.0,
            f"worst z: srp and folded-srp {angular_worst:.2f}, euclidean {worst:.2f}")


def test_criterion_03_noise_calibration():
    # one million counters at rows=100, epsilon=1: discrete Laplace scale 100;
    # depth 14 codes are rebucketed, so all 10 000 columns are reachable
    fam = rk.new_family("srp", dim=2, depth=14, width=10_000, seed=6)
    clean = rk.build(np.random.default_rng(1).standard_normal((200, 2)), fam, rows=100)
    released = rk.privatize(clean, rk.PrivacyBudget(1.0), rng_seed=777)
    noise = laplace_noise_matrix(100, 10_000, 100.0, seed=777)
    alpha = math.exp(-1.0 / 100.0)
    variance = 2 * alpha / (1 - alpha) ** 2
    var_hat, mean_hat = float(noise.var()), float(noise.mean())
    ok = (np.issubdtype(noise.dtype, np.integer)
          and bool((released.counts == clean.counts + noise).all())
          and abs(var_hat / variance - 1) <= 0.02
          and abs(mean_hat) <= 3 * math.sqrt(variance / noise.size))
    _report(3, "noise calibration", ok,
            f"{noise.dtype} noise, variance {var_hat:.0f} vs {variance:.0f}, "
            f"mean {mean_hat:.3f}, release = clean + noise exactly")


def test_criterion_04_merge_exactness():
    rng = np.random.default_rng(17)
    fam = rk.new_family("srp", dim=3, depth=4, width=64, seed=8)
    data = rng.standard_normal((600, 3))
    whole = rk.build(data, fam, rows=50)
    ok = True
    for trial in range(20):
        perm = rng.permutation(len(data))
        cut = int(rng.integers(1, len(data)))
        a, b = data[perm[:cut]], data[perm[cut:]]
        merged = rk.merge(rk.build(a, fam, 50), rk.build(b, fam, 50))
        ok = ok and merged == whole
    _report(4, "merge exactness", ok, "20/20 splits byte-equal")


def test_criterion_05_utility_bound_coverage():
    rng = np.random.default_rng(57)
    data = rng.standard_normal((2000, 2))
    fam = rk.new_family("srp", dim=2, depth=2, width=200, seed=55)
    queries = rng.standard_normal((20, 2))
    epsilon, delta = 1.0, 0.1

    f_tildes = np.array([rk.f_tilde(data, q, fam) for q in queries])
    rows = rk.optimal_rows(float(np.median(f_tildes)), epsilon)
    clean = rk.build(data, fam, rows)
    exact = np.array([oracle.exact_kernel_sum(data, q, fam).value for q in queries])
    bounds = np.array([rk.error_bound(ft, rows, epsilon, delta) for ft in f_tildes])
    allowance = rk.rebucket_allowance(fam, len(data))

    hits = total = 0
    for draw in range(200):
        released = rk.privatize(clean, rk.PrivacyBudget(epsilon), rng_seed=9000 + draw)
        errors = np.abs(rk.estimate(released, queries, "median_of_means", delta).f_hat - exact)
        hits += int(np.sum(errors <= bounds + allowance))
        total += len(queries)
    _report(5, "utility bound coverage", hits / total >= 0.90,
            f"{hits}/{total} = {hits / total:.1%} within the bound at R={rows}")


def test_criterion_06_optimal_rows_arithmetic():
    ok = rk.optimal_rows(1000.0, 0.1) == 71
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        ft = float(rng.uniform(10, 5000))
        eps = float(rng.uniform(0.05, 5.0))
        delta = float(rng.uniform(0.01, 0.5))
        rows = rk.optimal_rows(ft, eps)
        mine = rk.error_bound(ft, rows, eps, delta)
        ref = oracle.error_bound_reference(ft, rows, eps, delta)
        worst = max(worst, abs(mine - ref) / ref)
        closed_form = 16.0 * math.sqrt(ft / eps * math.log(1 / delta))
        ok = ok and mine <= closed_form * (1 + 1e-9)
    _report(6, "optimal-rows arithmetic", ok and worst <= 1e-9,
            f"worst relative gap {worst:.2e}")


def test_criterion_07_classification_utility():
    rng = np.random.default_rng(2024)
    n_train, n_test = 5000, 500
    train = {0: rng.normal((3, 0), 1.0, (n_train, 2)),
             1: rng.normal((-3, 0), 1.0, (n_train, 2))}
    queries = np.vstack([rng.normal((3, 0), 1.0, (n_test, 2)),
                         rng.normal((-3, 0), 1.0, (n_test, 2))])
    truth = np.array([0] * n_test + [1] * n_test)
    fam = rk.new_family("srp", dim=2, depth=4, width=200, seed=77)

    kde_a = np.array([oracle.exact_kde(train[0], q, fam).value for q in queries])
    kde_b = np.array([oracle.exact_kde(train[1], q, fam).value for q in queries])
    oracle_acc = float(np.mean((kde_a < kde_b).astype(int) == truth))

    clean = {c: rk.build(pts, fam, 500) for c, pts in train.items()}
    accuracies = []
    for draw in range(10):
        sketches = [rk.privatize(clean[c], rk.PrivacyBudget(1.0),
                                 rng_seed=3000 + 10 * draw + c) for c in (0, 1)]
        clf = rk.Classifier(classes=[0, 1], sketches=sketches, epsilon=1.0)
        accuracies.append(float(np.mean(np.array(clf.predict(queries)) == truth)))
    mean_acc = float(np.mean(accuracies))
    ok = mean_acc >= 0.95 and mean_acc >= oracle_acc - 0.03
    _report(7, "classification utility", ok,
            f"race {mean_acc:.3f} vs oracle {oracle_acc:.3f} over 10 draws")


def test_criterion_08_regression_surrogate():
    n = 128
    x = np.linspace(-1.0, 1.0, n)
    y = 2.0 * x
    config = rk.OptimizerConfig(max_iters=120, initial_step=0.5, restarts=1)
    good = 0
    model = None
    for seed in range(10):
        model = rk.fit_regression(x[:, None], y, depth=4, rows=100_000, width=32,
                                  epsilon=1e6, seed=seed, config=config)
        good += abs(float(model.theta[0]) - 2.0) <= 0.2

    # scaled theta = 1 is orthogonal to every augmented record: the sketched
    # surrogate must sit at the analytic minimum N * 2 * 0.5^p (the folded
    # kernel at a right angle) up to the rebucket allowance (0 here) and
    # Monte-Carlo noise
    loss = ml.surrogate_loss(model.sketch, np.array([1.0]))
    expected = 2 * n * 0.5**4
    rate = 2 * 0.5**4
    sigma = n * math.sqrt(rate * (1 - rate) / model.sketch.rows)
    allowance = rk.rebucket_allowance(model.sketch.family, n)
    minimum_ok = abs(loss - expected) <= allowance + 4 * sigma
    _report(8, "regression surrogate", good >= 9 and minimum_ok,
            f"slope within 0.2 in {good}/10 runs; orthogonal loss {loss:.2f} "
            f"vs {expected:.2f}")


def test_criterion_09_streaming_scalability():
    rng = np.random.default_rng(5)
    fam = rk.new_family("srp", dim=10, depth=2, width=500, seed=1)
    rk.build(rng.standard_normal((2000, 10)), fam, 500)  # warm caches

    def best_build(n):
        data = rng.standard_normal((n, 10))
        best, sk = math.inf, None
        for _ in range(2):
            t0 = time.perf_counter()
            sk = rk.build(data, fam, 500)
            best = min(best, time.perf_counter() - t0)
        return best, sk

    t_small, sk_small = best_build(100_000)
    t_large, sk_large = best_build(200_000)
    ratio = t_large / t_small
    bytes_ok = (sk_small.counts.nbytes == 500 * 500 * 8
                and sk_large.counts.nbytes == 500 * 500 * 8
                and len(rk.serialize(sk_small)) == len(rk.serialize(sk_large)))
    _report(9, "streaming scalability", 1.5 <= ratio <= 3.0 and bytes_ok,
            f"time ratio {ratio:.2f} ({t_small:.2f}s -> {t_large:.2f}s), "
            f"sketch memory fixed at {sk_small.counts.nbytes} bytes")


def test_criterion_10_privacy_contracts():
    fam = rk.new_family("srp", dim=2, depth=3, width=32, seed=2)
    clean = rk.build(np.random.default_rng(0).standard_normal((100, 2)), fam, 20)
    budget = rk.PrivacyBudget(1.0)
    released = rk.privatize(clean, budget, rng_seed=4)

    round_trip = rk.deserialize(rk.serialize(released))
    ok = round_trip.inserted is None and round_trip.epsilon == 1.0

    with pytest.raises(FrozenSketchError):
        released.add(np.zeros(2))
    with pytest.raises(FrozenSketchError):
        rk.merge(released, released)
    with pytest.raises(DoubleReleaseError):
        rk.privatize(clean, budget, rng_seed=5)
    with pytest.raises(FrozenSketchError):
        rk.privatize(released, rk.PrivacyBudget(1.0), rng_seed=6)
    _report(10, "privacy contracts", ok,
            "released sketches drop the exact count and reject mutation")
