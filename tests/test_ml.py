import json
import math

import numpy as np
import pytest

import racekit as rk
from racekit import estimation, ml, oracle
from racekit.errors import InvalidParameterError, OptimizerDivergenceError, SketchFormatError
from racekit.optimize import OptimizerConfig, minimize_derivative_free


def _two_point_mass_classifier(epsilon=1e9, seed=0):
    fam = rk.new_family("srp", dim=2, depth=3, width=16, seed=1)
    a = np.tile([1.0, 0.2], (40, 1))
    b = np.tile([-0.8, 1.0], (40, 1))
    clf = rk.train_classifier({"a": a, "b": b}, fam, rows=60, epsilon=epsilon,
                              seed=seed)
    return clf, a[0], b[0]


def test_train_and_classify_point_masses():
    clf, xa, xb = _two_point_mass_classifier()
    assert clf.predict([xa, xb]) == ["a", "b"]
    assert all(sk.privatized and sk.epsilon == 1e9 for sk in clf.sketches)


def test_scores_match_per_class_queries():
    clf, xa, xb = _two_point_mass_classifier(epsilon=1.0, seed=5)
    pts = np.vstack([xa, xb, [0.3, 0.3], [-1.0, -1.0]])
    _, kde = clf.scores(pts, "ml")
    map_decision, _ = clf.scores(pts, "map")
    for i, sk in enumerate(clf.sketches):
        est = estimation.estimate(sk, pts)
        assert kde[i].tolist() == est.kde.tolist()
        assert map_decision[i].tolist() == est.f_hat.tolist()


def test_train_classifier_rejects_degenerate_input():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, seed=0)
    with pytest.raises(InvalidParameterError):
        rk.train_classifier({"only": np.ones((5, 2))}, fam, 10, 1.0)
    with pytest.raises(InvalidParameterError):
        rk.train_classifier({"a": np.ones((5, 2)), "b": np.zeros((0, 2))},
                            fam, 10, 1.0)
    with pytest.raises(rk.DimensionMismatchError):
        rk.train_classifier({"a": np.ones((5, 2)), "b": np.ones((5, 3))},
                            fam, 10, 1.0)


def test_train_classifier_rejects_a_negative_seed():
    fam = rk.new_family("srp", dim=2, depth=2, width=8, seed=0)
    data = {"a": np.ones((5, 2)), "b": -np.ones((5, 2))}
    with pytest.raises(InvalidParameterError, match="seed"):
        rk.train_classifier(data, fam, 10, 1.0, seed=-1)


def test_tie_breaks_to_lowest_class_index():
    # identical clean sketches for both classes: scores tie exactly
    fam = rk.new_family("srp", dim=2, depth=3, width=16, seed=2)
    pts = np.tile([0.5, 0.5], (20, 1))
    sk1 = rk.build(pts, fam, 30)
    sk2 = rk.build(pts.copy(), fam, 30)
    clf = rk.Classifier(classes=["first", "second"], sketches=[sk1, sk2])
    assert clf.predict([[0.5, 0.5]]) == ["first"]


def test_map_prefers_majority_class_when_likelihoods_tie():
    fam = rk.new_family("srp", dim=2, depth=3, width=16, seed=3)
    x0 = np.array([0.7, -0.1])
    minority = rk.build(np.tile(x0, (50, 1)), fam, 30)
    majority = rk.build(np.tile(x0, (450, 1)), fam, 30)
    clf = rk.Classifier(classes=["minority", "majority"], sketches=[minority, majority])
    # per-class densities are both exactly 1, so max-likelihood ties to the
    # first class while MAP weighs in the 9:1 class sizes
    assert clf.predict([x0], rule="ml") == ["minority"]
    assert clf.predict([x0], rule="map") == ["majority"]



def _low_n_hat_release(clean, shift):
    """``clean`` less ``shift`` on every counter, as released counters with low N-hat noise.

    Every read drops by ``shift`` and N-hat by ``shift * width``, so the
    densities rank points as the clean sketch does but pass 1 near its data.
    """
    table = np.full((clean.rows, clean.width), -shift, np.int64)
    table[:, :clean.counts.shape[1]] += clean.counts
    return rk.RaceSketch(table, clean.family, privatized=True, epsilon=1.0)


def test_ml_ranks_densities_past_the_kde_cap():
    fam = rk.new_family("srp", dim=2, depth=3, width=16, seed=3)
    x0 = np.array([0.7, -0.1])
    low = _low_n_hat_release(rk.build(np.tile(x0, (40, 1)), fam, 30), 2)   # 38 / 8
    high = _low_n_hat_release(rk.build(np.tile(x0, (50, 1)), fam, 30), 3)  # 47 / 2
    clf = rk.Classifier(classes=["low", "high"], sketches=[low, high])
    assert clf.scores(x0[None, :], "ml")[1].ravel().tolist() == [1.0, 1.0]
    assert clf.predict([x0], rule="ml") == ["high"]

def test_decision_invariant_under_class_relabeling():
    rng = np.random.default_rng(6)
    fam = rk.new_family("srp", dim=2, depth=4, width=32, seed=4)
    data = {"a": rng.normal((2, 0), 0.5, (300, 2)),
            "b": rng.normal((-2, 1), 0.5, (300, 2)),
            "c": rng.normal((0, -2), 0.5, (300, 2))}
    queries = rng.standard_normal((40, 2)) * 2
    clf = rk.train_classifier(data, fam, rows=80, epsilon=1e6, seed=5)
    permuted = rk.train_classifier({"c": data["c"], "a": data["a"], "b": data["b"]},
                                   fam, rows=80, epsilon=1e6, seed=5)
    # generic queries produce no exact ties, so order must not matter
    assert clf.predict(queries) == permuted.predict(queries)


def test_classifier_requires_compatible_sketches():
    pts = np.ones((4, 2))
    a = rk.build(pts, rk.new_family("srp", 2, 3, 16, seed=1), 10)
    b = rk.build(pts, rk.new_family("srp", 2, 3, 16, seed=2), 10)
    with pytest.raises(InvalidParameterError):
        rk.Classifier(classes=["a", "b"], sketches=[a, b])


def test_anomaly_scores_against_exact_density():
    fam = rk.new_family("srp", dim=2, depth=8, width=100, seed=5)
    data = np.tile([1.0, 0.0], (2000, 1))
    sk = rk.build(data, fam, rows=400)
    far = np.array([0.0, 1.0])      # angle pi/2 to every training point
    near = np.array([2.0, 0.0])     # same direction as the mass

    exact_far = oracle.exact_kde(data, far, fam).value
    assert exact_far == pytest.approx(0.5**8)
    expected = exact_far + (1 - exact_far) / fam.width  # rebucket allowance
    score = rk.query_median_of_means(sk, far).kde
    sigma = np.sqrt(expected * (1 - expected) / sk.rows)
    assert abs(score - expected) <= 5 * sigma + 1e-9
    assert rk.query_median_of_means(sk, near).kde == 1.0


def _regression_fixture(n=64):
    x = np.linspace(-1.0, 1.0, n)
    return x[:, None], 2.0 * x


def test_fit_regression_requires_depth_two():
    x, y = _regression_fixture()
    with pytest.raises(InvalidParameterError):
        rk.fit_regression(x, y, depth=1, rows=100, width=16, epsilon=1.0)


def test_fit_regression_refuses_zero_input_columns_before_any_release(monkeypatch):
    def no_release(*args, **kwargs):
        raise AssertionError("released a sketch")

    monkeypatch.setattr(ml, "_release", no_release)
    with pytest.raises(InvalidParameterError, match="zero input columns"):
        rk.fit_regression(np.zeros((8, 0)), np.arange(8.0), rows=100, width=32,
                          epsilon=1.0)


def test_fit_regression_recovers_slope_roughly_and_logs_monotone_trace():
    x, y = _regression_fixture()
    model = rk.fit_regression(x, y, depth=4, rows=20_000, width=32, epsilon=1e6,
                              seed=3, config=OptimizerConfig(max_iters=120,
                                                             restarts=1))
    assert abs(model.theta[0] - 2.0) <= 0.5
    assert abs(model.intercept) <= 0.3
    assert all(a >= b for a, b in zip(model.trace, model.trace[1:]))
    assert model.sketch.privatized
    pred = model.predict(np.array([[0.25]]))
    assert pred.shape == (1,)


def test_fit_regression_sign_flip_flips_slope():
    x, y = _regression_fixture()
    cfg = OptimizerConfig(max_iters=120, restarts=1)
    up = rk.fit_regression(x, y, depth=4, rows=20_000, width=32, epsilon=1e6,
                           seed=9, config=cfg)
    down = rk.fit_regression(x, -y, depth=4, rows=20_000, width=32, epsilon=1e6,
                             seed=9, config=cfg)
    assert abs(up.theta[0] + down.theta[0]) <= 0.5
    assert up.theta[0] > 1.0 and down.theta[0] < -1.0


def _default_regression_release(**kwargs):
    """The released sketch of a one-evaluation fit at the defaults, and its clean twin."""
    x, y = _regression_fixture()
    model = rk.fit_regression(x, y, epsilon=1.0, **kwargs,
                              config=OptimizerConfig(max_iters=1, restarts=0))
    z = 2.0 * rk.scale(rk.Dataset(np.column_stack([x, y])), "cube").points - 1.0
    return model.sketch, rk.build(z, model.sketch.family, model.sketch.rows)


@pytest.mark.parametrize("seed,recovered", [(None, False), (0, True)],
                         ids=["default", "explicit-seed"])
def test_fit_regression_noise_is_derived_from_the_family_seed_only_when_seeded(
        seed, recovered):
    released, clean = _default_regression_release(seed=seed)
    assert released.family.seed == 0
    live = released.family.reachable_width
    noise = rk.laplace_noise_matrix(released.rows, live, released.rows / 1.0,
                                    ml._derive_seed(released.family.seed, 0x4E6))
    assert np.array_equal(released.counts[:, :live] - noise,
                          clean.counts[:, :live]) == recovered


def test_fit_regression_releases_repeat_only_with_a_seed():
    first, _ = _default_regression_release()
    second, _ = _default_regression_release()
    assert not np.array_equal(first.counts, second.counts)
    assert _default_regression_release(seed=3)[0] == _default_regression_release(seed=3)[0]


def test_fit_regression_releases_exactly_what_privatize_would():
    released, clean = _default_regression_release(seed=3)
    want = rk.privatize(clean, rk.PrivacyBudget(1.0), rng_seed=ml._derive_seed(3, 0x4E6))
    assert rk.serialize(released) == rk.serialize(want)


def test_train_classifier_releases_exactly_what_privatize_would():
    fam = rk.new_family("srp", dim=2, depth=3, width=16, seed=1)
    rng = np.random.default_rng(6)
    data = {"a": rng.normal(1.0, 1.0, (40, 2)), "b": rng.normal(-1.0, 1.0, (30, 2))}
    clf = rk.train_classifier(data, fam, rows=60, epsilon=0.5, seed=7)
    for i, (label, pts) in enumerate(data.items()):
        want = rk.privatize(rk.build(pts, fam, 60), rk.PrivacyBudget(0.5),
                            rng_seed=ml._derive_seed(7, i, 0xC1A5))
        assert rk.serialize(clf.sketches[i]) == rk.serialize(want)


def test_surrogate_orthogonal_theta_hits_analytic_minimum():
    x, y = _regression_fixture(n=256)
    model = rk.fit_regression(x, y, depth=4, rows=4000, width=32, epsilon=1e9,
                              seed=1, config=OptimizerConfig(max_iters=60, restarts=0))
    # scaled coordinates make theta = 1 orthogonal to every augmented pair
    loss = ml.surrogate_loss(model.sketch, np.array([1.0]))
    expected = 2 * 256 * 0.5**4
    rate = 2 * 0.5**4
    sigma = 256 * np.sqrt(rate * (1 - rate) / 4000)
    assert abs(loss - expected) <= 4 * sigma


def _released_regression_sketch():
    x, y = _regression_fixture()
    z = np.column_stack([x[:, 0], y / 2.0])
    fam = rk.new_family("folded-srp", dim=2, depth=4, width=32, seed=6)
    return rk.privatize(rk.build(z, fam, 200), rk.PrivacyBudget(1.0), rng_seed=4)


@pytest.mark.parametrize("estimator", ["mean", "median_of_means"])
def test_surrogate_loss_is_the_query_estimate_at_theta(estimator):
    sk = _released_regression_sketch()
    theta = np.array([0.6])
    q = np.append(theta, -1.0)
    q /= np.linalg.norm(q)
    expected = estimation.estimate(sk, [q], estimator).f_hat[0]
    assert ml.surrogate_loss(sk, theta, estimator=estimator) == expected


def test_surrogate_loss_rejects_unknown_estimator():
    with pytest.raises(InvalidParameterError):
        ml.surrogate_loss(_released_regression_sketch(), [0.6], estimator="bogus")


def test_surrogate_query_scale_invariance():
    x, y = _regression_fixture()
    model = rk.fit_regression(x, y, depth=4, rows=500, width=32, epsilon=1e9,
                              seed=2, config=OptimizerConfig(max_iters=40, restarts=0))
    q = np.array([0.37, -1.0])
    est = estimation.estimate(model.sketch, [q, 3.7 * q], "mean")
    reads = estimation._gather(model.sketch, [q, 3.7 * q])
    assert (reads[:, 0] == reads[:, 1]).all()
    assert est.f_hat[0] == est.f_hat[1]


def test_oracle_surrogate_unimodal_and_sketch_tracks_it():
    x, y = _regression_fixture(n=128)
    fam = rk.LshFamily(kind=rk.HashKind.FOLDED_SRP, dim=2, depth=4,
                       width=32, seed=11)
    xs = x.ravel()
    ys = y / 2.0  # scaled targets as fit_regression sees them
    probes = np.linspace(0.2, 1.8, 20)
    exact = np.array([oracle.exact_surrogate_loss(xs[:, None], ys, [t], fam).value
                      for t in probes])
    drops = np.flatnonzero(np.diff(exact) > 0)
    assert drops.size > 0 and (np.diff(exact)[drops.min():] > 0).all()

    rows, eps, delta = 4000, 50.0, 0.1
    z = np.column_stack([xs, ys])
    sk = rk.privatize(rk.build(z, fam, rows), rk.PrivacyBudget(eps), rng_seed=7)
    for t, exact_value in zip(probes, exact):
        sketched = ml.surrogate_loss(sk, np.array([t]), estimator="median_of_means",
                                     delta=delta)
        ft = rk.f_tilde(z, np.array([t, -1.0]) / np.hypot(t, 1.0), fam)
        bound = rk.error_bound(ft, rows, eps, delta)
        assert abs(sketched - exact_value) <= bound


_FOLD_RECORDS = np.random.default_rng(17).uniform(-1.0, 1.0, (300, 3))
_FOLD_QUERIES = np.random.default_rng(18).standard_normal((50, 3))


@pytest.mark.parametrize("depth,width", [(4, 16), (4, 32), (6, 64)])
def test_folded_reads_equal_pair_sketch_reads_at_direct_depths(depth, width):
    # h(-z) is the complement of h(z), so in a pair sketch count[c] and
    # count[~c] both count the records coded c or ~c; the folded sketch keeps
    # that count once, at min(c, ~c), which is below 2^(p-1)
    params = dict(dim=3, depth=depth, width=width, seed=5)
    z = _FOLD_RECORDS
    pair = rk.build(np.vstack([z, -z]), rk.new_family("srp", **params), 500)
    folded = rk.build(z, rk.new_family("folded-srp", **params), 500)
    assert np.array_equal(estimation._gather(folded, _FOLD_QUERIES),
                          estimation._gather(pair, _FOLD_QUERIES))
    half = 1 << (depth - 1)
    assert folded.counts.shape == (500, half)  # the columns a folded code reaches
    assert np.array_equal(folded.counts, pair.counts[:, :half])


@pytest.mark.parametrize("depth,width", [(12, 50), (4, 8)])
def test_folded_reads_track_the_pair_surrogate_at_rebucketed_depths(depth, width):
    # the mix adds false collisions (at most rebucket_allowance in total) and
    # the mean read has Monte Carlo error; 4 standard errors of the row reads
    fam = rk.new_family("folded-srp", dim=3, depth=depth, width=width, seed=5)
    rows = 2000
    sk = rk.build(_FOLD_RECORDS, fam, rows)
    est = estimation.estimate(sk, _FOLD_QUERIES, "mean")
    tolerance = 4 * estimation._gather(sk, _FOLD_QUERIES).std(axis=0, ddof=1) / np.sqrt(rows)
    allowance = rk.rebucket_allowance(fam, len(_FOLD_RECORDS))
    for q, read, tol in zip(_FOLD_QUERIES, est.f_hat, tolerance):
        # the surrogate's query [theta, -1] is any direction with a last coordinate < 0
        q = q if q[-1] < 0 else -q
        exact = oracle.exact_surrogate_loss(_FOLD_RECORDS[:, :2], _FOLD_RECORDS[:, 2],
                                            q[:2] / -q[2], fam).value
        assert -tol <= read - exact <= allowance + tol


def test_find_mode_tracks_oracle_ascent():
    rng = np.random.default_rng(42)
    center = np.array([1.5, -0.8])
    data = center + 0.15 * rng.standard_normal((2000, 2))
    fam = rk.new_family("euclidean", dim=2, depth=2, width=200, bandwidth=0.5, seed=3)
    sk = rk.privatize(rk.build(data, fam, 2000), rk.PrivacyBudget(1e9), rng_seed=1)
    init = center + np.array([0.35, -0.3])
    cfg = OptimizerConfig(max_iters=200, initial_step=0.3, restarts=2)

    target, _, _ = minimize_derivative_free(
        lambda p: -oracle.exact_kde(data, p, fam).value, init, cfg)
    found = rk.find_mode(sk, init, cfg)
    assert np.linalg.norm(found - target) <= fam.bandwidth
    kde_found = estimation.query_median_of_means(sk, found).kde
    kde_init = estimation.query_median_of_means(sk, init).kde
    assert kde_found >= kde_init



def test_find_mode_climbs_where_the_kde_is_capped():
    rng = np.random.default_rng(42)
    center = np.array([1.5, -0.8])
    data = center + 0.15 * rng.standard_normal((2000, 2))
    fam = rk.new_family("euclidean", dim=2, depth=2, width=200, bandwidth=0.5, seed=3)
    sk = _low_n_hat_release(rk.build(data, fam, 500), 9)  # N-hat 200
    init = center + np.array([0.35, -0.3])
    assert estimation.query_median_of_means(sk, init).kde == 1.0
    found = rk.find_mode(sk, init, OptimizerConfig(max_iters=200, initial_step=0.3))
    assert np.linalg.norm(found - center) < 0.5 * np.linalg.norm(init - center)

def test_find_mode_on_empty_sketch_returns_init():
    fam = rk.new_family("euclidean", dim=2, depth=2, width=32, bandwidth=0.5, seed=0)
    sk = rk.build(np.zeros((0, 2)), fam, rows=40)
    init = np.array([0.3, -0.2])
    out = rk.find_mode(sk, init, OptimizerConfig(max_iters=50))
    assert np.array_equal(out, init)


def test_optimizer_divergence_on_nonfinite_objective():
    with pytest.raises(OptimizerDivergenceError):
        minimize_derivative_free(lambda x: float("nan"), np.zeros(2),
                                 OptimizerConfig(max_iters=20))


@pytest.mark.parametrize("start", [float("nan"), math.inf])
def test_a_non_finite_start_does_not_block_later_improvements(start):
    def loss(v):
        return start if not v.any() else float((v - 1.0) @ (v - 1.0))

    x, f, trace = minimize_derivative_free(loss, np.zeros(2), OptimizerConfig(max_iters=50))
    assert np.allclose(x, [1.0, 1.0], atol=0.05) and f < 1e-3
    assert trace[0] == math.inf and trace == sorted(trace, reverse=True)


@pytest.mark.parametrize("kwargs", [dict(max_iters=0), dict(max_iters=-5),
                                    dict(restarts=-1), dict(initial_step=0.0),
                                    dict(initial_step=-0.5), dict(initial_step=math.inf)],
                         ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_optimizer_config_rejects_budgets_that_make_no_search(kwargs):
    with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
        OptimizerConfig(**kwargs)


def test_smallest_optimizer_budget_still_runs():
    cfg = OptimizerConfig(max_iters=1, restarts=0)
    x, f, trace = minimize_derivative_free(lambda v: float((v - 1.0) @ (v - 1.0)),
                                           np.zeros(2), cfg)
    assert f <= trace[0] == 2.0


def test_classifier_round_trip(tmp_path):
    clf, xa, _ = _two_point_mass_classifier()
    rk.save_classifier(clf, tmp_path / "model")
    again = rk.load_classifier(tmp_path / "model")
    assert again.classes == clf.classes
    assert again.sketches[0] == clf.sketches[0]
    assert again.predict([xa]) == ["a"]
    # the sketches' headers are the one record of epsilon; a manifest that
    # still carries one, as older versions wrote, loads all the same
    path = tmp_path / "model" / "classifier.json"
    manifest = json.loads(path.read_text())
    assert sorted(manifest) == ["classes", "files"]
    path.write_text(json.dumps({**manifest, "epsilon": 1e9}))
    again = rk.load_classifier(tmp_path / "model")
    assert [sk.epsilon for sk in again.sketches] == [1e9, 1e9]
    assert again.predict([xa]) == ["a"]


def test_regression_round_trip(tmp_path):
    x, y = _regression_fixture()
    model = rk.fit_regression(x, y, depth=4, rows=300, width=32, epsilon=1e6,
                              seed=0, config=OptimizerConfig(max_iters=30, restarts=0))
    path = tmp_path / "model.json"
    rk.save_regression(model, path)
    again = rk.load_regression(path)
    assert np.allclose(again.theta, model.theta)
    assert again.intercept == pytest.approx(model.intercept)
    assert again.sketch == model.sketch
    assert np.allclose(again.predict(x), model.predict(x))


@pytest.mark.parametrize("edit", [
    lambda text: text[:-10],
    lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "intercept"}),
    lambda text: "[]",
], ids=["truncated", "no-intercept", "not-an-object"])
def test_load_regression_malformed_record_is_a_format_error(tmp_path, edit):
    model = ml.RegressionModel(theta=np.array([2.0]), intercept=0.5,
                               theta_scaled=np.array([1.0]), x_mins=np.array([-1.0]),
                               x_maxs=np.array([1.0]), y_min=-1.5, y_max=2.5,
                               epsilon=1.0, trace=[0.3])
    path = tmp_path / "model.json"
    rk.save_regression(model, path)
    assert rk.load_regression(path).intercept == 0.5
    path.write_text(edit(path.read_text()))
    with pytest.raises(SketchFormatError, match="model.json does not describe a regression"):
        rk.load_regression(path)
