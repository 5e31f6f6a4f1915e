"""Learning tasks built on released sketches.

Classification keeps one sketch per class over a shared hash family and
scores a query by its per-class density. Classes partition the training
data, so each class sketch is released with the full budget (parallel
composition); everything after release is post-processing and costs nothing.

Linear regression uses the sign-projection kernel's monotonicity in the
inner product: the surrogate for the squared loss is the kernel sum, at the
normalized query [theta, -1], of every training record z = [x, y] and its
negation -z. A folded-SRP sketch of dimension d + 1 answers that pair sum
with each record inserted once (N insertions), since a folded code stands
for a sign code and its complement, the code of -z. The surrogate is
piecewise constant, so it is minimized with the derivative-free search from
:mod:`racekit.optimize`. Inputs and targets are min-max scaled to [-1, 1]
before sketching (the kernel only sees angles); fitted weights are reported
in original units.

Mode finding runs the same derivative-free search uphill on the sketch
density. An anomaly is a query whose ``query_median_of_means(sk, q).kde`` is
below a threshold. A classifier's epsilon lives in its sketches' headers.

Releases follow :func:`racekit.privacy.privatize`'s checks and seed rule, but
add the noise into the table they just built instead of a copy of it. With the
default ``seed=None`` the noise comes from the OS entropy pool. An explicit ``seed``
(split per release by ``_derive_seed``) makes a run deterministic and is for
tests only: it regenerates the noise, and ``fit_regression`` and the CLI write
it into every ``.race`` header as the family seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import estimation, io as rio, lsh, sketch as sketch_mod
from .errors import DimensionMismatchError, InvalidParameterError, SketchFormatError
from .lsh import HashKind, LshFamily
from .optimize import OptimizerConfig, minimize_derivative_free
from .privacy import PrivacyBudget, _release
from .sketch import RaceSketch


def _derive_seed(base: int | None, *tags: int) -> int | None:
    if base is None:
        return None
    if base < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {base}")
    state = np.random.SeedSequence([base, *tags]).generate_state(2, np.uint64)
    return int(state[0]) | (int(state[1]) << 64)


@dataclass
class Classifier:
    """Per-class sketches sharing one family; each carries its own release epsilon."""

    classes: list
    sketches: list[RaceSketch]

    def __post_init__(self):
        if len(self.classes) < 2:
            raise InvalidParameterError("a classifier needs at least two classes")
        if len(self.classes) != len(self.sketches):
            raise InvalidParameterError("one sketch per class label is required")
        if len(set(map(str, self.classes))) != len(self.classes):
            raise InvalidParameterError("class labels must be unique")
        first = self.sketches[0].descriptor()
        for sk in self.sketches[1:]:
            if sk.descriptor() != first:
                raise InvalidParameterError(
                    "per-class sketches must share family, rows, and width")

    @property
    def dim(self) -> int:
        return self.sketches[0].family.dim

    def scores(self, points, rule: str = "ml",
               delta: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
        """``(decision, kde)`` from one read of each class sketch, each (n_classes, n_queries).

        ``decision`` is ``f_hat`` for MAP and the unclipped density for ML, as
        the reported (clipped) ``kde`` values tie at 1.
        """
        if rule not in ("ml", "map"):
            raise InvalidParameterError(f"unknown decision rule {rule!r}")
        pts = lsh._as_matrix(points, self.dim)
        decision = np.empty((len(self.classes), pts.shape[0]))
        kde = np.empty_like(decision)
        for i, sk in enumerate(self.sketches):
            est = estimation.estimate(sk, pts, "median_of_means", delta)
            kde[i] = est.kde
            decision[i] = est.f_hat if rule == "map" else estimation.density(sk, est.f_hat)
        return decision, kde

    def predict(self, points, rule: str = "ml", delta: float = 0.1) -> list:
        """Labels for a batch of queries; ties break to the lowest class index."""
        decision, _ = self.scores(points, rule, delta)
        return [self.classes[i] for i in np.argmax(decision, axis=0)]


def _class_items(per_class_data):
    items = list(per_class_data.items()) if hasattr(per_class_data, "items") \
        else list(per_class_data)
    return [(label, np.atleast_2d(np.asarray(pts, dtype=np.float64)))
            for label, pts in items]


def train_classifier(per_class_data, family: LshFamily, rows: int,
                     epsilon: float, *, seed: int | None = None) -> Classifier:
    """Build and release one sketch per class.

    ``per_class_data`` maps labels to point matrices (or is a sequence of
    (label, points) pairs; the given order fixes tie-breaking). Each class
    receives the full epsilon: the classes are disjoint subsets of the data.
    ``seed=None`` draws each release's noise from the OS entropy pool; an
    explicit seed makes the releases deterministic (test mode, not private).
    """
    items = _class_items(per_class_data)
    if len(items) < 2:
        raise InvalidParameterError("need at least two classes")
    released = []
    for i, (label, pts) in enumerate(items):
        if pts.shape[0] == 0:
            raise InvalidParameterError(f"class {label!r} has no points")
        released.append(_release(sketch_mod.build(pts, family, rows),
                                 PrivacyBudget(epsilon), _derive_seed(seed, i, 0xC1A5)))
    return Classifier(classes=[label for label, _ in items], sketches=released)


def surrogate_loss(sk: RaceSketch, theta, *, estimator: str = "mean",
                   delta: float = 0.1) -> float:
    """Sketched regression surrogate: kernel-sum estimate at [theta, -1], normalized."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    if theta.size + 1 != sk.family.dim:
        raise DimensionMismatchError(
            f"theta of dimension {theta.size} does not fit a sketch over "
            f"dimension {sk.family.dim}")
    q = np.append(theta, -1.0)
    q /= np.linalg.norm(q)
    return float(estimation.estimate(sk, q[None, :], estimator, delta).f_hat[0])


@dataclass
class RegressionModel:
    """Fitted weights (original units) plus the sketch and scaling that produced them."""

    theta: np.ndarray
    intercept: float
    theta_scaled: np.ndarray
    x_mins: np.ndarray
    x_maxs: np.ndarray
    y_min: float
    y_max: float
    epsilon: float
    trace: list = field(default_factory=list)
    sketch: RaceSketch | None = None

    def predict(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.theta + self.intercept


def fit_regression(x_points, y_targets, *, depth: int = 4, rows: int = 1000,
                   width: int = 500, epsilon: float, config: OptimizerConfig | None = None,
                   seed: int | None = None) -> RegressionModel:
    """Fit linear weights by minimizing the sketched surrogate loss.

    Builds a single folded-SRP sketch over the N augmented records ``[x, y]``
    (N insertions; the fold supplies each record's negation), releases it
    once with ``epsilon``, then runs derivative-free search over
    the scaled weight space starting from zero. ``seed=None`` hashes with
    family seed 0 and draws the noise from the OS entropy pool; an explicit
    seed is the family seed and fixes the noise (test mode, not private).
    """
    if depth < 2:
        raise InvalidParameterError(
            f"regression needs depth >= 2 for a strictly convex pair kernel, got {depth}")
    x = np.atleast_2d(np.asarray(x_points, dtype=np.float64))
    y = np.asarray(y_targets, dtype=np.float64).ravel()
    if x.shape[0] != y.size:
        raise InvalidParameterError(
            f"{x.shape[0]} points but {y.size} targets")
    if x.shape[0] == 0:
        raise InvalidParameterError("cannot fit on an empty dataset")
    if x.shape[1] == 0:
        raise InvalidParameterError("cannot fit on zero input columns")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameterError("inputs and targets must be finite")

    # cube maps each column onto [0, 1], a constant one to 0.5; 2t - 1 then onto [-1, 1]
    cube = rio.scale(rio.Dataset(np.column_stack([x, y])), "cube")
    z = 2.0 * cube.points - 1.0
    x_mins, x_maxs = cube.transform.mins[:-1], cube.transform.maxs[:-1]
    y_min, y_max = float(cube.transform.mins[-1]), float(cube.transform.maxs[-1])

    family = LshFamily(kind=HashKind.FOLDED_SRP, dim=x.shape[1] + 1,
                       depth=depth, width=width, seed=0 if seed is None else seed)
    released = _release(sketch_mod.build(z, family, rows), PrivacyBudget(epsilon),
                        _derive_seed(seed, 0x4E6))

    theta_scaled, _, trace = minimize_derivative_free(
        lambda t: surrogate_loss(released, t), np.zeros(x.shape[1]), config)

    # undo the affine scaling: y-hat = theta . x + intercept in original units
    span = np.where(x_maxs > x_mins, x_maxs - x_mins, 1.0)
    nonconst = x_maxs > x_mins
    sx = np.where(nonconst, 2.0 / span, 0.0)
    cx = np.where(nonconst, -(x_maxs + x_mins) / span, 0.0)
    if y_max > y_min:
        sy = 2.0 / (y_max - y_min)
        cy = -(y_max + y_min) / (y_max - y_min)
    else:
        sy, cy = 1.0, -y_min
    theta = theta_scaled * sx / sy
    intercept = (float(theta_scaled @ cx) - cy) / sy
    return RegressionModel(theta=theta, intercept=intercept, theta_scaled=theta_scaled,
                           x_mins=x_mins, x_maxs=x_maxs, y_min=y_min, y_max=y_max,
                           epsilon=epsilon, trace=trace, sketch=released)


def find_mode(sk: RaceSketch, init, config: OptimizerConfig | None = None,
              *, delta: float = 0.1) -> np.ndarray:
    """Derivative-free ascent on the unclipped sketch density from ``init``.

    Returns the best accepted iterate (``init`` itself when the density is
    flat). The density is generally non-convex; no global claim is made.
    """
    start = lsh._as_vector(init, sk.family.dim)

    def negative_density(x):
        f = estimation.estimate(sk, x[None, :], "median_of_means", delta).f_hat.item()
        return -(max(f, 0.0) / max(sk.n_hat, estimation._N_FLOOR))  # density(), in floats

    best, _, _ = minimize_derivative_free(negative_density, start, config)
    return best


def save_classifier(clf: Classifier, directory) -> None:
    """Write the class manifest and one ``.race`` file per class."""
    os.makedirs(directory, exist_ok=True)
    files = []
    for i, sk in enumerate(clf.sketches):
        name = f"class_{i}.race"
        sketch_mod.save(sk, os.path.join(directory, name))
        files.append(name)
    manifest = {"classes": [_jsonable(c) for c in clf.classes], "files": files}
    with open(os.path.join(directory, "classifier.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_classifier(directory) -> Classifier:
    """Read what :func:`save_classifier` wrote; a malformed manifest is a SketchFormatError.

    Other keys, such as the ``"epsilon"`` that older versions wrote, are ignored.
    """
    path = os.path.join(directory, "classifier.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        sketches = [sketch_mod.load(os.path.join(directory, name)) for name in manifest["files"]]
        return Classifier(classes=manifest["classes"], sketches=sketches)
    except (ValueError, KeyError, TypeError) as exc:
        raise SketchFormatError(f"{path} does not describe a classifier: {exc!r}") from None


def save_regression(model: RegressionModel, path) -> None:
    """Write the weight/scaling record to ``path`` and the sketch next to it."""
    sketch_path = os.path.splitext(str(path))[0] + ".race"
    record = {
        "theta": model.theta.tolist(),
        "intercept": model.intercept,
        "theta_scaled": model.theta_scaled.tolist(),
        "x_mins": model.x_mins.tolist(),
        "x_maxs": model.x_maxs.tolist(),
        "y_min": model.y_min,
        "y_max": model.y_max,
        "epsilon": model.epsilon,
        "trace": [float(v) for v in model.trace],
        "sketch": os.path.basename(sketch_path) if model.sketch is not None else None,
    }
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if model.sketch is not None:
        sketch_mod.save(model.sketch, sketch_path)


def load_regression(path) -> RegressionModel:
    """Read what :func:`save_regression` wrote; a malformed record is a SketchFormatError."""
    try:
        with open(path) as fh:
            record = json.load(fh)
        sk = None
        if record["sketch"]:  # a JSON value that is not an object raises TypeError
            sk = sketch_mod.load(os.path.join(os.path.dirname(str(path)) or ".",
                                              record["sketch"]))
        return RegressionModel(theta=np.array(record["theta"]),
                               intercept=record["intercept"],
                               theta_scaled=np.array(record["theta_scaled"]),
                               x_mins=np.array(record["x_mins"]),
                               x_maxs=np.array(record["x_maxs"]),
                               y_min=record["y_min"], y_max=record["y_max"],
                               epsilon=record["epsilon"], trace=record["trace"],
                               sketch=sk)
    except (ValueError, KeyError, TypeError) as exc:
        raise SketchFormatError(f"{path} does not describe a regression model: {exc!r}") from None


def _jsonable(label):
    if isinstance(label, (np.integer,)):
        return int(label)
    if isinstance(label, (np.floating,)):
        return float(label)
    return label
