"""Brute-force reference computations for validating the sketch paths.

Everything here is exact or plain Monte Carlo over the dataset, O(dN) or
worse, and is intentionally kept off the production query path. Oracles work
on the raw (pre-rebucket) hash, so comparisons against bucketed sketches add
the documented rebucket allowance on the sketch side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lsh
from .errors import InvalidParameterError
from .lsh import HashKind, LshFamily


@dataclass
class OracleResult:
    value: float
    trials: int = 1
    std_err: float = 0.0


def _points(data, dim: int) -> np.ndarray:
    return lsh._as_matrix(getattr(data, "points", data), dim)


def exact_kernel_sum(data, q, family: LshFamily) -> OracleResult:
    """Sum of analytic collision probabilities k(x, q) over the dataset."""
    pts = _points(data, family.dim)
    value = float(lsh.kernel_values(family, pts, q).sum()) if len(pts) else 0.0
    return OracleResult(value=value)


def monte_carlo_collision(family: LshFamily, x, y, trials: int, seed: int = 0) -> OracleResult:
    """Empirical raw-hash collision rate over ``trials`` fresh hash functions."""
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    xv = lsh._as_vector(x, family.dim)
    yv = lsh._as_vector(y, family.dim)
    p = family.depth
    rng = np.random.default_rng([seed, 0x0515])
    proj = rng.standard_normal((trials, p, family.dim))
    px = proj @ xv
    py = proj @ yv
    if family.kind.angular:
        same = (px >= 0) == (py >= 0)
        hits = same.all(axis=1)
        if family.kind is HashKind.FOLDED_SRP:
            hits |= ~same.any(axis=1)  # y collides with -x
    else:
        b = rng.uniform(0.0, family.bandwidth, size=(trials, p))
        w = family.bandwidth
        hits = (np.floor((px + b) / w) == np.floor((py + b) / w)).all(axis=1)
    p_hat = float(hits.mean())
    return OracleResult(value=p_hat, trials=trials,
                        std_err=math.sqrt(p_hat * (1.0 - p_hat) / trials))


def exact_kde(data, q, family: LshFamily) -> OracleResult:
    """Exact normalized density: kernel sum divided by the dataset size."""
    pts = _points(data, family.dim)
    if len(pts) == 0:
        return OracleResult(value=0.0)
    return OracleResult(value=exact_kernel_sum(pts, q, family).value / len(pts))


def exact_kde_classify(per_class_data, q, family: LshFamily):
    """Max-likelihood label under exact per-class KDE; ties go to the first class."""
    items = list(per_class_data.items()) if hasattr(per_class_data, "items") \
        else list(per_class_data)
    if len(items) < 2:
        raise InvalidParameterError("need at least two classes")
    scores = [exact_kde(pts, q, family).value for _, pts in items]
    return items[int(np.argmax(scores))][0]


def exact_surrogate_loss(x_points, y_targets, theta, family: LshFamily) -> OracleResult:
    """Exact regression surrogate: kernel sum of the (+, -) augmented pairs at q_theta.

    The pairs are summed explicitly under the plain SRP kernel, which is the
    reference a folded sketch of the ``+`` records alone must match.
    ``family`` must have dimension d + 1 for d-dimensional inputs. Pairs that
    augment to the zero vector are not representable (angles undefined).
    """
    x = np.atleast_2d(np.asarray(x_points, dtype=np.float64))
    y = np.asarray(y_targets, dtype=np.float64).ravel()
    z_plus = np.hstack([x, y[:, None]])
    z = np.vstack([z_plus, -z_plus])
    q = np.append(np.asarray(theta, dtype=np.float64).ravel(), -1.0)
    q /= np.linalg.norm(q)
    return exact_kernel_sum(z, q, replace(family, kind=HashKind.SRP))


def error_bound_reference(f_tilde: float, rows: int, epsilon: float, delta: float) -> float:
    """Independent recomputation of the private median-of-means error bound."""
    data_term = (f_tilde / math.sqrt(rows)) ** 2
    noise_term = 2.0 * rows / epsilon**2
    return math.sqrt(32.0) * math.sqrt(math.log(1.0 / delta)) * math.sqrt(data_term + noise_term)
