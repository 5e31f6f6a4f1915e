"""The three benchmark workloads: ingest, serve and learn.

Each workload makes its inputs from the seed in ``setup``, runs one timed pass
of closed-loop calls (one caller, the next call starts when the last one
returned) in ``run_pass``, and checks the pass outputs in ``check``. The
library receives only the generated inputs. Every call goes through the
module that defines the function (``racekit.cli.main``,
``racekit.estimation.query_median_of_means``, ...), never through the names
re-exported by ``racekit/__init__``, so that the wrappers in ``spans`` see it.

Sizes: ``full`` is the benchmark; ``smoke`` is a tiny size for the self-test.
"""

from __future__ import annotations

import hashlib
import math
import os
import time

import numpy as np

from racekit import cli, estimation, lsh, ml, optimize, oracle, privacy
from racekit import io as rio
from racekit import sketch as rsketch

SIZES = {
    "full": {
        "ingest_rows": 100_000,
        "serve_points": 50_000, "serve_queries": 10_000, "serve_singles": 4_000,
        "serve_sample": 200,
        "fit_rows": 100_000, "class_points": 5_000, "class_queries": 4_000,
        "mode_points": 20_000,
    },
    "smoke": {
        "ingest_rows": 2_000,
        "serve_points": 2_000, "serve_queries": 500, "serve_singles": 200,
        "serve_sample": 100,
        "fit_rows": 100_000, "class_points": 500, "class_queries": 400,
        "mode_points": 2_000,
    },
}

DIM = 10
# Setup builds sketches in slices of this many points and merges them, so that
# its transient buffers stay far below the timed phase's and do not set the
# process's peak resident memory.
SETUP_SLICE = 1_000

# The ingest golden file: a fixed 2000 x 10 CSV built by `racekit build --scale
# cube --seed 7` at the CLI defaults. Its digest pins the hash assignments and
# the .race layout bit for bit, so that .race files already written stay valid.
GOLDEN_SEED = 20200616
GOLDEN_ROWS = 2_000
GOLDEN_SHA256 = "60e0f204c762212bad8aa1975673fae4344889399b32e054a3529c3ecf7b4a0e"


def _family_seed(seed: int, tag: int) -> int:
    return int(np.random.default_rng([seed, tag]).integers(2**32))


def _write_csv(path, points) -> None:
    np.savetxt(path, points, delimiter=",", fmt="%.17g")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _build_in_slices(points, family, rows):
    sk = rsketch.build(points[:SETUP_SLICE], family, rows)
    for start in range(SETUP_SLICE, len(points), SETUP_SLICE):
        sk = rsketch.merge(sk, rsketch.build(points[start:start + SETUP_SLICE],
                                             family, rows))
    return sk


def _mom_reference(sk, points, delta):
    """Median-of-means as estimation documents it, written out for checking.

    Rows form k = ceil(8 ln(1/delta)) contiguous groups of floor(R/k) rows;
    surplus rows are ignored; the estimate is the median of the group means.
    """
    buckets = lsh.hash_batch(sk.family, sk.rows, points)
    reads = sk.counts[np.arange(sk.rows)[:, None], buckets].astype(np.float64)
    k = math.ceil(8.0 * math.log(1.0 / delta))
    m = sk.rows // k
    return np.median(reads[:k * m].reshape(k, m, -1).mean(axis=1), axis=0)


def _cli(argv) -> int:
    return cli.main([str(a) for a in argv])


class Workload:
    """One workload: inputs from the seed, a timed pass, checks and derived figures.

    ``run_pass`` returns (outputs to check, timing samples, operations
    attempted); ``check`` returns ((name, ok, detail) triples, quality
    figures); ``derived`` turns the samples of the untraced passes into the
    workload's own end-to-end figures; ``probe_input`` gives the matrix,
    family and row count for the parallel-build probe.
    """

    name = ""
    why = ""
    checks: tuple = ()

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


class Ingest(Workload):
    name = "ingest"
    why = ("write path: racekit build from CSV to .race; CSV parse, wide srp "
           "hashing and the counter scatter")
    checks = ("exit_code", "decodes", "row_sums_consistent", "inserted_equals_rows",
              "file_size", "passes_identical", "golden_sha256")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.n = self.size["ingest_rows"]
        _write_csv(self.path("ingest.csv"), rng.standard_normal((self.n, DIM)))
        self.family_seed = _family_seed(self.seed, 1)

    def run_pass(self):
        out = self.path("ingest.race")
        t0 = time.perf_counter()
        code = _cli(["build", "--input", self.path("ingest.csv"), "--scale", "cube",
                     "--seed", self.family_seed, "--output", out])
        build_s = time.perf_counter() - t0
        return {"codes": [code], "sha256": _sha256(out)}, {"build_s": build_s}, 1

    def check(self, outputs):
        rows, width = 1000, 500  # CLI defaults
        sk = rsketch.load(self.path("ingest.race"))
        size = os.path.getsize(self.path("ingest.race"))

        golden_csv, golden_race = self.path("golden.csv"), self.path("golden.race")
        _write_csv(golden_csv, np.random.default_rng(GOLDEN_SEED).standard_normal(
            (GOLDEN_ROWS, DIM)))
        code = _cli(["build", "--input", golden_csv, "--scale", "cube", "--seed", 7,
                     "--output", golden_race])
        golden = _sha256(golden_race)
        results = [
            ("exit_code", _all_zero(outputs) and code == 0, "racekit build"),
            ("decodes", sk.rows == rows and sk.width == width and not sk.privatized,
             f"rows {sk.rows}, range {sk.width}"),
            ("row_sums_consistent", sk.row_sums_consistent(), ""),
            ("inserted_equals_rows", sk.inserted == self.n, f"{sk.inserted} vs {self.n}"),
            ("file_size", size == 48 + 8 * rows * width, f"{size} bytes"),
            ("passes_identical", len({o["sha256"] for o in outputs}) == 1,
             f"{len(outputs)} passes"),
            ("golden_sha256", golden == GOLDEN_SHA256, golden),
        ]
        return results, {}

    def derived(self, samples):
        return {"build_rows_per_s": (self.n / _median(samples["build_s"]), "rows/s")}

    def probe_input(self):
        ds = rio.scale(rio.load_csv(self.path("ingest.csv")), "cube")
        family = lsh.new_family("srp", dim=DIM, depth=4, width=500,
                                seed=self.family_seed)
        return ds.points, family, 1000


class Serve(Workload):
    name = "serve"
    why = ("read path: privatize once, racekit query over a CSV, then back-to-back "
           "single-point median-of-means queries")
    checks = ("exit_codes", "output_rows_finite", "batch_matches_reference",
              "error_bound_coverage", "single_matches_batch", "passes_identical")
    rows, width, epsilon, delta = 1000, 500, 1.0, 0.1
    release_seed = 4242
    quality_release_seeds = (11, 12, 13, 14)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.data = rng.standard_normal((self.size["serve_points"], DIM)) + 0.5
        self.queries = rng.standard_normal((self.size["serve_queries"], DIM)) + 0.5
        self.family = lsh.new_family("srp", dim=DIM, depth=4, width=self.width,
                                     seed=_family_seed(self.seed, 2))
        rsketch.save(_build_in_slices(self.data, self.family, self.rows),
                     self.path("clean.race"))
        _write_csv(self.path("queries.csv"), self.queries)

    def run_pass(self):
        released, answers = self.path("released.race"), self.path("answers.csv")
        codes = [_cli(["privatize", "--sketch", self.path("clean.race"),
                       "--epsilon", self.epsilon, "--seed", self.release_seed,
                       "--output", released])]
        t1 = time.perf_counter()
        codes.append(_cli(["query", "--sketch", released,
                           "--queries", self.path("queries.csv"), "--estimator", "mom",
                           "--delta", self.delta, "--output", answers]))
        t2 = time.perf_counter()
        sk = rsketch.load(released)
        singles = self.queries[:self.size["serve_singles"]]
        f_hat = np.empty(len(singles))
        lat = np.empty(len(singles))
        for i, q in enumerate(singles):
            ts = time.perf_counter()
            f_hat[i] = estimation.query_median_of_means(sk, q, self.delta).f_hat
            lat[i] = time.perf_counter() - ts
        outputs = {"codes": codes, "answers": _sha256(answers), "singles": f_hat}
        samples = {"query_batch_s": t2 - t1, "latency_s": lat}
        return outputs, samples, 3 + len(singles)

    def check(self, outputs):
        with open(self.path("answers.csv")) as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(self.path("answers.csv"), delimiter=",", skiprows=1, ndmin=2)
        col = {name: i for i, name in enumerate(header)}
        n_q = self.size["serve_queries"]
        rows_ok = ({"query_id", "f_hat", "n_hat", "kde"} <= set(col)
                   and table.shape == (n_q, len(header)) and np.isfinite(table).all()
                   and np.array_equal(table[:, col["query_id"]], np.arange(n_q)))
        f_hat = table[:, col["f_hat"]]

        sample = self.queries[:self.size["serve_sample"]]
        released = rsketch.load(self.path("released.race"))
        reference = _mom_reference(released, sample, self.delta)
        n_hat = released.counts.sum() / released.rows
        reference_ok = (
            np.allclose(f_hat[:len(sample)], reference, rtol=1e-9, atol=1e-9)
            and np.allclose(table[:len(sample), col["n_hat"]], n_hat, rtol=1e-12)
            and np.allclose(table[:len(sample), col["kde"]],
                            np.maximum(reference, 0) / max(n_hat, 1.0), rtol=1e-9, atol=1e-12))
        exact = np.array([oracle.exact_kernel_sum(self.data, q, self.family).value
                          for q in sample])
        allowance = lsh.rebucket_allowance(self.family, len(self.data)) + 0.5
        bounds = np.array([estimation.error_bound(
            estimation.f_tilde(self.data, q, self.family), self.rows, self.epsilon,
            self.delta) for q in sample]) + allowance
        covered = float(np.mean(np.abs(f_hat[:len(sample)] - exact) <= bounds))

        singles = outputs[0]["singles"]
        single_ok = bool(np.allclose(singles, f_hat[:len(singles)], rtol=1e-9, atol=1e-9))
        same = (len({o["answers"] for o in outputs}) == 1
                and all(np.array_equal(o["singles"], singles) for o in outputs))

        # mean |kde - exact kde| over several fixed releases, outside the timed region
        clean = rsketch.load(self.path("clean.race"))
        errors = []
        for rs in self.quality_release_seeds:
            rel = privacy.privatize(clean, privacy.PrivacyBudget(self.epsilon), rng_seed=rs)
            kde = np.array([e.kde for e in estimation.query_many(
                rel, sample, "median_of_means", self.delta)])
            errors.append(np.abs(kde - exact / len(self.data)).mean())
        results = [
            ("exit_codes", _all_zero(outputs), "racekit privatize and query"),
            ("output_rows_finite", rows_ok, f"shape {table.shape}"),
            ("batch_matches_reference", reference_ok,
             f"{len(sample)} queries against a plain median of group means"),
            ("error_bound_coverage", covered >= 1 - self.delta,
             f"{covered:.3f} of {len(sample)} within the bound"),
            ("single_matches_batch", single_ok, f"{len(singles)} queries"),
            ("passes_identical", same, f"{len(outputs)} passes"),
        ]
        return results, {"kde_abs_err": (float(np.mean(errors)), "density")}

    def derived(self, samples):
        lat = np.concatenate(samples["latency_s"]) * 1e6
        return {
            "query_batch_per_s": (self.size["serve_queries"]
                                  / _median(samples["query_batch_s"]), "queries/s"),
            "query_p50_us": (float(np.percentile(lat, 50)), "us"),
            "query_p99_us": (float(np.percentile(lat, 99)), "us"),
            "query_samples": (len(lat), "count"),
        }

    def probe_input(self):
        return self.data, self.family, self.rows


class Learn(Workload):
    name = "learn"
    why = ("task layer: fit_regression, a two-class classifier and mode finding, "
           "thousands of single-point queries and the only euclidean hashing")
    checks = ("theta_within_0.2", "accuracy_at_least_0.95", "modes_within_0.5",
              "passes_identical")
    fit_config = dict(max_iters=120, restarts=1)
    mode_center = np.array([1.0, 2.0])
    mode_starts = 4

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.x = np.linspace(-1.0, 1.0, 128)[:, None]
        self.y = 2.0 * self.x[:, 0]
        self.fit_seed = _family_seed(self.seed, 3)
        n, m = self.size["class_points"], self.size["class_queries"] // 2
        self.train = [(0, rng.normal((3, 0), 1.0, (n, 2))),
                      (1, rng.normal((-3, 0), 1.0, (n, 2)))]
        self.class_queries = np.vstack([rng.normal((3, 0), 1.0, (m, 2)),
                                        rng.normal((-3, 0), 1.0, (m, 2))])
        self.truth = np.repeat([0, 1], m)
        self.class_family = lsh.new_family("srp", dim=2, depth=4, width=200,
                                           seed=_family_seed(self.seed, 4))
        self.mode_data = self.mode_center + 0.5 * rng.standard_normal(
            (self.size["mode_points"], 2))
        self.mode_family = lsh.new_family("euclidean", dim=2, depth=2, width=200,
                                          bandwidth=1.0, seed=_family_seed(self.seed, 5))
        self.mode_clean = _build_in_slices(self.mode_data, self.mode_family, 1000)
        self.mode_inits = self.mode_center + rng.uniform(-1.0, 1.0, (self.mode_starts, 2))

    def run_pass(self):
        t0 = time.perf_counter()
        model = ml.fit_regression(self.x, self.y, depth=4, rows=self.size["fit_rows"],
                                  width=32, epsilon=1e6, seed=self.fit_seed,
                                  config=optimize.OptimizerConfig(**self.fit_config))
        t1 = time.perf_counter()
        clf = ml.train_classifier(self.train, self.class_family, 500, 1.0,
                                  seed=self.seed)
        t2 = time.perf_counter()
        labels = np.array(clf.predict(self.class_queries))
        t3 = time.perf_counter()
        released = privacy.privatize(self.mode_clean, privacy.PrivacyBudget(1.0),
                                     rng_seed=self.seed)
        cfg = optimize.OptimizerConfig(max_iters=200, initial_step=0.5, restarts=2)
        modes = np.array([ml.find_mode(released, init, cfg) for init in self.mode_inits])
        outputs = {"theta": float(model.theta[0]), "labels": labels, "modes": modes}
        samples = {"fit_s": t1 - t0, "predict_s": t3 - t2}
        return outputs, samples, 4 + self.mode_starts

    def check(self, outputs):
        first = outputs[0]
        theta_err = abs(first["theta"] - 2.0)
        acc = float(np.mean(first["labels"] == self.truth))
        dist = float(np.max(np.linalg.norm(first["modes"] - self.mode_center, axis=1)))
        same = all(o["theta"] == first["theta"]
                   and np.array_equal(o["labels"], first["labels"])
                   and np.array_equal(o["modes"], first["modes"]) for o in outputs)
        results = [
            ("theta_within_0.2", theta_err <= 0.2, f"theta {first['theta']:.4f}"),
            ("accuracy_at_least_0.95", acc >= 0.95, f"{acc:.4f}"),
            ("modes_within_0.5", dist <= 0.5, f"farthest {dist:.3f}"),
            ("passes_identical", same, f"{len(outputs)} passes"),
        ]
        return results, {"theta_abs_err": (theta_err, "slope"),
                         "classify_acc": (acc, "ratio")}

    def derived(self, samples):
        return {"fit_s": (_median(samples["fit_s"]), "s"),
                "predict_per_s": (self.size["class_queries"]
                                  / _median(samples["predict_s"]), "queries/s")}

    def probe_input(self):
        return self.mode_data, self.mode_family, 1000


def _all_zero(outputs) -> bool:
    return all(code == 0 for o in outputs for code in o["codes"])


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


WORKLOADS = {w.name: w for w in (Ingest, Serve, Learn)}
