"""Command-line frontend: reproducible sketch pipelines with batch output.

Every run resolves its flags into a manifest (JSON) that suffices to re-run
the command exactly; the manifest lands next to ``--output`` or on stderr
when results go to stdout. Results are CSV. Exit codes: 0 success; a racekit
error exits with its class's ``exit_code`` (see :mod:`racekit.errors`: 2 usage
or invalid parameters, 3 data and parse errors, 4 contract violations), and
an ``OSError`` exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import secrets
import sys

import numpy as np

from . import __version__, estimation, io as rio, lsh, ml, privacy, sketch as rsketch
from .errors import (
    CsvError,
    DimensionMismatchError,
    DoubleReleaseError,
    InvalidParameterError,
    RaceError,
    SketchFormatError,
)
from .lsh import LshFamily
from .optimize import OptimizerConfig

_TASK_SEED_HELP = ("family seed that also fixes the noise (TEST ONLY, not private); "
                   "unset: family seed 0, noise from the OS entropy pool")


def _family_from_args(args, dim: int) -> LshFamily:
    return LshFamily(args.lsh, dim=dim, depth=args.depth, width=args.range,
                      bandwidth=args.bandwidth if args.lsh == "euclidean" else None,
                      seed=0 if args.seed is None else args.seed)


def _available_cpus() -> int:
    """CPUs this process may run on, or the machine's count where that is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _load_input(args, label_column: int | None = None) -> rio.Dataset:
    ds = rio.load_csv(args.input, header=args.header, delimiter=args.delimiter,
                      label_column=label_column)
    if len(ds) == 0:
        raise CsvError(f"{args.input} contains no data rows")
    return ds


def _search_config(args) -> OptimizerConfig:
    return OptimizerConfig(max_iters=args.max_iters, initial_step=args.step,
                           restarts=args.restarts)


def _emit_manifest(args, extra: dict | None = None, path: str | None = None) -> None:
    """Write the run's manifest to ``path``, by default ``--manifest`` or beside ``--output``.

    ``args`` names the subcommand (its ``command``) with every option it took.
    """
    record = {"racekit_version": __version__}
    skip = {"func"}
    record.update({k: v for k, v in sorted(vars(args).items()) if k not in skip})
    if extra:
        record.update(extra)
    path = path or getattr(args, "manifest", None)
    if path is None:
        out = getattr(args, "output", None)
        if out and out != "-":
            path = str(out) + ".manifest.json"
    text = json.dumps(record, sort_keys=True, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=sys.stderr)


@contextlib.contextmanager
def _staged(path):
    """A new file beside ``path``, renamed onto it when the block succeeds, else removed.

    Creating it proves the directory writable before the block runs.
    """
    staged = f"{path}.{secrets.token_hex(8)}.tmp"
    os.close(os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        yield staged
        os.replace(staged, path)
    except BaseException:
        os.unlink(staged)
        raise


@contextlib.contextmanager
def _open_out(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _load_queries(args, dim: int, path: str | None) -> np.ndarray:
    ds = rio.load_csv(args.queries, header=args.header, delimiter=args.delimiter)
    pts = lsh._as_matrix(ds.points, dim)  # an empty file gives (0, dim)
    if not path:
        return pts
    try:
        with open(path) as fh:
            rec = json.load(fh)
        mode = rec["mode"]
        bounds = ([np.array(rec[key], dtype=np.float64) for key in ("mins", "maxs")]
                  if mode == "cube" else [None, None])
        transform = rio.Transform(mode, *bounds)
    except (ValueError, KeyError, TypeError) as exc:
        raise SketchFormatError(f"{path} is not a transform file: {exc!r}") from None
    if mode == "cube" and any(b.shape != (dim,) for b in bounds):
        raise DimensionMismatchError(f"{path} holds cube bounds of shapes {bounds[0].shape} "
                                     f"and {bounds[1].shape} for dimension {dim}")
    return rio.apply_transform(transform, pts)


def _write_transform(transform: rio.Transform, path: str) -> str | None:
    if transform.mode == "none":
        return None
    rec = {"mode": transform.mode,
           "mins": None if transform.mins is None else transform.mins.tolist(),
           "maxs": None if transform.maxs is None else transform.maxs.tolist()}
    tpath = str(path) + ".transform.json"
    with open(tpath, "w") as fh:
        json.dump(rec, fh)
    return tpath


def cmd_build(args) -> int:
    # one pass over the file in the build's chunks: only --scale cube holds
    # every point, once, as it needs their bounds before the first is scaled
    chunks = rio.csv_chunks(args.input, rsketch._CHUNK, header=args.header,
                            delimiter=args.delimiter)
    first = next(chunks, None)
    if first is None:
        raise CsvError(f"{args.input} contains no data rows")
    family = _family_from_args(args, first[1].shape[1])
    transform, points = rio.scale_chunks(itertools.chain([first], chunks), args.scale)
    sk = rsketch.build(points, family, args.rows, threads=args.threads)
    rsketch.save(sk, args.output)
    tpath = _write_transform(transform, args.output)
    _emit_manifest(args, {"n_points": sk.inserted, "transform_file": tpath})
    return 0


def cmd_info(args) -> int:
    sk = rsketch.load(args.sketch)
    fam = sk.family
    lines = [("rows", sk.rows), ("range", sk.width), ("kind", fam.kind.value),
             ("dim", fam.dim), ("depth", fam.depth), ("bandwidth", fam.bandwidth),
             ("seed", fam.seed), ("privatized", sk.privatized)]
    if sk.privatized:
        lines.append(("epsilon", sk.epsilon))
    else:
        lines.append(("inserted", sk.inserted))
    # the one size load accepts, which a pipe does not report
    lines.append(("bytes", rsketch._BODY + 8 * sk.rows * sk.width))
    for key, value in lines:
        print(f"{key}: {value}")
    return 0


@dataclasses.dataclass
class _BudgetFile(privacy.PrivacyBudget):
    """A budget kept in a JSON file and spent by claiming it (fail closed).

    The claim is an exclusive create (``O_CREAT | O_EXCL``) of ``<path>.claim``,
    so of concurrent runs exactly one wins; a file that is unreadable or holds
    JSON other than an object counts as spent.
    """

    path: str = ""

    def consume(self) -> None:
        super().consume()
        try:
            with open(self.path) as fh:
                state = json.load(fh)
        except FileNotFoundError:
            state = {"epsilon": self.epsilon}
        except ValueError:  # unreadable, or being written by the winning claim
            state = None
        if not isinstance(state, dict) or state.get("consumed"):
            raise DoubleReleaseError(f"budget file {self.path} is already consumed")
        if state.get("epsilon") != self.epsilon:
            raise InvalidParameterError(
                f"budget file epsilon {state.get('epsilon')} != --epsilon {self.epsilon}")
        try:
            os.close(os.open(self.path + ".claim", os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            raise DoubleReleaseError(f"budget file {self.path} is already consumed") from None
        with open(self.path, "w") as fh:
            json.dump({"epsilon": self.epsilon, "consumed": True}, fh)


def cmd_privatize(args) -> int:
    sk = rsketch.load(args.sketch)  # released in place: the loaded table is this run's own
    budget = (_BudgetFile(args.epsilon, path=args.budget) if args.budget
              else privacy.PrivacyBudget(args.epsilon))
    # stage the release and its manifest (beside it by default, as the release
    # is always a file): a directory that cannot take either fails here,
    # before the budget is spent
    manifest_path = args.manifest or f"{args.output}.manifest.json"
    with _staged(args.output) as release, _staged(manifest_path) as manifest:
        rsketch.save(privacy._release(sk, budget, args.seed), release)
        _emit_manifest(args, {"deterministic_seed": args.seed is not None}, manifest)
    return 0


def cmd_merge(args) -> int:
    sketches = [rsketch.load(p) for p in args.inputs]
    merged = sketches[0]
    for part in sketches[1:]:
        merged = rsketch.merge(merged, part)
    rsketch.save(merged, args.output)
    _emit_manifest(args, {"n_inputs": len(sketches)})
    return 0


def cmd_query(args) -> int:
    sk = rsketch.load(args.sketch)
    pts = _load_queries(args, sk.family.dim, args.transform)
    estimator = "median_of_means" if args.estimator == "mom" else "mean"
    est = estimation.estimate(sk, pts, estimator, args.delta)
    n_hat = f"{sk.n_hat:.17g}"
    with _open_out(args.output) as out:
        out.write("query_id,f_hat,n_hat,kde\n")
        out.writelines(f"{i},{f:.17g},{n_hat},{k:.17g}\n"
                       for i, (f, k) in enumerate(zip(est.f_hat.tolist(), est.kde.tolist())))
    _emit_manifest(args, {"n_queries": len(est.f_hat)})
    return 0


def cmd_classify_train(args) -> int:
    ds = rio.scale(_load_input(args, args.label_col), args.scale)
    labels = ds.labels
    classes = sorted(set(float(v) for v in labels))
    per_class = [(c, ds.points[labels == c]) for c in classes]
    family = _family_from_args(args, ds.dim)
    clf = ml.train_classifier(per_class, family, args.rows, args.epsilon,
                              seed=args.seed)
    ml.save_classifier(clf, args.output)
    tpath = _write_transform(ds.transform, os.path.join(args.output, "scaling"))
    args.manifest = args.manifest or os.path.join(args.output, "manifest.json")
    _emit_manifest(args, {"classes": classes, "n_points": len(ds), "transform_file": tpath})
    return 0


def cmd_classify_predict(args) -> int:
    clf = ml.load_classifier(args.model)
    tpath = os.path.join(args.model, "scaling.transform.json")
    tpath = tpath if os.path.exists(tpath) else None
    pts = _load_queries(args, clf.dim, tpath)
    decision, kdes = clf.scores(pts, args.rule, args.delta)
    winners = np.argmax(decision, axis=0)
    with _open_out(args.output) as out:
        names = ",".join(f"kde_{c}" for c in clf.classes)
        out.write(f"query_id,label,{names}\n")
        for i in range(pts.shape[0]):
            vals = ",".join(f"{kdes[j, i]:.17g}" for j in range(len(clf.classes)))
            out.write(f"{i},{clf.classes[winners[i]]},{vals}\n")
    _emit_manifest(args, {"n_queries": int(pts.shape[0]), "transform_file": tpath})
    return 0


def cmd_regress(args) -> int:
    ds = _load_input(args, args.target_col)
    model = ml.fit_regression(ds.points, ds.labels, depth=args.depth,
                              rows=args.rows, width=args.range, epsilon=args.epsilon,
                              config=_search_config(args), seed=args.seed)
    ml.save_regression(model, args.output)
    for j, coef in enumerate(model.theta):
        print(f"theta_{j},{coef:.17g}")
    print(f"intercept,{model.intercept:.17g}")
    _emit_manifest(args, {"final_loss": model.trace[-1]})
    return 0


def _parse_point(text: str, flag: str) -> np.ndarray:
    """A comma-separated point; a field that is not a number is a usage error."""
    coords = []
    for i, field in enumerate(text.split(","), 1):
        try:
            coords.append(float(field))
        except ValueError:
            raise InvalidParameterError(
                f"{flag}: field {i} ({field!r}) is not a number") from None
    return np.array(coords)


def cmd_mode(args) -> int:
    init = _parse_point(args.init, "--init")
    sk = rsketch.load(args.sketch)
    point = ml.find_mode(sk, init, _search_config(args), delta=args.delta)
    with _open_out(args.output) as out:
        out.write(",".join(f"{v:.17g}" for v in point) + "\n")
    _emit_manifest(args)
    return 0


def _one_character(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be one character, got {text!r}")
    return text


def _add_csv_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--header", action="store_true",
                   help="first CSV line is a header row")
    p.add_argument("--delimiter", default=",", type=_one_character)


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=4,
                   help="elementary hashes concatenated per row")
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--range", type=int, default=500,
                   help="buckets per row")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=400)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--restarts", type=int, default=2)


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lsh", choices=["srp", "euclidean"], default="srp")
    p.add_argument("--bandwidth", type=float, default=1.0,
                   help="bucket width for the euclidean family")
    _add_shape_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racekit",
        description="Differentially private RACE sketches over CSV data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="one-pass sketch construction from CSV")
    p.add_argument("--input", required=True)
    _add_family_flags(p)
    p.add_argument("--scale", choices=["none", "sphere", "cube"], default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=_available_cpus(),
                   help="threads that hash and count (default: the CPUs this process "
                        "may use, here %(default)s); the output bytes are the same "
                        "for every value")
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    _add_csv_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("info", help="print sketch header fields")
    p.add_argument("--sketch", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("privatize", help="one-shot discrete Laplace release of a clean sketch")
    p.add_argument("--sketch", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="deterministic noise seed (TEST ONLY, not private)")
    p.add_argument("--budget", help="budget state file enforcing one-shot release")
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_privatize)

    p = sub.add_parser("merge", help="sum clean sketches built with one family")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("query", help="kernel-sum and density estimates for query points")
    p.add_argument("--sketch", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--estimator", choices=["mean", "mom"], default="mom")
    p.add_argument("--transform", help="transform JSON written by build --scale")
    p.add_argument("--output", default="-")
    p.add_argument("--manifest")
    _add_csv_flags(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("classify-train", help="train a per-class density classifier")
    p.add_argument("--input", required=True)
    p.add_argument("--label-col", type=int, required=True)
    _add_family_flags(p)
    p.add_argument("--scale", choices=["none", "sphere", "cube"], default="none")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help=_TASK_SEED_HELP)
    p.add_argument("--output", required=True, help="model directory")
    p.add_argument("--manifest")
    _add_csv_flags(p)
    p.set_defaults(func=cmd_classify_train)

    p = sub.add_parser("classify-predict", help="label queries with a trained model")
    p.add_argument("--model", required=True,
                   help="model directory; its scaling.transform.json, if any, scales the queries")
    p.add_argument("--queries", required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--rule", choices=["ml", "map"], default="ml")
    p.add_argument("--output", default="-")
    p.add_argument("--manifest")
    _add_csv_flags(p)
    p.set_defaults(func=cmd_classify_predict)

    p = sub.add_parser("regress", help="fit linear weights via the sketched surrogate loss")
    p.add_argument("--input", required=True)
    p.add_argument("--target-col", type=int, default=-1)
    _add_shape_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None, help=_TASK_SEED_HELP)
    _add_search_flags(p)
    p.add_argument("--output", required=True, help="model JSON path")
    p.add_argument("--manifest")
    _add_csv_flags(p)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("mode", help="derivative-free density ascent from an init point")
    p.add_argument("--sketch", required=True)
    p.add_argument("--init", required=True, help="comma-separated start point")
    p.add_argument("--delta", type=float, default=0.1)
    _add_search_flags(p)
    p.add_argument("--output", default="-")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_mode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
