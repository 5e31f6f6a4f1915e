#!/usr/bin/env python3
"""racekit benchmark: seeded ingest, serve and learn workloads.

Run from the root of a racekit checkout:

    python3 perfbench/run.py --workload serve --seed 3 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after the other in this
process. With ``--trace 0`` the result line carries the end-to-end metrics,
measured with no tracing. With ``--trace 1`` untraced passes alternate with
passes that have every racekit module wrapped (see ``spans.py``), and a
parallel-build probe follows; the result line carries the per-layer metrics,
including the tracing overhead (traced minus untraced ``run_s``). Spans are
written to ``.perfbench/trace-<workload>-seed<seed>.json``.

An untraced run sets up its inputs three times (``setup_s`` is the median), a
traced run once. One untimed warm-up pass follows, then the timed pass repeats
until ``--seconds`` is spent, and medians over passes are reported. Output
checks run after the timed phase; any failed check or raised exception makes
``correct`` false and the exit code 1. The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _import_racekit():
    """Import racekit from this checkout's src/, or exit 2 without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "racekit", "__init__.py")):
        print("perfbench: no src/racekit in the current directory; "
              "run from the root of a racekit checkout", file=sys.stderr)
        sys.exit(2)
    # keep the BLAS pool no larger than the cores this process may use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > NPROC:
            os.environ[var] = str(NPROC)
    sys.path.insert(0, src)
    import racekit
    if os.path.dirname(os.path.abspath(racekit.__file__)) != os.path.join(src, "racekit"):
        print(f"perfbench: imported racekit from {racekit.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)
    return racekit


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when it cannot be read."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _stamp(args):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "nproc": NPROC,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _median(values) -> float:
    return float(statistics.median(values))


def _row_params_cache(racekit):
    """The hash layer's row-parameter cache, or None if the library has none."""
    cache = getattr(racekit.lsh, "_row_params", None)
    return cache if hasattr(cache, "cache_info") else None


def _passes(wl, racekit, seconds, tracer=None):
    """One warm-up pass, then timed passes until the next would overrun ``seconds``.

    The warm-up pass is checked but not timed: the first pass in a process
    runs slower (lazy imports, first use of large allocations) by an amount
    that varies from run to run. With a tracer, untraced and traced passes
    alternate, at least two of each, so that a drift in machine load falls on
    both alike. The row-parameter cache is emptied before each pass, so every
    pass pays the cold-cache cost that each `racekit` process pays.
    """
    cache = _row_params_cache(racekit)
    min_passes = 1 if tracer is None else 4
    records = []  # records[0] is the warm-up pass
    while True:
        traced = tracer is not None and len(records) % 2 == 0 and len(records) > 0
        run_id = f"{wl.name}:{wl.seed}:pass{len(records)}"
        if cache is not None:
            cache.cache_clear()
        if traced:
            tracer.begin(run_id)
            tracer.install(racekit)
        try:
            t0 = time.perf_counter()
            outputs, samples, ops = wl.run_pass()
            duration = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        info = cache.cache_info() if cache is not None else None
        lookups = info.hits + info.misses if info else 0
        records.append({"run_id": run_id, "traced": traced, "duration": duration,
                        "outputs": outputs, "samples": samples, "ops": ops,
                        "hit_rate": info.hits / lookups if lookups else 0.0,
                        "counts": dict(tracer.counts) if traced else {}})
        if len(records) == 1:
            start = time.perf_counter()
        elif len(records) > min_passes and time.perf_counter() - start + duration > seconds:
            return records[0], records[1:]


def _samples(records):
    keys = records[0]["samples"].keys()
    return {k: [r["samples"][k] for r in records] for k in keys}


def _parallel_probe(wl, racekit):
    """Time sketch.build with threads=min(nproc, 4) against threads=1."""
    points, family, rows = wl.probe_input()
    threads = max(1, min(NPROC, 4))
    t0 = time.perf_counter()
    serial = racekit.sketch.build(points, family, rows, threads=1)
    t1 = time.perf_counter()
    parallel = racekit.sketch.build(points, family, rows, threads=threads)
    t2 = time.perf_counter()
    return (t1 - t0) / (t2 - t1), threads, serial == parallel


def _per_layer(spans_mod, tracer, traced, untraced, probe):
    per_pass = [dict(spans_mod.summarize(tracer.spans, r["run_id"]),
                     **{k: r["counts"].get(k, 0) for k in spans_mod.EXACT_COUNTS})
                for r in traced]
    out = {k: _median([p[k] for p in per_pass]) for k in per_pass[0]}
    for k in spans_mod.EXACT_COUNTS:
        out[k] = per_pass[0][k]
    evals = traced[0]["counts"].get("optimize.evaluations", 0)
    accepted = traced[0]["counts"].get("optimize.accepted", 0)
    out["optimize.accept_ratio"] = accepted / evals if evals else 0.0
    out["lsh.row_params_hit_rate"] = _median([r["hit_rate"] for r in traced])
    out["sketch.parallel_speedup"] = probe[0]
    out["trace.untraced_run_s"] = _median([r["duration"] for r in untraced])
    out["trace.traced_run_s"] = _median([r["duration"] for r in traced])
    out["trace.overhead_s"] = out["trace.traced_run_s"] - out["trace.untraced_run_s"]
    repeat = all(p[k] == per_pass[0][k] for p in per_pass for k in spans_mod.EXACT_COUNTS)
    return out, repeat


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "_ratio", "_speedup")):
        return "ratio"
    if name == "sketch.bytes_written":
        return "bytes"
    return "count"


def _emit(name, value, unit, note=""):
    print(f"metric {name} {value!r} {unit}" + (f"  # {note}" if note else ""))


def run_workload(name, args, racekit):
    import spans as spans_mod
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-seed{args.seed}-", dir=WORK)
    wl = WORKLOADS[name](args.seed, args.size, workdir)
    print(f"# workload {name} (closed loop, one caller): {wl.why}")
    attempted = failed = 0
    e2e, layers = {}, {}
    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        setup_rss = _peak_rss_mb()
        tracer = spans_mod.Tracer() if args.trace else None
        warm, records = _passes(wl, racekit, args.seconds, tracer)
        peak = _peak_rss_mb()
        untraced = [r for r in records if not r["traced"]]
        if args.trace:
            traced = [r for r in records if r["traced"]]
            probe = _parallel_probe(wl, racekit)
            layers, repeat = _per_layer(spans_mod, tracer, traced, untraced, probe)
        attempted += sum(r["ops"] for r in [warm] + records)

        results, quality = wl.check([r["outputs"] for r in [warm] + records])
        if args.trace:
            results += [("exact_counts_repeat", repeat, f"{len(traced)} traced passes"),
                        ("parallel_build_identical", probe[2],
                         f"threads={probe[1]} against threads=1")]
            seen = spans_mod.layers_seen(s[2] for s in tracer.spans)
            print(f"# layers traced: {' '.join(seen)}")
            tracer.dump(os.path.join(WORK, f"trace-{name}-seed{args.seed}.json"),
                        {"stamp": _stamp(args), "per_layer": layers})
        for check, ok, detail in results:
            print(f"check {name}.{check} {'PASS' if ok else 'FAIL'} {detail}")
        attempted += len(results)
        failed += sum(not ok for _, ok, _ in results)

        e2e = {"setup_s": _median(setups),
               "run_s": _median([r["duration"] for r in untraced]),
               "peak_rss_mb": peak}
        for key, value in e2e.items():
            note = {"setup_s": f"median of {len(setups)} set-ups",
                    "run_s": "median of untraced passes " + " ".join(
                        f"{r['duration']:.3f}" for r in untraced),
                    "peak_rss_mb": f"timed phase; set-up peak {setup_rss:.1f} MB"}[key]
            if key == "run_s" and args.trace:
                note += f"; tracing overhead {layers['trace.overhead_s']:+.4f} s"
            _emit(key, value, E2E_UNITS[key], note)
        for key, (value, unit) in {**wl.derived(_samples(untraced)), **quality}.items():
            _emit(key, value, unit)
        for key, value in layers.items():
            _emit(key, value, layer_unit(key))
    except Exception:  # report the failure and still print a result line
        traceback.print_exc()
        attempted += 1
        failed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _emit("error_rate", failed / max(attempted, 1), "ratio",
          f"{failed} failed of {attempted} operations and checks")
    return attempted, failed, e2e, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "serve", "learn", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent repeating the timed pass")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full",
                        help="smoke is a tiny size for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    racekit = _import_racekit()
    print(f"# stamp {json.dumps(_stamp(args), sort_keys=True)}")
    names = ["ingest", "serve", "learn"] if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, e2e, layers = run_workload(name, args, racekit)
        attempted, failed = attempted + a, failed + f
        chosen = ({k: (v, layer_unit(k)) for k, v in layers.items()} if args.trace
                  else {k: (v, E2E_UNITS[k]) for k, v in e2e.items()})
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
