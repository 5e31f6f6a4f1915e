#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a racekit checkout (takes about a minute):

    python3 perfbench/smoke.py

It fails unless
- every metric named in BENCHMARK.json is in the result line with its unit,
  for every workload, and the 13 end-to-end figures each workload defines are
  printed by name with a unit;
- every check a workload declares ran once and passed, and error_rate is 0;
- traced runs cover all eight racekit layers, and two traced runs with the
  same seed give identical exact counters;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT = 600

# the end-to-end figures each workload prints, besides setup_s, run_s,
# peak_rss_mb and error_rate, which every workload prints
PRINTED = {
    "ingest": ["build_rows_per_s"],
    "serve": ["query_batch_per_s", "query_p50_us", "query_p99_us", "kde_abs_err"],
    "learn": ["fit_s", "predict_per_s", "theta_abs_err", "classify_acc"],
}
COMMON = ["setup_s", "run_s", "peak_rss_mb", "error_rate"]
TRACE_CHECKS = ("exact_counts_repeat", "parallel_build_identical")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAIL: {message}")


def _run(cwd, trace: int, seed: int = 0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def _sections(stdout: str) -> dict:
    """Printed lines per workload, keyed by the '# workload <name>' headers."""
    out, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("# workload "):
            current = line.split()[2]
            out[current] = []
        elif current is not None:
            out[current].append(line)
    return out


def _check_run(proc, trace: int, bench: dict, checks: dict) -> dict:
    _require(proc.returncode == 0, f"trace={trace} exited {proc.returncode}:\n"
             f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _require(set(result) == {"correct", "attempted", "failed", "metrics"},
             f"result keys {sorted(result)}")
    _require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
             f"trace={trace}: correct={result['correct']} failed={result['failed']}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    sections = _sections(proc.stdout)
    _require(sorted(sections) == sorted(PRINTED), f"workloads printed: {sorted(sections)}")
    for name, lines in sections.items():
        for metric in declared:
            got = result["metrics"].get(f"{name}.{metric['name']}")
            _require(got is not None and got["unit"] == metric["unit"]
                     and isinstance(got["value"], (int, float)),
                     f"{name}: metric {metric['name']} missing or wrong unit: {got}")
        printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
        for metric in COMMON + PRINTED[name]:
            _require(bool(printed.get(metric)), f"{name}: {metric} not printed with a unit")
        ran = [ln.split()[1] for ln in lines if ln.startswith("check ")]
        expected = [f"{name}.{c}" for c in checks[name] + (TRACE_CHECKS if trace else ())]
        _require(sorted(ran) == sorted(expected), f"{name}: checks ran {ran}")
        _require(all(" PASS" in ln for ln in lines if ln.startswith("check ")),
                 f"{name}: a check failed")
        _require(any(ln.startswith("metric error_rate 0.0 ") for ln in lines),
                 f"{name}: error_rate is not 0")
    return result["metrics"]


def _exact_counts(metrics: dict, spans) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if k.split(".", 1)[1] in spans.EXACT_COUNTS}


def _bare_directory_fails() -> None:
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, 0)
        lines = proc.stdout.strip().splitlines()
        _require(proc.returncode != 0, "bare directory run exited 0")
        _require(not lines or not lines[-1].startswith("{"),
                 "bare directory run printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import spans
    from workloads import WORKLOADS
    checks = {name: tuple(cls.checks) for name, cls in WORKLOADS.items()}

    _check_run(_run(ROOT, 0), 0, bench, checks)
    first = _check_run(_run(ROOT, 1), 1, bench, checks)
    second = _check_run(_run(ROOT, 1), 1, bench, checks)
    _require(_exact_counts(first, spans) == _exact_counts(second, spans),
             "exact counters differ between two traced runs with one seed")

    seen = set()
    for name in PRINTED:
        with open(os.path.join(ROOT, ".perfbench", f"trace-{name}-seed0.json")) as fh:
            record = json.load(fh)
        _require(all({"id", "parent", "name", "start", "end", "run"} <= set(s)
                      for s in record["spans"]), f"{name}: span fields")
        seen.update(spans.layers_seen(s["name"] for s in record["spans"]))
    _require(seen == set(spans.LAYERS), f"layers traced: {sorted(seen)}")

    _bare_directory_fails()
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
