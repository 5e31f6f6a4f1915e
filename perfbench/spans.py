"""Spans and counters recorded around racekit's module functions, from outside.

The library looks its collaborators up through modules at call time
(``sketch.build`` calls ``lsh.hash_batch``, ``cli`` calls ``rio.load_csv``,
``ml`` calls its own imported ``minimize_derivative_free`` and ``privatize``).
So a wrapper must replace the function on its defining module and on every
other racekit module that holds the same object under some name; patching the
names re-exported by ``racekit/__init__`` alone would miss every internal
call. A function that a later version of the library no longer has is
skipped, and the metrics built on it read 0.

Each span records its name (``<module>.<function>``), start, end, parent span
and run id. Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

# (module, attribute) pairs to time; "Classifier.predict" names a method.
TRACED = [
    ("cli", "main"),
    ("io", "load_csv"),
    ("io", "scale"),
    ("lsh", "hash_batch"),
    ("sketch", "build"),
    ("sketch", "save"),
    ("sketch", "load"),
    ("privacy", "privatize"),
    ("privacy", "laplace_noise_matrix"),
    ("estimation", "query_many"),
    ("estimation", "query_median_of_means"),
    ("estimation", "query_mean"),
    ("estimation", "_gather"),
    ("estimation", "_mom_aggregate"),
    ("ml", "fit_regression"),
    ("ml", "surrogate_loss"),
    ("ml", "train_classifier"),
    ("ml", "Classifier.predict"),
    ("ml", "find_mode"),
    ("optimize", "minimize_derivative_free"),
]

LAYERS = ("io", "lsh", "sketch", "privacy", "estimation", "ml", "optimize", "cli")

# per-layer metric -> spans whose outermost calls are summed (seconds per pass)
TIMES = {
    "io.load_csv_s": ["io.load_csv"],
    "io.scale_s": ["io.scale"],
    "lsh.hash_batch_s": ["lsh.hash_batch"],
    "sketch.build_s": ["sketch.build"],
    "sketch.save_s": ["sketch.save"],
    "sketch.load_s": ["sketch.load"],
    "privacy.privatize_s": ["privacy.privatize"],
    "estimation.query_many_s": ["estimation.query_many"],
    "estimation.query_single_s": ["estimation.query_median_of_means",
                                  "estimation.query_mean"],
    "estimation.gather_s": ["estimation._gather"],
    "estimation.aggregate_s": ["estimation._mom_aggregate"],
    "ml.fit_regression_s": ["ml.fit_regression"],
    "ml.surrogate_loss_s": ["ml.surrogate_loss"],
    "ml.train_classifier_s": ["ml.train_classifier"],
    "ml.predict_s": ["ml.Classifier.predict"],
    "ml.find_mode_s": ["ml.find_mode"],
    "optimize.minimize_s": ["optimize.minimize_derivative_free"],
}

# per-layer metric -> span whose self time (duration minus child coverage) is summed
SELF_TIMES = {
    "sketch.build_self_s": "sketch.build",
    "optimize.self_s": "optimize.minimize_derivative_free",
    "cli.self_s": "cli.main",
}

# Work counts; for a fixed seed each must repeat exactly from pass to pass.
EXACT_COUNTS = [
    "lsh.hash_batch_calls",
    "lsh.hashed_point_rows",
    "sketch.bytes_written",
    "privacy.noise_draws",
    "estimation.counter_reads",
    "ml.surrogate_loss_calls",
    "optimize.evaluations",
]


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []   # [id, parent id, name, start, end, run id]
        self.counts = {}
        self.run_id = None
        self._local = threading.local()
        self._saved = []     # (owner, attribute, original)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def begin(self, run_id: str) -> None:
        """Start a new run id; counters restart from zero."""
        self.run_id = run_id
        self.counts = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            stack = tracer._stack()
            rec = [len(tracer.spans), stack[-1][0] if stack else None, name,
                   0.0, 0.0, tracer.run_id]
            tracer.spans.append(rec)
            stack.append(rec)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in TRACED on all racekit modules that hold it.

        ``uninstall`` puts the originals back; the two calls bracket one pass.
        """
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__
                                         or k.startswith(package.__name__ + "."))]
        for mod_name, attr in TRACED:
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            owner, _, fname = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, fname, None) if holder is not None else None
            if not callable(original):
                continue
            name = f"{mod_name}.{attr}"
            before, after = _HOOKS.get(name, (None, None))
            wrapper = self._wrap(name, original, before, after)
            targets = [(holder, fname)]
            if not owner:
                targets += [(m, key) for m in modules
                            for key, value in list(vars(m).items())
                            if value is original and (m, key) != (holder, fname)]
            for target, key in targets:
                self._saved.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved = []

    def dump(self, path, extra: dict) -> None:
        """Write every span recorded in this process, once, at the end of a run."""
        keys = ("id", "parent", "name", "start", "end", "run")
        record = dict(extra, spans=[dict(zip(keys, rec)) for rec in self.spans])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh)


def _count_result_size(counter):
    def after(tracer, args, kwargs, result):
        tracer.count(counter, getattr(result, "size", 0))
    return after


def _after_hash_batch(tracer, args, kwargs, result):
    tracer.count("lsh.hash_batch_calls", 1)
    tracer.count("lsh.hashed_point_rows", result.size)  # rows x points


def _after_save(tracer, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.count("sketch.bytes_written", os.path.getsize(path))


def _after_surrogate(tracer, args, kwargs, result):
    tracer.count("ml.surrogate_loss_calls", 1)


def _before_minimize(tracer, args):
    objective = args[0]

    def counted(x):
        tracer.count("optimize.evaluations", 1)
        return objective(x)

    return (counted,) + tuple(args[1:])


def _after_minimize(tracer, args, kwargs, result):
    tracer.count("optimize.accepted", len(result[2]) - 1)  # trace starts at x0


_HOOKS = {
    "lsh.hash_batch": (None, _after_hash_batch),
    "sketch.save": (None, _after_save),
    "privacy.laplace_noise_matrix": (None, _count_result_size("privacy.noise_draws")),
    "estimation._gather": (None, _count_result_size("estimation.counter_reads")),
    "ml.surrogate_loss": (None, _after_surrogate),
    "optimize.minimize_derivative_free": (_before_minimize, _after_minimize),
}


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans, run_id: str) -> dict:
    """Per-layer seconds for one run id: outermost-span totals and self times."""
    mine = [s for s in spans if s[5] == run_id]
    by_id = {s[0]: s for s in mine}
    children = {}
    for s in mine:
        children.setdefault(s[1], []).append(s)

    def outermost(s):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2] == s[2]:
                return False
            parent = by_id.get(parent[1])
        return True

    out = {}
    for metric, names in TIMES.items():
        out[metric] = sum(s[4] - s[3] for s in mine
                          if s[2] in names and outermost(s))
    for metric, name in SELF_TIMES.items():
        out[metric] = sum(
            (s[4] - s[3]) - _union_length(
                [(max(c[3], s[3]), min(c[4], s[4])) for c in children.get(s[0], [])])
            for s in mine if s[2] == name)
    return out


def layers_seen(span_names) -> list:
    return sorted({name.split(".", 1)[0] for name in span_names})
