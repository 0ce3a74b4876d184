"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: ``install`` replaces the
names that ``cli``, ``engine``, ``analysis`` and ``toys`` look up at call
time with wrappers that time the call, and ``uninstall`` puts the originals
back. No swapsim source is edited. Each span is kept as
``(name, start, end, parent, op_id)``; the per-layer metrics are derived
from them once the run is over.
"""

from __future__ import annotations

import gzip
import os
import statistics
import time
from collections import Counter, defaultdict


def _n_trials(args, kwargs, result):
    return {"engine.trials": args[0].n_trials}


def _heralded(args, kwargs, result):
    return {"engine.generated": len(args[0]), "engine.heralded": len(result)}


def _accepted(args, kwargs, result):
    return {"toys.generated": len(args[0]), "toys.accepted": len(result)}


def _toy_trials(args, kwargs, result):
    return {"toys.trials": len(result)}


def _gtest_records(args, kwargs, result):
    return {"analysis.gtest_records": len(args[0])}


def _teleport_trials(args, kwargs, result):
    return {"analysis.teleport_trials": args[1]}


def _csv_bytes(args, kwargs, result):
    return {"io.csv_bytes": os.path.getsize(args[0])}


def _json_bytes(args, kwargs, result):
    return {"io.json_bytes": os.path.getsize(args[0])}


def patch_points(swapsim_modules) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, count hook) for every traced call site.

    Owners are the modules (or the class) where the callers look the name
    up, so a function imported into two modules is wrapped in both.
    """
    cli, engine, analysis, toys, io = swapsim_modules
    points = [(cli, "main", "cli.main", None)]
    points += [
        (engine, "run_trials", "engine.run_trials", _n_trials),
        (engine, "post_select", "engine.post_select", _heralded),
        (engine._TrialStream, "reset", "engine.rng_reset", None),
        (engine, "trial_rng", "engine.rng_reset", None),
        (engine, "measurement_order", "geometry.order", None),
        (engine, "exact_branch_enumeration", "qcore.enumerate", None),
        (engine, "exact_experiment_distribution", "engine.exact_table", None),
        (analysis, "exact_experiment_distribution", "engine.exact_table", None),
        (engine, "herald_probability", "analysis.exact", None),
    ]
    for owner in (engine, analysis):
        points += [
            (owner, "_spin_step", "qcore.collapse", None),
            (owner, "_bsm_step", "qcore.collapse", None),
        ]
    points += [
        (analysis, name, "analysis.exact", None)
        for name in ("exact_heralded_correlators", "exact_chsh", "no_difference_check", "fragility")
    ]
    points += [
        (analysis, "test_conditional_independence", "analysis.gtest", _gtest_records),
        (analysis, "no_signaling_tests", "analysis.gtest_battery", None),
        (analysis, "local_causality_tests", "analysis.gtest_battery", None),
        (analysis, "statistical_independence_test", "analysis.gtest_battery", None),
        (analysis, "correlators", "analysis.correlators", None),
        (analysis, "chsh", "analysis.correlators", None),
        (analysis, "teleport_channel_demo", "analysis.teleport", _teleport_trials),
        (toys, "run_toy_collider", "toys.run", _toy_trials),
        (toys, "run_toy_source_variant", "toys.run", _toy_trials),
        (toys, "run_rps", "toys.run", _toy_trials),
        (toys, "accepted", "toys.run", _accepted),
        (io, "write_ensemble_csv", "io.csv_write", _csv_bytes),
        (io, "write_toy_csv", "io.csv_write", _csv_bytes),
        (io, "write_rps_csv", "io.csv_write", _csv_bytes),
        (io, "ensemble_json_payload", "io.json_write", None),
        (io, "write_json", "io.json_write", _json_bytes),
    ]
    return points


# Span name -> the layer whose self time it counts toward.
_LAYER = {"analysis.gtest_battery": "analysis.gtest"}

# (metric, unit) in the order they are reported; BENCHMARK.json lists the same.
PER_LAYER_METRICS = (
    ("engine.run_trials_s", "s"),
    ("engine.trials", "count"),
    ("engine.herald_ratio", "ratio"),
    ("engine.post_select_s", "s"),
    ("engine.rng_streams", "count"),
    ("engine.rng_reset_s", "s"),
    ("qcore.collapse_calls", "count"),
    ("qcore.collapse_calls_per_trial", "ratio"),
    ("qcore.collapse_s", "s"),
    ("qcore.enumerate_calls", "count"),
    ("qcore.enumerate_s", "s"),
    ("engine.exact_table_calls", "count"),
    ("engine.exact_table_s", "s"),
    ("geometry.order_calls", "count"),
    ("geometry.order_s", "s"),
    ("analysis.exact_s", "s"),
    ("toys.run_s", "s"),
    ("toys.trials", "count"),
    ("toys.accept_ratio", "ratio"),
    ("analysis.gtest_calls", "count"),
    ("analysis.gtest_records", "count"),
    ("analysis.gtest_s", "s"),
    ("analysis.correlators_s", "s"),
    ("analysis.teleport_s", "s"),
    ("io.csv_write_s", "s"),
    ("io.csv_bytes", "bytes"),
    ("io.json_write_s", "s"),
    ("io.json_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans while installed; one Tracer serves a whole run."""

    def __init__(self, swapsim_modules) -> None:
        self.spans: list = []  # (name, start, end, parent, op_id)
        self.op_pass: dict[int, int] = {}
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op_id = -1
        self._pass = -1
        self._points = patch_points(swapsim_modules)
        self._originals = [getattr(owner, attr) for owner, attr, _, _ in self._points]

    def install(self) -> None:
        for (owner, attr, name, hook), original in zip(self._points, self._originals):
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        for (owner, attr, _, _), original in zip(self._points, self._originals):
            setattr(owner, attr, original)

    def start_pass(self, pass_index: int) -> None:
        self._pass = pass_index

    def run_op(self, op_id: int, fn):
        """Run one benchmark op under a root span shared by all its spans."""
        self._op_id = op_id
        self.op_pass[op_id] = self._pass
        return self._wrap("bench.op", fn, None)()

    def _wrap(self, name: str, fn, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer._op_id)
            if hook is not None:
                tracer.counts[tracer._pass].update(hook(args, kwargs, result))
            return result

        return traced

    def per_pass(self) -> dict[int, tuple[Counter, Counter]]:
        """pass -> (self seconds by layer, calls by span name)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, tuple[Counter, Counter]] = {}
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            self_s, calls = out.setdefault(self.op_pass[op_id], (Counter(), Counter()))
            self_s[_LAYER.get(name, name)] += end - start - child_time[i]
            calls[name] += 1
        return out

    def layer_metrics(self, overhead: float) -> dict[str, float]:
        """Per-layer metrics of one pass, as the median over traced passes."""
        rows = []
        for pass_index, (self_s, calls) in sorted(self.per_pass().items()):
            c = self.counts[pass_index]
            quantum_trials = c["engine.trials"] + c["analysis.teleport_trials"]
            rows.append({
                "engine.run_trials_s": self_s["engine.run_trials"],
                "engine.trials": c["engine.trials"],
                "engine.herald_ratio": _ratio(c["engine.heralded"], c["engine.generated"]),
                "engine.post_select_s": self_s["engine.post_select"],
                "engine.rng_streams": calls["engine.rng_reset"],
                "engine.rng_reset_s": self_s["engine.rng_reset"],
                "qcore.collapse_calls": calls["qcore.collapse"],
                "qcore.collapse_calls_per_trial": _ratio(calls["qcore.collapse"], quantum_trials),
                "qcore.collapse_s": self_s["qcore.collapse"],
                "qcore.enumerate_calls": calls["qcore.enumerate"],
                "qcore.enumerate_s": self_s["qcore.enumerate"],
                "engine.exact_table_calls": calls["engine.exact_table"],
                "engine.exact_table_s": self_s["engine.exact_table"],
                "geometry.order_calls": calls["geometry.order"],
                "geometry.order_s": self_s["geometry.order"],
                "analysis.exact_s": self_s["analysis.exact"],
                "toys.run_s": self_s["toys.run"],
                "toys.trials": c["toys.trials"],
                "toys.accept_ratio": _ratio(c["toys.accepted"], c["toys.generated"]),
                "analysis.gtest_calls": calls["analysis.gtest"],
                "analysis.gtest_records": c["analysis.gtest_records"],
                "analysis.gtest_s": self_s["analysis.gtest"],
                "analysis.correlators_s": self_s["analysis.correlators"],
                "analysis.teleport_s": self_s["analysis.teleport"],
                "io.csv_write_s": self_s["io.csv_write"],
                "io.csv_bytes": c["io.csv_bytes"],
                "io.json_write_s": self_s["io.json_write"],
                "io.json_bytes": c["io.json_bytes"],
                "cli.self_s": self_s["cli.main"],
            })
        metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
        metrics["trace.overhead"] = overhead
        return metrics

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV, times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent,op_id\n")
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{round((start - origin) * 1e9)},"
                         f"{round((end - origin) * 1e9)},{parent},{op_id}\n")
