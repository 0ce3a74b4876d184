#!/usr/bin/env python3
"""swapsim benchmark: three workloads run by one single-threaded client.

Run from the repository root:

    python3 bench/run_bench.py --workload quantum-sample --seed 0 --seconds 20 --trace 0

The client is a closed loop: it calls the public entry points
(``cli.main([...])`` and the analysis API) one after another, each call
starting when the previous one has returned. One pass runs every op of the
workload once; passes repeat until ``--seconds`` have been spent (at least
three). Per-op seeds and the exact-scan angle grid are drawn from ``--seed``.

Throughput is reported at a fixed host speed. On a shared host the speed of
the interpreter swings by tens of percent (up to 2x) over seconds to
minutes, so every pass also times a fixed reference kernel that uses no
swapsim code, and scales its own time by REFERENCE_KERNEL_S over the
kernel's time. The unscaled figures go to the result file.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics named in BENCHMARK.json. With ``--trace 1`` untraced
and traced passes alternate, and the line holds the per-layer metrics
derived from the spans (see tracer.py), each for one pass.

Outside the timed region every run also checks its outputs: statistical and
exact checks that hold for any seed, byte-identity of each op's artifacts
across passes, and a sha256 gate against artifact_hashes.json for the ops at
the default seed. A failed check counts the op as failed. Spans and a result
file with the environment block go to ``.bench_out/``; ops write their
artifacts under ``.bench_work/``, which is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
HASH_TABLE = BENCH_DIR / "artifact_hashes.json"

if not (SRC / "swapsim" / "__init__.py").is_file():
    sys.exit(f"run_bench: no swapsim sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import swapsim  # noqa: E402
from swapsim import analysis, cli, engine, io, toys  # noqa: E402
from swapsim.qcore import BellOutcome  # noqa: E402

from tracer import PER_LAYER_METRICS, Tracer  # noqa: E402

WORKLOADS = ("quantum-sample", "selection", "exact-scan")
DEFAULT_SEED = 0
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# About the reference kernel's time on a lightly loaded 2-core Xeon host
# (Python 3.11, numpy 2.4); pass times are scaled to it. KERNEL_INTERVAL_S spaces the
# kernel samples within a pass.
REFERENCE_KERNEL_S = 0.0065
KERNEL_INTERVAL_S = 0.25
TSIRELSON = 2.0 * math.sqrt(2.0)
# Outcomes a partial analyzer reports as the engine runs it (psi+ resolved);
# a herald predicate outside them has zero probability.
PARTIAL_OUTCOMES = frozenset({BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS, BellOutcome.NO_HERALD})


@dataclass(frozen=True)
class Scale:
    """Work per op and set-up repetitions. FULL is what the benchmark
    measures and what artifact_hashes.json records."""

    sim_trials: int = 2000
    teleport_trials: int = 2000
    toy_trials: int = 40000
    rps_trials: int = 40000
    angle_draws: int = 7  # random exact-scan angle pairs, after the default angles
    setup_reps: int = 5


FULL = Scale()


@dataclass(frozen=True)
class CliOp:
    """One swapsim command run through cli.main in the run's work directory."""

    name: str
    argv: tuple[str, ...]
    work: int  # sampled trials
    artifacts: tuple[str, ...]
    config: engine.ExperimentConfig | None = None  # simulate ops, for the checks

    def run(self) -> None:
        code = cli.main(list(self.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}")


@dataclass(frozen=True)
class ExactOp:
    """One exact grid point evaluated through the analysis API."""

    name: str
    config: engine.ExperimentConfig
    draw: int
    work: int = 1  # configs
    artifacts: tuple[str, ...] = ()

    def run(self):
        cfg = self.config
        return (
            analysis.exact_chsh(cfg).S,
            analysis.no_difference_check(cfg),
            analysis.fragility(cfg),
            engine.herald_probability(cfg),
        )


def _cli_op(name: str, command: str, trials: int, seed: int, *extra: str, config=None) -> CliOp:
    argv = (command, *extra, "--trials", str(trials), "--seed", str(seed), "--out", name)
    suffixes = {
        "simulate": (".csv", ".json", ".report.json"),
        "toy": (".csv", ".report.json"),
        "rps": (".csv", ".report.json"),
        "teleport": (".report.json",),
    }[command]
    return CliOp(name, argv, trials, tuple(name + s for s in suffixes), config)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def quantum_sample_ops(seed: int, scale: Scale) -> list[CliOp]:
    rng = random.Random(seed)
    ops = []
    for geometry in engine.GEOMETRY_NAMES:
        for partial in (False, True):
            for c_enabled in (True, False):
                config = engine.ExperimentConfig(
                    geometry=geometry, n_trials=scale.sim_trials, seed=rng.getrandbits(32),
                    c_enabled=c_enabled, bsm_partial=partial,
                )
                extra = ["--geometry", geometry, "--herald", config.herald,
                         "--partial-bsm", _flag(partial), "--disable-c", _flag(not c_enabled)]
                if c_enabled:
                    extra.append("--exact")
                name = f"sim-{geometry}-{'partial' if partial else 'full'}-c{int(c_enabled)}"
                ops.append(_cli_op(name, "simulate", scale.sim_trials, config.seed, *extra,
                                   config=config))
    for controlled in (True, False):
        ops.append(_cli_op(f"teleport-{_flag(controlled)}", "teleport", scale.teleport_trials,
                           rng.getrandbits(32), "--controlled", _flag(controlled)))
    return ops


def selection_ops(seed: int, scale: Scale) -> list[CliOp]:
    rng = random.Random(seed)
    ops = [
        _cli_op(f"toy-{variant}", "toy", scale.toy_trials, rng.getrandbits(32),
                "--variant", variant)
        for variant in ("collider", "source")
    ]
    ops.append(_cli_op("rps", "rps", scale.rps_trials, rng.getrandbits(32)))
    return ops


def exact_scan_ops(seed: int, scale: Scale) -> list[ExactOp]:
    rng = random.Random(seed)
    draws = [(engine.DEFAULT_ANGLES_A, engine.DEFAULT_ANGLES_B)]
    for _ in range(scale.angle_draws):
        draws.append(tuple(
            (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)) for _ in "ab"
        ))
    ops = []
    for d, (angles_a, angles_b) in enumerate(draws):
        for geometry in engine.GEOMETRY_NAMES:
            for partial in (False, True):
                for herald, outcomes in sorted(engine.HERALD_PREDICATES.items()):
                    if partial and not outcomes & PARTIAL_OUTCOMES:
                        continue
                    config = engine.ExperimentConfig(
                        geometry=geometry, angles_a=angles_a, angles_b=angles_b,
                        herald=herald, bsm_partial=partial,
                    )
                    mode = "partial" if partial else "full"
                    ops.append(ExactOp(f"exact-d{d}-{geometry}-{mode}-{herald}", config, d))
    return ops


BUILDERS = {
    "quantum-sample": quantum_sample_ops,
    "selection": selection_ops,
    "exact-scan": exact_scan_ops,
}


def probe_op(seed: int) -> CliOp:
    """A known defect: --exact with the central measurement disabled dies
    with an uncaught ValueError (exit 1, no artifacts)."""
    return _cli_op("probe", "simulate", 16, seed, "--exact", "--disable-c", "true")


@dataclass
class OpRun:
    op: CliOp | ExactOp
    seconds: float
    error: str | None
    output: object  # artifact sha256 by name (CLI ops) or the returned values (exact ops)


def _sha256(name: str) -> str:
    return hashlib.sha256(Path(name).read_bytes()).hexdigest()


_KERNEL_STATE = np.arange(16, dtype=np.complex128) / 16.0


def reference_kernel() -> float:
    """Seconds taken by a fixed kernel that uses no swapsim code: interpreted
    Python plus small numpy calls, the mix swapsim's hot loops are made of."""
    start = time.perf_counter()
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(2000):
        coeff = _KERNEL_STATE.reshape(4, 2, 2)[:, i & 1, :] * 0.5
        acc += float(np.vdot(coeff, coeff).real)
        counts[i & 15] = counts.get(i & 15, 0) + 1
    return time.perf_counter() - start


def run_pass(ops, tracer: Tracer | None = None, op_ids=None) -> tuple[list[OpRun], float]:
    """Run each op once in the current directory; only the op call is timed.

    Returns the runs and the median reference-kernel time, sampled untimed
    before an op whenever KERNEL_INTERVAL_S have passed since the last sample.
    """
    runs = []
    kernel = []
    last_sample = -math.inf
    for op in ops:
        if time.perf_counter() - last_sample >= KERNEL_INTERVAL_S:
            kernel.append(reference_kernel())
            last_sample = time.perf_counter()
        for name in op.artifacts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        error = output = None
        start = time.perf_counter()
        try:
            output = op.run() if tracer is None else tracer.run_op(next(op_ids), op.run)
        except SystemExit as exc:  # argparse usage errors
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # op boundary: record the failure and go on
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is None and op.artifacts:
            missing = [name for name in op.artifacts if not os.path.isfile(name)]
            if missing:
                error = f"missing artifacts {missing}"
            else:
                output = {name: _sha256(name) for name in op.artifacts}
        runs.append(OpRun(op, seconds, error, output))
    return runs, statistics.median(kernel)


# Checks that hold for any seed. Each returns {op name: [problems]} for the
# first pass; later passes must reproduce its outputs exactly.


def _within(value: float, expected: float, sigma: float) -> bool:
    return abs(value - expected) <= 5.0 * sigma


def _csv_rows(name: str) -> list[list[str]]:
    lines = Path(name).read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def check_quantum_sample(runs: list[OpRun]) -> dict[str, list[str]]:
    problems = defaultdict(list)
    for run in runs:
        op = run.op
        if run.error:
            continue
        bad = problems[op.name].append
        report = json.loads(Path(op.artifacts[-1]).read_text())
        n = op.work
        if op.argv[0] == "teleport":
            mi = report["teleport"]["mutual_information_bits"]
            kept = report["n_kept"]
            if "true" in op.argv:
                if not mi > 0.9:
                    bad(f"controlled teleport MI {mi} <= 0.9")
                if not _within(kept, n / 4, math.sqrt(n * 3 / 16)):
                    bad(f"controlled teleport kept {kept} of {n}, expected n/4")
            else:
                if not mi < 0.05:
                    bad(f"uncontrolled teleport MI {mi} >= 0.05")
                if kept != n:
                    bad(f"uncontrolled teleport kept {kept} of {n}")
            continue
        cfg = op.config
        if len(_csv_rows(op.artifacts[0])) != n:
            bad("CSV does not hold one row per trial")
        if len(json.loads(Path(op.artifacts[1]).read_text())["records"]) != n:
            bad("JSON mirror does not hold one record per trial")
        frac = report["heralded"]["fraction"]
        if not cfg.c_enabled:
            if frac != 0 or report["chsh"] is not None:
                bad("trials heralded with the central measurement disabled")
            continue
        p = engine.herald_probability(cfg)
        if not _within(frac, p, math.sqrt(p * (1 - p) / n)):
            bad(f"herald fraction {frac} vs exact {p}")
        exact_s = analysis.exact_chsh(cfg).S
        sampled = report["chsh"]
        if sampled is None or not _within(sampled["S"], exact_s, sampled["stderr"]):
            bad(f"event-ready CHSH {sampled} vs exact {exact_s}")
        exact = report["exact"]
        if exact["nda"]["verdict"] != "NoDifference":
            bad(f"no-difference verdict {exact['nda']['verdict']}")
        # These ops use the default angles and the psi-minus herald.
        if abs(exact["chsh"]["S"] - TSIRELSON) > 1e-9:
            bad(f"exact CHSH {exact['chsh']['S']} != 2*sqrt(2)")
    return problems


_RPS_BEATS = {("rock", "scissors"), ("scissors", "paper"), ("paper", "rock")}


def _rps_verdict(alice: str, bob: str) -> str:
    if alice == bob:
        return "Draw"
    return "AliceWins" if (alice, bob) in _RPS_BEATS else "BobWins"


def check_selection(runs: list[OpRun]) -> dict[str, list[str]]:
    problems = defaultdict(list)
    for run in runs:
        op = run.op
        if run.error:
            continue
        bad = problems[op.name].append
        report = json.loads(Path(op.artifacts[-1]).read_text())
        rows = _csv_rows(op.artifacts[0])
        n = op.work
        if len(rows) != n:
            bad("CSV does not hold one row per trial")
        verdicts = {t["hypothesis"]: t["verdict"] for t in report["ci_tests"]}
        if op.argv[0] == "rps":
            if any(_rps_verdict(alice, bob) != verdict for _, alice, bob, verdict in rows):
                bad("a verdict column disagrees with the choices")
            for v in ("AliceWins", "BobWins", "Draw"):
                if verdicts.get(f"rps-given-{v}") != "Violated":
                    bad(f"choices not dependent given {v}")
            continue
        frac = report["accepted"]["fraction"]
        if not _within(frac, 0.5, math.sqrt(0.25 / n)):
            bad(f"toy acceptance {frac} not near 1/2")
        source = "source" in op.argv
        for row in rows:
            if (row[5], row[6]) != ((row[3], row[4]) if source else ("", "")):
                bad("lambda columns break the variant's rule")
                break
        if not source and (verdicts.get("LC_ps-A"), verdicts.get("LC_ps-B")) != ("Violated",) * 2:
            bad("collider selection does not break LC_ps")
    return problems


def _max_table_diff(t1: dict, t2: dict) -> float:
    if set(t1) != set(t2):
        return math.inf
    return max(abs(t1[k] - t2[k]) for k in t1)


def check_exact_scan(runs: list[OpRun]) -> dict[str, list[str]]:
    problems = defaultdict(list)
    by_point = defaultdict(dict)  # (draw, partial, herald) -> geometry -> output
    for run in runs:
        op = run.op
        if run.error:
            continue
        cfg = op.config
        bad = problems[op.name].append
        s, nda, frag, p = run.output
        if nda.verdict is not analysis.NdaVerdict.NO_DIFFERENCE:
            bad(f"no-difference verdict {nda.verdict.value}")
        if abs(s) > TSIRELSON + 1e-9:
            bad(f"|S| = {abs(s)} above 2*sqrt(2)")
        if not 0.0 < p <= 1.0 + 1e-12:
            bad(f"herald probability {p}")
        if cfg.herald == "psi-minus":
            if abs(p - 0.25) > 1e-12:
                bad(f"psi-minus herald probability {p} != 1/4")
            worst = max(
                abs(q - (1.0 - A * B * math.cos(cfg.angles_a[a] - cfg.angles_b[b])) / 4.0)
                for (a, b, A, B), q in frag.cells.items()
            )
            if worst > 1e-12:
                bad(f"fragility off the closed form by {worst}")
            if op.draw == 0 and abs(s - TSIRELSON) > 1e-9:
                bad(f"exact CHSH {s} != 2*sqrt(2) at the default angles")
        by_point[(op.draw, cfg.bsm_partial, cfg.herald)][cfg.geometry] = (op, run.output)
    for point in by_point.values():
        (op0, (s0, _, f0, p0)), *others = point.values()
        for op, (s, _, f, p) in others:
            diff = max(abs(s - s0), abs(p - p0), _max_table_diff(f.cells, f0.cells))
            if diff > 1e-12:
                problems[op.name].append(f"differs from {op0.name} by {diff}")
    # Exact joint tables: sum to 1 and agree across layouts, with C on and off.
    tables_checked = set()
    for run in runs:
        cfg = run.op.config
        key = (run.op.draw, cfg.bsm_partial)
        if key in tables_checked:
            continue
        tables_checked.add(key)
        for c_enabled in (True, False):
            tables = [
                engine.exact_experiment_distribution(
                    dataclasses.replace(cfg, geometry=g, c_enabled=c_enabled))
                for g in engine.GEOMETRY_NAMES
            ]
            worst = max(abs(sum(t.values()) - 1.0) for t in tables)
            worst = max([worst] + [_max_table_diff(tables[0], t) for t in tables[1:]])
            if worst > 1e-12:
                for other in runs:
                    if (other.op.draw, other.op.config.bsm_partial) == key:
                        problems[other.op.name].append(
                            f"exact tables (C {'on' if c_enabled else 'off'}) off by {worst}")
    return problems


CHECKS = {
    "quantum-sample": check_quantum_sample,
    "selection": check_selection,
    "exact-scan": check_exact_scan,
}


def measure_setup(first_op, reps: int) -> list[float]:
    """Wall times of fresh interpreters that import swapsim.cli and get the
    workload's first op ready: every swapsim invocation pays this. They are
    not scaled: set-up time does not follow the reference kernel's."""
    if isinstance(first_op, CliOp):
        ready = f"cli.build_parser().parse_args({list(first_op.argv)!r})"
    else:
        ready = f"cli.engine.ExperimentConfig(**{dataclasses.asdict(first_op.config)!r})"
    code = f"import swapsim.cli as cli\n{ready}\n"
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "swapsim": swapsim.__version__,
        "git_commit": _git_commit(),
    }


@contextlib.contextmanager
def work_directory():
    """Run the body in a fresh directory under .bench_work, with stdout muted."""
    WORK_DIR.mkdir(exist_ok=True)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir, \
            open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        os.chdir(workdir)
        try:
            yield
        finally:
            os.chdir(home)


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = FULL) -> dict:
    """One benchmark run; returns the result record (see main for its use)."""
    ops = BUILDERS[workload](seed, scale)
    gate_ops = BUILDERS[workload](DEFAULT_SEED, FULL)
    table = json.loads(HASH_TABLE.read_text()).get(workload)
    setup = [] if trace else measure_setup(ops[0], scale.setup_reps)
    tracer = Tracer((cli, engine, analysis, toys, io)) if trace else None
    op_ids = itertools.count()
    passes: list[list[OpRun]] = []
    traced: list[bool] = []
    kernel: list[float] = []  # per pass
    problems: dict[str, list[str]] = defaultdict(list)
    diverged: set[tuple[int, str]] = set()  # (pass, op name)
    probe = None
    with work_directory():
        start = time.perf_counter()
        while (len(passes) < (2 * MIN_TRACED_PAIRS if trace else MIN_PASSES)
               or time.perf_counter() - start < seconds):
            for with_trace in ((False, True) if trace else (False,)):
                gc.collect()
                if with_trace:
                    tracer.start_pass(len(passes))
                    tracer.install()
                try:
                    runs, pass_kernel = run_pass(ops, tracer if with_trace else None, op_ids)
                finally:
                    if with_trace:
                        tracer.uninstall()
                if passes:
                    # Later passes must reproduce the first; their outputs
                    # are dropped so that peak RSS does not grow with passes.
                    for run, ref in zip(runs, passes[0]):
                        if run.output != ref.output:
                            diverged.add((len(passes), run.op.name))
                        run.output = None
                else:
                    problems = CHECKS[workload](runs)
                passes.append(runs)
                kernel.append(pass_kernel)
                traced.append(with_trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate_runs = None
        if table is not None:
            gate_runs = passes[0] if gate_ops == ops else run_pass(gate_ops)[0]
        if workload == "quantum-sample":
            probe_run = run_pass([probe_op(seed)])[0][0]
            written = [name for name in probe_run.op.artifacts if os.path.isfile(name)]
            probe = {"argv": list(probe_run.op.argv), "error": probe_run.error,
                     "artifacts_written": written}

    attempted = failed = 0
    failures = []
    if gate_runs is not None:
        mismatched = [run.op.name for run in gate_runs
                      if run.error is not None or run.output != table.get(run.op.name)]
        if gate_runs is passes[0]:
            for name in mismatched:
                problems[name].append(f"artifacts differ from {HASH_TABLE.name}")
        else:
            attempted += len(gate_runs)
            failed += len(mismatched)
            failures += [f"gate {name}: artifacts differ from {HASH_TABLE.name}"
                         for name in mismatched]
    failures += [f"{name}: {msg}" for name, msgs in problems.items() for msg in msgs]
    broken = set()
    for index, runs in enumerate(passes):
        for run in runs:
            attempted += 1
            name = run.op.name
            if run.error:
                failures.append(f"pass {index} {name}: {run.error}")
            elif (index, name) in diverged:
                failures.append(f"pass {index} {name}: output differs from pass 0")
            elif not problems.get(name):
                continue
            failed += 1
            broken.add(name)
    work = sum(op.work for op in ops if op.name not in broken)
    pass_s = [sum(run.seconds for run in runs) for runs in passes]
    scaled_s = {False: [], True: []}  # pass times at the reference host speed, by tracing
    for seconds_, kernel_s, with_trace in zip(pass_s, kernel, traced):
        scaled_s[with_trace].append(seconds_ * REFERENCE_KERNEL_S / kernel_s)

    probe_failed = int(probe is not None and probe["error"] is not None)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": environment(),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "probe": probe,
        "gate": None if gate_runs is None else {
            "ops": len(gate_runs), "reused_timed_pass": gate_runs is passes[0]},
        "error_rate": (failed + probe_failed) / (attempted + (probe is not None)),
        "pass_s": pass_s,
        "kernel_s": kernel,
        "setup_s": setup,
        "throughput_raw": statistics.median(work / s for s, t in zip(pass_s, traced) if not t),
    }
    if trace:
        overhead = statistics.median(scaled_s[True]) / statistics.median(scaled_s[False]) - 1.0
        values = tracer.layer_metrics(overhead)
        result["metrics"] = {name: (values[name], unit) for name, unit in PER_LAYER_METRICS}
        result["tracer"] = tracer
    else:
        result["metrics"] = {
            "throughput": (statistics.median(work / s for s in scaled_s[False]), "1/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return result


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


def summary_lines(result: dict) -> list[str]:
    workload = result["workload"]
    lines = [
        f"swapsim benchmark  workload={workload} seed={result['seed']} trace={result['trace']}"
        f"  passes={result['passes']} ops/pass={result['ops_per_pass']}",
        "env " + json.dumps(result["env"], sort_keys=True),
    ]
    metrics = dict(result["metrics"])
    if not result["trace"]:
        rate, _ = metrics.pop("throughput")
        name, unit = (("configs_per_s", "configs/s") if workload == "exact-scan"
                      else ("trials_per_s", "trials/s"))
        metrics = {name: (rate, unit), **metrics}
    metrics["error_rate"] = (result["error_rate"], "ratio")
    lines += [f"  {name:<32} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    kernel_ms = 1e3 * statistics.median(result["kernel_s"])
    lines.append(f"pass times scaled to a {1e3 * REFERENCE_KERNEL_S:g} ms reference kernel; "
                 f"it took {kernel_ms:.3g} ms in the passes")
    if not result["trace"]:
        lines.append(f"  unscaled throughput: {result['throughput_raw']:.6g} /s")
    if result["gate"]:
        lines.append(f"gate: {result['gate']['ops']} ops checked against {HASH_TABLE.name}")
    if result["probe"]:
        lines.append(f"probe (known defect, counted in error_rate only): "
                     f"{' '.join(result['probe']['argv'])} -> {result['probe']['error']}")
    lines += [f"FAILED {msg}" for msg in result["failures"][:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.csv.gz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("\n".join(summary_lines(result)))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
