#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload with tracing off and on and checks that each run is
correct, that its result line holds exactly the metrics BENCHMARK.json names
with their units, and that the known-defect probe is counted in error_rate.
Then checks that the benchmark exits non-zero, printing no result, in a tree
that holds only BENCHMARK.json and bench/. The default-seed hash gate runs at
full size, so this takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run_bench

TINY = run_bench.Scale(sim_trials=200, teleport_trials=800, toy_trials=2000, rps_trials=2000,
                       angle_draws=1, setup_reps=1)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_runs(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run_bench.WORKLOADS:
            result = run_bench.run(workload, run_bench.DEFAULT_SEED, 0.0, trace, TINY)
            line = json.loads(run_bench.result_line(result))
            where = f"{workload} trace={int(trace)}"
            expect(line["correct"] and line["failed"] == 0, f"{where}: {result['failures'][:5]}")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(got == wanted, f"{where}: metrics {got} != {wanted}")
            for name, m in line["metrics"].items():
                expect(math.isfinite(m["value"]), f"{where}: {name} = {m['value']}")
                if not trace:
                    expect(m["value"] > 0, f"{where}: {name} = {m['value']}")
            probe = result["probe"]
            expect((probe is not None) == (workload == "quantum-sample"), f"{where}: probe")
            if probe is not None:
                probe_failed = probe["error"] is not None
                expected = (line["failed"] + probe_failed) / (line["attempted"] + 1)
                expect(result["error_rate"] == expected, f"{where}: probe not in error_rate")
            print(f"selftest: {where} ok")


def check_without_sources() -> None:
    run_bench.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run_bench.WORK_DIR) as tree:
        shutil.copy(run_bench.ROOT / "BENCHMARK.json", tree)
        shutil.copytree(run_bench.BENCH_DIR, f"{tree}/bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run_bench.py", "--workload", "selection",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0, "benchmark ran without swapsim sources")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without sources")
    print("selftest: exits non-zero without sources ok")


def main() -> int:
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    check_runs(spec)
    check_without_sources()
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
