"""Byte identity of the artifacts: every default-seed benchmark op must write
files whose sha256 matches bench/artifact_hashes.json.

The ops and the hash table are the benchmark's own, imported read-only from
bench/run_bench.py, so the test suite and the benchmark gate check the same
bytes.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def run_bench():
    sys.path.insert(0, str(BENCH_DIR))  # run_bench imports its sibling tracer.py
    try:
        return importlib.import_module("run_bench")
    finally:
        sys.path.remove(str(BENCH_DIR))


@pytest.mark.parametrize("workload", ["quantum-sample", "selection"])
def test_artifacts_match_recorded_hashes(run_bench, workload):
    ops = run_bench.BUILDERS[workload](run_bench.DEFAULT_SEED, run_bench.FULL)
    expected = json.loads(run_bench.HASH_TABLE.read_text())[workload]
    with run_bench.work_directory():
        runs, _ = run_bench.run_pass(ops)
    assert {run.op.name: run.error for run in runs if run.error} == {}
    assert {run.op.name: run.output for run in runs} == expected
