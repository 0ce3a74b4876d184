"""The benchmark's tracer must find every name it wraps.

bench/tracer.py looks its traced functions up by name in cli, engine,
analysis, toys and io when it is constructed, so renaming one of them breaks
the traced benchmark run. The tracer is imported read-only from bench/, as
tests/test_artifact_hashes.py imports run_bench, so the test suite catches
such a rename too. Its count hooks read ``len`` of the tables that the
G-tests, ``engine.post_select`` and ``toys.accepted`` take and return, so
each command's traced counts must still be its run's row counts.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from swapsim import analysis, cli, engine, io, toys

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer_module():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_tracer_installs_over_every_traced_name(tracer_module, tmp_path):
    modules = (cli, engine, analysis, toys, io)
    tracer = tracer_module.Tracer(modules)
    points = tracer_module.patch_points(modules)
    originals = [getattr(owner, attr) for owner, attr, _, _ in points]
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr, _, _), original in zip(points, originals))
        # simulate still goes through the traced writers: the mirror's
        # payload, then the mirror and the report through write_json.
        tracer.start_pass(0)
        out = tmp_path / "run"
        assert tracer.run_op(0, lambda: cli.main(
            ["simulate", "--trials", "50", "--seed", "3", "--out", str(out)])) == 0
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr, _, _ in points] == originals
    _, calls = tracer.per_pass()[0]
    assert calls["io.json_write"] == 3
    assert calls["io.csv_write"] == 1
    assert tracer.counts[0]["io.json_bytes"] == sum(
        (tmp_path / name).stat().st_size for name in ("run.json", "run.report.json"))


def _traced(tracer_module, tmp_path, argv):
    """Run one command under a fresh tracer; its report, counts and calls."""
    tracer = tracer_module.Tracer((cli, engine, analysis, toys, io))
    tracer.install()
    try:
        tracer.start_pass(0)
        out = tmp_path / argv[0]
        assert tracer.run_op(0, lambda: cli.main(argv + ["--out", str(out)])) == 0
    finally:
        tracer.uninstall()
    report = json.loads((tmp_path / f"{argv[0]}.report.json").read_text())
    return report, tracer.counts[0], tracer.per_pass()[0][1]


def test_traced_counts_are_the_runs_row_counts(tracer_module, tmp_path):
    report, counts, calls = _traced(
        tracer_module, tmp_path, ["simulate", "--trials", "400", "--seed", "3"])
    heralded = report["heralded"]["count"]
    assert 0 < heralded < 400
    assert (counts["engine.generated"], counts["engine.heralded"]) == (400, heralded)
    # no-signaling A and B over every trial, then LC_ps A and B over the heralded.
    assert calls["analysis.gtest"] == 4
    assert counts["analysis.gtest_records"] == 2 * 400 + 2 * heralded

    report, counts, calls = _traced(
        tracer_module, tmp_path, ["toy", "--variant", "source", "--trials", "400", "--seed", "3"])
    accepted = report["accepted"]["count"]
    assert 0 < accepted < 400
    assert (counts["toys.trials"], counts["toys.generated"], counts["toys.accepted"]) == (
        400, 400, accepted)
    # LC_ps A and B and SI_ps over the accepted, LC A and B and SI over every trial.
    assert calls["analysis.gtest"] == 6
    assert counts["analysis.gtest_records"] == 3 * 400 + 3 * accepted

    _report, counts, calls = _traced(tracer_module, tmp_path, ["rps", "--trials", "300", "--seed", "3"])
    # One test over every trial, then one per verdict, whose trials add up to all.
    assert calls["analysis.gtest"] == 4
    assert (counts["toys.trials"], counts["analysis.gtest_records"]) == (300, 2 * 300)
