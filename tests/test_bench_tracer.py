"""The benchmark's tracer must find every name it wraps.

bench/tracer.py looks its traced functions up by name in cli, engine,
analysis, toys and io when it is constructed, so renaming one of them breaks
the traced benchmark run. The tracer is imported read-only from bench/, as
tests/test_artifact_hashes.py imports run_bench, so the test suite catches
such a rename too.
"""

import importlib
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
