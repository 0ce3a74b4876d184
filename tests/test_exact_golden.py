"""Byte identity of the exact diagnostics: the repr of every exact-scan op's
four outputs on the benchmark's seed-0 angle grid, and of both exact joint
tables (C on and off, every geometry) per (draw, bsm_partial) point, hash to
the sha256 recorded below.

Exact outputs have no artifact file, so bench/artifact_hashes.json does not
cover them. Their last bits follow the BLAS dot kernel that ``_norm_sq``
calls, so each digest is computed in a child whose OpenBLAS kernel is
forced, and recorded per kernel.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_oracle import _openblas_dynamic_arch

ROOT = Path(__file__).resolve().parents[1]

DIGEST = """
import dataclasses, hashlib, sys
sys.path.insert(0, sys.argv[1])
import run_bench
from swapsim import engine
digest, seen = hashlib.sha256(), set()
for op in run_bench.exact_scan_ops(0, run_bench.FULL):
    digest.update(repr((op.name, op.run())).encode())
    point = (op.draw, op.config.bsm_partial)
    if point in seen:
        continue
    seen.add(point)
    for c_enabled in (True, False):
        for geometry in engine.GEOMETRY_NAMES:
            cfg = dataclasses.replace(op.config, geometry=geometry, c_enabled=c_enabled)
            digest.update(repr(list(engine.exact_experiment_distribution(cfg).items())).encode())
print(digest.hexdigest())
"""

# Recorded before the exact walk composed its gathers, with numpy 2.4.
EXPECTED = {
    "Haswell": "a1e5dd0b18fea3c148b511e10449507e4e7239f20c91ca2ee1099ce36d26686c",
    "Sandybridge": "c0d6eb1585187525fb905bc53d4f29a5c03cc191d2c2a36f7beff296165a0f6d",
    "Nehalem": "646e7203775242a3dfab7288659ddc69a0b8f6036e3e6a9544cbfb68578e02f9",
}


@pytest.mark.skipif(not _openblas_dynamic_arch(), reason="needs a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("kernel", sorted(EXPECTED))
def test_exact_scan_outputs_match_recorded_digest(kernel):
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", DIGEST, str(ROOT / "bench")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == EXPECTED[kernel]
