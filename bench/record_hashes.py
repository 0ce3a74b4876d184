#!/usr/bin/env python3
"""Record artifact_hashes.json: sha256 of every artifact that the
quantum-sample and selection ops write at the default seed.

    python3 bench/record_hashes.py

run_bench.py checks each run against this table. Re-record only in a change
that alters artifact bytes on purpose and says why.
"""

from __future__ import annotations

import json
import sys

import run_bench


def main() -> int:
    table = {}
    with run_bench.work_directory():
        for workload in ("quantum-sample", "selection"):
            ops = run_bench.BUILDERS[workload](run_bench.DEFAULT_SEED, run_bench.FULL)
            runs, _ = run_bench.run_pass(ops)
            failed = [run.op.name for run in runs if run.error]
            if failed:
                raise SystemExit(f"record_hashes: ops failed: {failed}")
            table[workload] = {run.op.name: run.output for run in runs}
    run_bench.HASH_TABLE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run_bench.HASH_TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
