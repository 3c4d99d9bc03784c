"""Record the reference digests the benchmark checks recorded seeds against.

    python3 perfbench/record_reference.py

Run from a checkout root. Runs rep 0 of dock_stream and assembly_mix for
each recorded seed and writes perfbench/reference/digests.json. The
envelope reference, reference/envelope_directions.csv, is the file the
`envelope` command writes for scenarios/envelope.json.
"""
from __future__ import annotations

import json
import time

import checks
from run import WORK, spawn

RECORDED_SEEDS = range(1, 21)


def main() -> int:
    table: dict[str, dict[str, dict]] = {}
    for workload in ("dock_stream", "assembly_mix"):
        for seed in RECORDED_SEEDS:
            _, result = spawn(workload, seed, 0, WORK / "reference", time.monotonic() + 600)
            table.setdefault(workload, {})[str(seed)] = result["digests"]
            print(workload, seed, result["digests"], flush=True)
    checks.DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
