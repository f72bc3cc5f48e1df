#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs the smallest workload's operation three ways and exits non-zero
unless: an untouched operation passes every check, an operation whose
metrics JSON carries a corrupted count is counted as failed, and an
operation whose replay trace does not match the live run is counted as
failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, Bench, engine
from workloads import WORKLOADS


def corrupt_hits(metrics) -> str:
    """Metrics JSON with `hits` off by one."""
    raw = metrics.to_json_dict()
    raw["hits"] += 1
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        bench = Bench(WORKLOADS["reuse-single"], 1, Path(work))
        bench.warm_up()
        results = {"clean": bench.operation()}

        original = engine.SimMetrics.json_str
        engine.SimMetrics.json_str = corrupt_hits
        try:
            results["corrupted metric"] = bench.operation()
        finally:
            engine.SimMetrics.json_str = original

        lines = bench.trace.read_text().splitlines(keepends=True)
        bench.trace.write_text("".join(lines[:-1]))  # drop the last demand access
        results["mismatched replay"] = bench.operation()

    ok = True
    for name, op in results.items():
        expect_fail = name != "clean"
        status = "failed" if op.failures else "passed"
        good = bool(op.failures) == expect_fail
        ok = ok and good
        print(f"{'ok  ' if good else 'BAD '} {name}: operation {status}"
              + (f" ({'; '.join(op.failures)})" if op.failures else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
