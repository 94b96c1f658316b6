"""Check that the count-type per-layer metrics repeat exactly.

    python3 perfbench/check_determinism.py [--seed 1] [--seconds 10]

Runs the traced benchmark twice with one seed on ``steady``,
``cold_start`` and ``phase_shift`` (the workloads with synchronous
compilation; ``fleet`` compiles on a background thread, so its counts
depend on timing) and compares every metric whose unit is ``count``.
Exits with 1 when any count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("steady", "cold_start", "phase_shift")


def counts(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    ok = True
    for wl in WORKLOADS:
        first = counts(wl, args.seed, args.seconds)
        second = counts(wl, args.seed, args.seconds)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok &= not diff
        print("%-12s %d count metrics, %s" % (
            wl, len(first), "identical" if not diff else "DIFFER: %s" % diff))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
