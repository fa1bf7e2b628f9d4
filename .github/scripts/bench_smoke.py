"""Benchmark smoke: run every workload for one second, untraced, and check
that it reads correct with no larger share of failed operations than its
known faults.  With ``--trace``, also run each workload traced
(``--trace 1``) and check that it reads correct with every per-layer metric
of BENCHMARK.json present.

    python3 .github/scripts/bench_smoke.py [--trace]

Each workload's whole output is printed, so that a shift in time or memory
shows for every commit.  Exits 1 when a workload is incorrect, attempted
nothing, failed too large a share or, traced, misses a per-layer metric,
after running them all.
"""

import json
import subprocess
import sys
from pathlib import Path

# The largest share of failed operations each workload may count: none on
# the two spectral routes, the betaexp:0.5 batches (one in five operations)
# on boundary_interior.
SHARE_BOUNDS = {"matrix_route": 0.0, "kernel_route": 0.0, "boundary_interior": 0.20}

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"


def run(workload: str, trace: int) -> dict:
    """One-second run of ``workload``; prints its output, returns its JSON."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    print(out, end="")
    return json.loads(out.splitlines()[-1])


def main() -> int:
    ok = True
    for workload, bound in SHARE_BOUNDS.items():
        result = run(workload, 0)
        share = result["failed"] / max(result["attempted"], 1)
        print(workload, "failed", result["failed"], "of", result["attempted"])
        ok &= (result["correct"] is True and result["attempted"] > 0
               and share <= bound)
    if "--trace" in sys.argv[1:]:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        want = {metric["name"] for metric in benchmark["per_layer"]}
        for workload in SHARE_BOUNDS:
            result = run(workload, 1)
            missing = sorted(want - set(result["metrics"]))
            print(workload, "traced, missing per-layer metrics:", missing)
            ok &= result["correct"] is True and not missing
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
