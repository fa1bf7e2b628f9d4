"""Benchmark smoke: run every workload for one second, untraced, and check
that it reads correct with no larger share of failed operations than its
known faults.

    python3 .github/scripts/bench_smoke.py

Each workload's whole output is printed, so that a shift in time or memory
shows for every commit.  Exits 1 when a workload is incorrect, attempted
nothing or failed too large a share, after running them all.
"""

import json
import subprocess
import sys
from pathlib import Path

# The largest share of failed operations each workload may count: none on
# the two spectral routes, the betaexp:0.5 batches (one in five operations)
# on boundary_interior.
SHARE_BOUNDS = {"matrix_route": 0.0, "kernel_route": 0.0, "boundary_interior": 0.20}

RUN = Path(__file__).resolve().parents[2] / "perfbench" / "run.py"


def main() -> int:
    ok = True
    for workload, bound in SHARE_BOUNDS.items():
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        print(out, end="")
        result = json.loads(out.splitlines()[-1])
        share = result["failed"] / max(result["attempted"], 1)
        print(workload, "failed", result["failed"], "of", result["attempted"])
        ok &= (result["correct"] is True and result["attempted"] > 0
               and share <= bound)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
