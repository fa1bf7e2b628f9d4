"""Run every workload repeatedly on one commit and print each metric's spread.

    python3 perfbench/spread.py --runs 10 --first-seed 1

Runs the command from BENCHMARK.json once per (seed, workload), cycling
through the workloads for each seed so that every workload's runs span the
whole sequence.  For each end-to-end metric it prints the median, the
quartiles, the spread (Q3 - Q1) / median next to the metric's bound, and
the share of failed operations.  Raw results go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarize(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        lines.append(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
                     f"failed share {sorted(shares)}, "
                     f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s/run")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            lines.append(f"  {name:12s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}"
                         f"  spread {spread:6.3f}  bound {bound:.2f}"
                         f"{'' if spread < bound / 3 else '  (above bound/3)'}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result = run_once(spec, workload, seed, seconds)
            results[workload].append(result)
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"seed {seed} {workload}: {shown} failed {result['failed']}/"
                  f"{result['attempted']} ({result['wall_s']:.0f} s)", flush=True)

    report = summarize(spec, results)
    print(report)
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RESULTS / f"spread-{stamp}.json").write_text(json.dumps(
        {"seconds": seconds, "results": results, "report": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
