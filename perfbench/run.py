"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload matrix_route --seed 1 --seconds 30 --trace 0

The workload's set-up is timed in fresh child processes (from spawn to the
moment the first experiment could begin), then this process sets up once,
runs a warm-up pass and repeats whole passes over the experiment list until
``--seconds`` have elapsed.  Each output is checked as soon as its
operation returns, outside the timed region.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics are printed instead.  BLAS and
OpenMP are pinned to one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# The library under test, from this checkout's src/.  Without it the import
# fails here, before any result is printed.
import hardylab  # noqa: E402,F401

from layers import CALLS, COUNTERS, MEMORY_SPANS, Tracer, make_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def setup_seconds(workload: str, seed: int) -> float:
    """Spawn-to-ready time of one fresh process that sets the workload up."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1]) - start


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations, whether every failure is a known
    fault within its ceiling, and what last raised the peak RSS: an
    operation or the check of its output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()
        self.rss_mb = max_rss_mb()
        self.peak_raised_by = "set-up"

    def check(self, op, out):
        self.attempted += 1
        rss = max_rss_mb()
        if rss > self.rss_mb:
            self.peak_raised_by = f"operation {op.name}"
        if isinstance(out, Exception):
            message = wrong = f"raised {out!r}"
        else:
            message = op.check(out)
            wrong = message and (op.ceiling(out) if op.ceiling else message)
        self.rss_mb = max_rss_mb()
        if self.rss_mb > rss:
            self.peak_raised_by = f"check of {op.name}"
        if message is None:
            return
        self.failed += 1
        self.correct &= not wrong
        if op.name not in self.reported:
            self.reported.add(op.name)
            kind = "WRONG" if wrong else "known fault"
            beyond = f"; {wrong}" if wrong and wrong != message else ""
            print(f"{kind}: {op.name}: {message}{beyond}", file=sys.stderr)


def run_pass(ops, layers, tally: Tally) -> float:
    """Run every op once; return the summed wall time of the ops.

    Each output is checked, outside the timed region, as soon as its op
    returns, so only one op's output is alive at a time.
    """
    elapsed = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run(layers)
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        elapsed += time.perf_counter() - t0
        tally.check(op, out)
        del out
    return elapsed


def per_layer_metrics(tracers, traced, untraced, extra):
    """Median self time per pass for each span, counts, peaks, overhead."""
    metrics = {}
    for span in sorted({span for span, _ in CALLS.values()}):
        metrics[f"{span}_s"] = (statistics.median(t.self_s[span] for t in tracers), "s")
    for name, _ in COUNTERS.values():
        metrics[name] = (tracers[-1].counts[name], "count")
    for span in MEMORY_SPANS:
        metrics[f"{span}_peak_mb"] = (tracers[-1].peak_mb[span], "MiB")
    for name, value in extra.items():
        metrics[name] = (value, "count")
    med_traced, med_untraced = statistics.median(traced), statistics.median(untraced)
    metrics["tracing.traced_pass_s"] = (med_traced, "s")
    metrics["tracing.untraced_pass_s"] = (med_untraced, "s")
    metrics["tracing.overhead_s"] = (med_traced - med_untraced, "s")
    metrics["tracing.unattributed_s"] = (statistics.median(
        p - sum(t.self_s.values()) for p, t in zip(traced, tracers)), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="required unless --setup-only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the ready time and exit (internal)")
    args = parser.parse_args(argv)
    workload_cls = WORKLOADS[args.workload]

    if args.setup_only:
        workload_cls(args.seed)
        print(time.monotonic())
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")

    setups = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workload = workload_cls(args.seed)
    ops = workload.operations()
    plain = make_layers()
    tally = Tally()
    run_pass(ops, plain, tally)  # warm-up
    tally.attempted = tally.failed = 0  # count the timed passes only

    times, traced_times, tracers = [], [], []
    deadline = time.monotonic() + args.seconds
    while not times or time.monotonic() < deadline:
        times.append(run_pass(ops, plain, tally))
        if args.trace:
            tracers.append(Tracer())
            traced_times.append(run_pass(ops, make_layers(tracers[-1]), tally))

    if args.trace:
        extra = {"operators.kernel_resolved_terms":
                 getattr(workload, "resolved_terms", 0)}
        metrics = per_layer_metrics(tracers, traced_times, times, extra)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(times), "s"),
            "peak_rss_mb": (max_rss_mb(), "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("pass times (s):", " ".join(f"{t:.3f}" for t in times))
    print("set-up times (s):", " ".join(f"{t:.3f}" for t in setups))
    print(f"peak RSS last raised by the {tally.peak_raised_by}")
    print(f"passes = {len(times)}, attempted = {tally.attempted}, "
          f"failed = {tally.failed}, correct = {tally.correct}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
