"""Re-measure the ROADMAP's single-stage baselines, single-threaded.

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 python3 perfbench/baselines.py

Times each pipeline stage once on the ROADMAP's fixed inputs (about a
minute in all) and prints one line per stage.  These are reference
figures for the README, not part of the benchmark's gated metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import hardylab as hl  # noqa: E402


def timed(label, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    print(f"{label:55s} {time.perf_counter() - t0:8.3f} s", flush=True)
    return out


def main() -> int:
    phi = hl.beta_exp(0.5)
    g20 = hl.make_grid(1 << 20)
    trace = timed("trace, betaexp:0.5, N=2^20", phi.trace, g20)
    timed("level sets, N=2^20", hl.level_sets, phi, g20)
    mu = timed("pull-back, N=2^20", hl.pullback, trace, 1.0)
    timed("Luecking sum p=2 to level 18, N=2^20", hl.luecking_sum, mu, 2.0, 18)
    timed("Carleson profile levels 1..12, N=2^20", hl.carleson_profile, mu, 1, 12)
    unit = hl.unit_weight(g20).trace
    a = timed("operator_matrix 256x256, N=2^20", hl.operator_matrix, unit, trace, 256, 256)
    timed("SVD 256x256", hl.singular_values, a)
    g16 = hl.make_grid(1 << 16)
    timed("operator_matrix 256x256, N=2^16", hl.operator_matrix,
          hl.unit_weight(g16).trace, phi.trace(g16), 256, 256)
    graded = hl.pullback_graded(hl.lens(0.5))
    spectrum = timed(f"embedding_spectrum, default graded lens(0.5), {graded.size} atoms",
                     hl.embedding_spectrum, graded)
    n = 512
    dilation = hl.PullbackMeasure(0.5 * np.exp(2j * np.pi * (np.arange(n) + 0.5) / n),
                                  np.full(n, 1.0 / n))
    s = hl.embedding_spectrum(dilation).values
    exact = 0.5 ** np.arange(n)
    good = np.abs(s - exact) <= 1e-6 * exact
    print(f"{'kernel_resolved_terms, dilation c=0.5 on 512 atoms':55s} {int(np.argmin(good)):8d}")
    z = 0.9 * np.exp(2j * np.pi * np.arange(100_000) / 100_000)
    timed("beta_exp(1.0) interior evaluation, 10^5 points", hl.beta_exp(1.0), z)
    print(f"(graded lens(0.5) s_1 = {spectrum.values[0]:.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
