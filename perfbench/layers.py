"""The calls a workload makes into hardylab, with optional per-layer tracing.

Workloads never call the library directly: they call the attributes of a
``Layers`` object.  Untraced, each attribute is the library function itself
(or a one-line adapter for a method such as ``phi.trace(grid)``).  Traced,
each attribute is wrapped in a span that records its self time (its duration
minus the spans opened inside it, e.g. a trace computed inside
``truncation_study``) under a per-layer metric name, plus the work counts
listed in ``COUNTERS``.  The library itself is not instrumented.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

from hardylab import carleson, grid, operators, outer, symbols, weights

# attribute -> (span name, callable)
CALLS = {
    "make_grid": ("grid.make_grid", grid.make_grid),
    "log_integral": ("grid.log_integral", grid.log_integral),
    "trace": ("symbols.trace", lambda phi, g: phi.trace(g)),
    "level_sets": ("symbols.level_sets", symbols.level_sets),
    "interior_eval": ("symbols.interior_eval", lambda phi, z: phi(z)),
    "outer_from_modulus": ("outer.outer_from_modulus", outer.outer_from_modulus),
    "outer_eval": ("outer.outer_eval", lambda f, z: f(z)),
    "recipe": ("weights.recipe", weights.parse_weight),
    "pullback": ("carleson.pullback", carleson.pullback),
    "carleson_profile": ("carleson.carleson_profile", carleson.carleson_profile),
    "luecking_sum": ("carleson.luecking_sum", carleson.luecking_sum),
    "annulus_mass": ("carleson.annulus_mass", carleson.annulus_mass),
    "operator_matrix": ("operators.operator_matrix", operators.operator_matrix),
    "singular_values": ("operators.singular_values", operators.singular_values),
    "embedding_spectrum": ("operators.embedding_spectrum",
                           operators.embedding_spectrum),
    "decay_fit": ("operators.decay_fit", operators.decay_fit),
    "truncation_study": ("operators.truncation_study",
                         operators.truncation_study),
    "hs_norm_boundary": ("operators.integrals", operators.hs_norm_boundary),
    "moment_integral": ("operators.integrals", operators.moment_integral),
    "column_pnorms": ("operators.integrals", operators.column_pnorms),
}

# span name -> (count metric, work done by one call given its args and result)
COUNTERS = {
    "operators.operator_matrix": ("operators.matrix_columns",
                                  lambda args, out: out.col_cut + 1),
    "operators.embedding_spectrum": ("operators.kernel_atoms",
                                     lambda args, out: out.grid_size),
    "symbols.interior_eval": ("symbols.eval_points", lambda args, out: out.size),
    "outer.outer_eval": ("outer.eval_points", lambda args, out: out.size),
    "weights.recipe": ("weights.recipe_calls", lambda args, out: 1),
    "carleson.pullback": ("carleson.atoms", lambda args, out: out.size),
}

# spans whose peak traced allocation is recorded, as "<span>_peak_mb"
MEMORY_SPANS = ("operators.embedding_spectrum",)


class Tracer:
    """Span stack with self time, counts and allocation peaks for one pass."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self._children = []

    def wrap(self, span, fn):
        counter = COUNTERS.get(span)
        memory = span in MEMORY_SPANS

        def traced(*args, **kwargs):
            self._children.append(0.0)
            if memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_mb[span] = max(self.peak_mb[span], peak / 2**20)
                self.self_s[span] += dur - self._children.pop()
                if self._children:
                    self._children[-1] += dur
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, out)
            return out

        return traced


def make_layers(tracer: Tracer | None = None) -> SimpleNamespace:
    """The call table, plain or wrapped in ``tracer``'s spans."""
    return SimpleNamespace(**{
        attr: fn if tracer is None else tracer.wrap(span, fn)
        for attr, (span, fn) in CALLS.items()
    })
