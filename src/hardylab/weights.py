"""Weight constructions: every recipe produces the log-modulus log|w*| on
the grid, and the weight is its outer function, with |w*| = exp(log|w*|).

Recipes read a catalog :class:`hardylab.symbols.Symbol` on a grid (a table
enters as :func:`hardylab.symbols.custom_outer`).  Compactify and staircase
report the series they keep summable as a :class:`hardylab.carleson.Series`.

The outer function decides whether the prescribed modulus is
log-integrable (:attr:`hardylab.outer.OuterFunction.log_divergent`).  A
weight whose modulus is not (the recipe target vanishes too hard) cannot be
completed to an analytic function.  No recipe refuses it: the weight
carries the verdict and its trace is the boundary modulus with flat phase,
which is all the measure-level diagnostics ever read, since the singular
values of the weighted composition operator depend on |w*| only.  The one
place that refuses is :func:`parse_weight` with ``strict``, which raises
:class:`hardylab.outer.NotLogIntegrableError`; :class:`WeightError` is
kept for a recipe's other preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (BoundaryGrid, BoundarySamples, _constant, _is_integer,
                   _level_cap, _polar)
from .outer import NotLogIntegrableError, OuterFunction
from .symbols import LevelSets, Symbol, lens, level_sets
from .carleson import Series, _box_masses, dyadic_boxes, pullback

__all__ = [
    "Weight",
    "WeightError",
    "CompactifySchedule",
    "BoxSelection",
    "unit_weight",
    "power_weight",
    "default_gauge",
    "compactify_weight",
    "staircase_weight",
    "stretched_staircase_delta",
    "lens_decompact_weight",
    "box_decompact_weight",
    "parse_weight",
]

# Deep-approach threshold for the ||phi||_inf = 1 proxy: the co-modulus must
# drop below this along a dyadic angle ladder toward a contact point.
NORM_ONE_CO_THRESHOLD = 1e-6
# Number of schedule entries n = 1, 2, ... a compactifying weight tries.
COMPACTIFY_TERMS = 64


class WeightError(ValueError):
    """A weight recipe's precondition failed."""


@dataclass(frozen=True)
class Weight:
    """Boundary data of a weight: modulus exp(log|w*|), boundary trace and
    the outer function of the log-modulus.

    The trace is the outer function's boundary trace (the modulus with flat
    phase when ``log_divergent``), or a closed form where the recipe has one.
    """

    name: str
    modulus: BoundarySamples
    trace: BoundarySamples
    outer: OuterFunction

    @property
    def log_divergent(self) -> bool:
        return self.outer.log_divergent

    def density(self) -> np.ndarray:
        """|w*|^2, the boundary density seen by the pull-back measure.

        A zero-stride modulus (one constant, as for :func:`unit_weight`)
        gives a zero-stride, read-only density.
        """
        m = np.asarray(self.modulus.values, dtype=float)
        one = _constant(m)
        if one is not None:
            return np.broadcast_to(one ** 2, m.shape)
        return m ** 2


def _finish(name: str, grid: BoundaryGrid, log_modulus: np.ndarray) -> Weight:
    outer = OuterFunction(grid, log_modulus)
    return Weight(name=name, modulus=outer.boundary_modulus(),
                  trace=outer.boundary(), outer=outer)


def unit_weight(grid: BoundaryGrid) -> Weight:
    """w = 1: modulus and trace 1, the outer function of log-modulus 0.

    The three arrays are read-only zero-stride broadcasts of one constant,
    so the weight holds no N-length data.
    """
    n = grid.size
    return Weight(
        name="unit",
        modulus=grid.samples(np.broadcast_to(1.0, n)),
        trace=grid.samples(np.broadcast_to(1.0 + 0j, n)),
        outer=OuterFunction(grid, np.broadcast_to(0.0, n)),
    )


def default_gauge(co):
    """Gauge g(co) = max(2, log(2 + log(1/co))) of the co-modulus
    co = 1 - |phi*|: nonincreasing in co, and -> inf as co -> 0.  co is
    floored at 1e-300, so g stays finite where co = 0 (there co^g = 0)."""
    inner = np.maximum(np.asarray(co, dtype=float), 1e-300)
    return np.maximum(2.0, np.log(2.0 + np.log(1.0 / inner)))


def power_weight(phi: Symbol, grid: BoundaryGrid, exponent) -> Weight:
    """Weight with |w*| = co^K, co = 1 - |phi*|, or gauge form co^{g(co)}.

    ``exponent`` is a finite constant K >= 0 (K = 0 is the unit weight, with
    no sampling) or a gauge callable of the co-modulus samples, finite and
    >= 1 at each.
    """
    if not callable(exponent):
        expo = float(exponent)
        if not 0.0 <= expo < np.inf:
            raise WeightError(f"power exponent must be finite and >= 0, got {expo}")
        if expo == 0.0:
            return unit_weight(grid)
        return _co_power(f"power:{expo:g}", phi.co_modulus(grid), expo)
    co = phi.co_modulus(grid)
    expo = np.asarray(exponent(co.values), dtype=float)
    if not np.all((expo >= 1.0) & (expo < np.inf)):
        raise WeightError("gauge values must be finite and >= 1")
    return _co_power("gauge", co, expo)


def _co_power(name: str, co: BoundarySamples, expo) -> Weight:
    """Weight with log|w*| = expo log co, co the samples of 1 - |phi*|."""
    with np.errstate(divide="ignore"):
        return _finish(name, co.grid, expo * np.log(co.values))


@dataclass(frozen=True)
class CompactifySchedule:
    """Chosen levels k_n and the series sum_n c_{k_n} log n, n = 1, 2, ..."""

    ks: np.ndarray
    series: Series


def _step_weight(name: str, levels: LevelSets, log_steps: np.ndarray) -> Weight:
    """Weight with log|w*| = log_steps[0] + ... + log_steps[k] on level k."""
    return _finish(name, levels.grid, np.cumsum(log_steps)[levels.level_index])


def compactify_weight(levels: LevelSets):
    """Weight with |w*| = prod over n of (1/n on F_{k_n}, 1 elsewhere).

    The schedule k_n = min{k : c_k <= 2^-n}, for n = 1..COMPACTIFY_TERMS
    while such a level exists, forces sum c_{k_n} log n <= sum 2^-n log n,
    so the reported series is summable by construction.  The masses c_k
    are nonincreasing, so one search finds every k_n.
    Returns (weight, schedule).
    """
    c = levels.masses
    # -c[1:] is sorted: k_n - 1 is its first index at or above -2^-n
    ks = np.searchsorted(-c[1:], -(2.0 ** -np.arange(1, COMPACTIFY_TERMS + 1))) + 1
    ks = ks[ks <= levels.k_max]
    if not ks.size:
        raise WeightError("not compactifiable at this resolution: no level set "
                          "with mass <= 1/2")
    n = np.arange(1, ks.size + 1)
    log_n = np.log(n)
    # log|w*| per sample: sum of -log n over schedule entries with k_n <= level
    log_steps = np.bincount(ks, weights=-log_n, minlength=levels.k_max + 1)
    schedule = CompactifySchedule(ks, Series(n, c[ks] * log_n))
    return _step_weight("compactify", levels, log_steps), schedule


def stretched_staircase_delta(beta: float, k_max: int) -> np.ndarray:
    """Staircase schedule delta_k = exp(-2^{k/beta}/k^2), k = 1..k_max.

    The raw formula is not monotone for small k (the k^2 factor wins until
    2^{k/beta} takes over); it is replaced by its smallest nonincreasing
    majorant, identical from the hump on.  beta lies in (0, 2], as for
    :func:`hardylab.symbols.beta_exp`; k_max is an integer >= 0.
    """
    if not 0.0 < beta <= 2.0:
        raise WeightError(f"staircase beta must be in (0, 2], got {beta}")
    if not (_is_integer(k_max) and k_max >= 0):
        raise WeightError(f"staircase k_max must be an integer >= 0, got {k_max!r}")
    k = np.arange(1, k_max + 1, dtype=float)
    delta = np.exp(-(2.0 ** (k / beta)) / k**2)
    return np.maximum.accumulate(delta[::-1])[::-1]


def staircase_weight(levels: LevelSets, delta: Sequence[float]):
    """Weight with log|w*| = sum_k log(delta_k) on F_k; returns (weight, series).

    Requires delta in (0, 1] and the :class:`Series` sum c_k log(1/delta_k)
    over the available range to read "converging"; otherwise raises
    "divergent staircase" with the verdict and its tail exponent.
    """
    d = np.asarray(delta, dtype=float)
    if not np.all((d >= 0) & (d <= 1)):
        raise WeightError("staircase deltas must lie in (0, 1], not NaN")
    if np.any(d == 0):
        k = int(np.flatnonzero(d == 0)[0]) + 1
        raise WeightError(f"staircase delta_{k} underflows to 0: level k={k} "
                          "is beyond the float range")
    k_count = min(len(d), levels.k_max)
    c = levels.masses[1 : k_count + 1]
    series = Series(np.arange(1, k_count + 1), c * np.log(1.0 / d[:k_count]))
    if series.verdict != "converging":
        raise WeightError("divergent staircase: sum c_k log(1/delta_k) reads "
                          f"{series.verdict!r}, tail exponent "
                          f"{series.tail_exponent}")
    log_steps = np.zeros(levels.k_max + 1)
    log_steps[1 : k_count + 1] = np.log(d[:k_count])
    return _step_weight("staircase", levels, log_steps), series


def lens_decompact_weight(theta: float, grid: BoundaryGrid) -> Weight:
    """Closed-form weight w = (1 - lambda_theta)^a with a = (1 - 1/theta)/2.

    The negative power amplifies mass near the contact point exactly hard
    enough to keep the pull-back measure Carleson but not vanishing; a is
    chosen so 2 a theta = theta - 1 > -1, hence w is in H^2.  The trace is
    the closed form, read in polar form from b = 1 - lambda_theta as
    exp(a log|b|) e^{i a arg b} (b has positive real part, so arg b is the
    principal argument); ``outer`` is the outer function of the same
    modulus (1 - lambda_theta is outer).
    """
    b = lens(theta).trace(grid).values
    a = 0.5 * (1.0 - 1.0 / theta)
    np.subtract(1.0, b, out=b)
    log_modulus = a * np.log(np.abs(b))
    modulus = np.exp(log_modulus)
    return Weight(
        name=f"lensdecomp:{theta:g}",
        modulus=grid.samples(modulus),
        trace=grid.samples(_polar(a * np.angle(b), modulus)),
        outer=OuterFunction(grid, log_modulus),
    )


@dataclass(frozen=True)
class BoxSelection:
    """Boxes chosen by the box-indicator decompactifying weight."""

    ks: np.ndarray
    box_index: np.ndarray
    box_masses: np.ndarray

    @property
    def added_mass(self) -> float:
        return float(np.sum(2.0 ** -self.ks.astype(float)))


def box_decompact_weight(phi: Symbol, grid: BoundaryGrid):
    """Weight with |w*|^2 = 1 + sum_n 2^{-k_n}/m(box_n) on the box preimages.

    Levels k_n run over the dyadic coronas that hold at least one pull-back
    atom; within each corona the heaviest of the 2^{k_n} aligned boxes is
    taken.  The construction pins nu(W(center_n, 2^{-k_n})) >= 2^{-k_n}, so
    the resulting measure cannot be vanishing Carleson, while the added
    boundary mass sum 2^{-k_n} <= 1 keeps it Carleson.

    Requires the symbol to reach the boundary: the co-modulus must drop
    below the deep-approach threshold along a dyadic ladder toward a
    contact angle ("norm below one" otherwise).  Returns (weight, boxes).
    """
    ladder = 2.0 ** -np.arange(3, 51, dtype=float)
    if phi.singular_angles:
        probes = np.concatenate([a + ladder for a in phi.singular_angles])
    else:
        probes = np.linspace(-np.pi, np.pi, 4097)[1:]
    co_min = float(np.min(phi.co(probes)))
    if co_min > NORM_ONE_CO_THRESHOLD:
        raise WeightError("norm below one: symbol does not reach the boundary")

    trace = phi.trace(grid)
    mu = pullback(trace, 1.0)
    cap = _level_cap(grid.size)
    key = dyadic_boxes(mu, cap)
    keys, masses, edges = _box_masses(key, mu.masses, cap)
    ks = np.flatnonzero(np.diff(edges)[1:]) + 1  # the coronas k >= 1 held
    if not ks.size:
        raise WeightError("norm below one: no corona holds an atom")
    # the first heaviest box of each
    heaviest = [edges[k] + np.argmax(masses[edges[k]:edges[k + 1]]) for k in ks]
    chosen, box_masses = keys[heaviest], masses[heaviest]
    box_index = chosen - (1 << ks) + 1
    # each atom lies in at most one chosen box
    pos = np.minimum(np.searchsorted(chosen, key), ks.size - 1)
    member = chosen[pos] == key
    u = np.ones(grid.size)  # |w*|^2
    u[member] += (2.0**-ks / box_masses)[pos[member]]
    boxes = BoxSelection(ks=ks, box_index=box_index, box_masses=box_masses)
    return _finish("boxdecomp", grid, 0.5 * np.log(u)), boxes


def parse_weight(spec: str, phi: Symbol, grid: BoundaryGrid,
                 strict: bool = True) -> Weight:
    """Build a recipe weight from its CLI name.

    Accepted forms: ``unit``, ``hs``, ``power:K``, ``gauge``,
    ``compactify``, ``staircase:default``, ``staircase:<csv-file>``,
    ``lensdecomp``, ``boxdecomp``.  Recipes that also produce a report
    object return only the weight here.  With ``strict`` (default) a
    ``log_divergent`` weight raises :class:`NotLogIntegrableError`.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "unit":
        w = unit_weight(grid)
    elif name == "hs":  # |w*|^2 = 1 - |phi*|
        w = _co_power("hs", phi.co_modulus(grid), 0.5)
    elif name == "power":
        w = power_weight(phi, grid, float(arg))
    elif name == "gauge":
        w = power_weight(phi, grid, default_gauge)
    elif name == "compactify":
        w = compactify_weight(level_sets(phi, grid))[0]
    elif name == "staircase":
        levels = level_sets(phi, grid)
        if arg in ("", "default"):
            if phi.kind != "betaexp":
                raise WeightError(
                    "staircase:default needs a betaexp symbol; pass a delta file"
                )
            delta = stretched_staircase_delta(phi.params[0], levels.k_max)
        else:
            delta = np.loadtxt(arg, delimiter=",", dtype=float, ndmin=1)
        w = staircase_weight(levels, delta)[0]
    elif name == "lensdecomp":
        if phi.kind != "lens":
            raise WeightError("lensdecomp needs a lens symbol")
        w = lens_decompact_weight(phi.params[0], grid)
    elif name == "boxdecomp":
        w = box_decompact_weight(phi, grid)[0]
    else:
        raise ValueError(f"unknown weight spec {spec!r}")
    if strict and w.log_divergent:
        raise NotLogIntegrableError(f"{w.name}: divergent log-integral")
    return w
