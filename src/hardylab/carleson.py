"""Atomic pull-back measures on the closed disk and their window geometry.

Carleson windows, Hastings-Luecking boxes, dyadic annuli, Carleson function
profiles, and the dyadic box-counting sums of the Schatten-class embedding
criterion.  All measures are finite atomic measures; window queries reduce
to depth filters plus circular interval sums over angle-sorted atoms.

Conventions.  Every window reads one depth per atom, d = 1 - |z| shrunk by
a few ulp (:func:`_depth`), so that an atom placed on a dyadic circle
|z| = 1 - 2^-n, which arrives as 1 - 2^-n +- ulp, sits on it.  Boundary
atoms have d = 0.

* The Carleson window of size h is closed: d <= h and
  |arg(z conj(center))| <= pi h (boundary atoms included, per the closure
  in the Carleson function).
* The annulus of size h is 0 < d <= h (boundary atoms excluded); its dyadic
  half is h/2 < d <= h.
* Corona n is the dyadic annulus of size 2^-n: 2^-(n+1) < d <= 2^-n.  Its
  2^n aligned Hastings-Luecking boxes are the angular cells (-pi 2^-n,
  pi 2^-n] around e^{2 pi i j / 2^n}, so they tile the corona exactly, atom
  by atom (:func:`dyadic_boxes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import TWO_PI, BoundarySamples, signed_angle
from .symbols import Symbol

__all__ = [
    "PullbackMeasure",
    "CarlesonReport",
    "LueckingReport",
    "Series",
    "pullback",
    "pullback_graded",
    "graded_boundary",
    "window_mass",
    "dyadic_boxes",
    "carleson_profile",
    "luecking_sum",
    "annulus_mass",
    "simp_bound",
]

# Number of heaviest-atom directions added to the window-center set.
HEAVY_CENTERS = 64
# Cap on dyadic root centers per profile level.
MAX_ROOT_CENTERS = 2**18

# Series verdict thresholds on the fitted tail exponent (:class:`Series`);
# box-counting sums over fewer than MIN_LEVELS levels are inconclusive.
S_CONVERGING = 1.25
S_DIVERGING = 1.0
MIN_LEVELS = 8


@dataclass(frozen=True)
class PullbackMeasure:
    """Finite atomic measure on the closed unit disk."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        # own copy: boundary atoms are snapped in place below
        loc = np.array(self.locations, dtype=complex).ravel()
        mas = np.asarray(self.masses, dtype=float).ravel()
        if loc.shape != mas.shape:
            raise ValueError("locations and masses must have equal length")
        if np.any(mas < 0):
            raise ValueError("masses must be nonnegative")
        r = np.abs(loc)
        if np.any(r > 1.0 + 1e-9):
            raise ValueError("atom locations must satisfy |z| <= 1")
        # points meant to sit on the circle arrive with |z| = 1 +- ulp;
        # snap them so the boundary-atom conventions see them as such
        boundary = np.flatnonzero(r > 1.0 - 4e-16)
        loc[boundary] /= r[boundary]
        r[boundary] = 1.0
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", mas)
        object.__setattr__(self, "_radii", r)
        object.__setattr__(self, "_angles", np.angle(loc) % TWO_PI)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def size(self) -> int:
        return self.masses.size

    @property
    def radii(self) -> np.ndarray:
        return self._radii

    @property
    def angles(self) -> np.ndarray:
        return self._angles


def pullback(phi_trace: BoundarySamples, density) -> PullbackMeasure:
    """Push the boundary measure density*dm forward through the trace.

    Atoms sit at the trace values with masses density/N, so the total mass
    equals the quadrature of the density.
    """
    if isinstance(density, BoundarySamples):
        dv = np.asarray(density.values, dtype=float)
    else:
        dv = np.asarray(density, dtype=float)
        if dv.ndim == 0:
            dv = np.full(phi_trace.grid.size, float(dv))
    if dv.shape != (phi_trace.grid.size,):
        raise ValueError("density must match the trace grid")
    if np.any(dv < 0):
        raise ValueError("density must be nonnegative")
    return PullbackMeasure(phi_trace.values, dv / phi_trace.grid.size)


def graded_boundary(singular_angles, octaves: int = 32, per_octave: int = 24):
    """Dyadically graded discretization of the arc measure of the circle.

    Around every singular angle, octave intervals (t0 2^{-k-1}, t0 2^{-k}]
    on both sides are split into ``per_octave`` equal cells represented by
    their midpoints; one core atom per side absorbs the innermost interval,
    so the weights sum to exactly the full arc measure 1.
    """
    sing = sorted(a % TWO_PI for a in singular_angles)
    if not sing:
        raise ValueError("graded sampling needs at least one singular angle")
    if len(sing) == 1:
        t0 = np.pi
    else:
        gaps = np.diff(sing + [sing[0] + TWO_PI])
        t0 = float(gaps.min()) / 2.0
    angles, weights = [], []
    for base in sing:
        for sgn in (1.0, -1.0):
            for k in range(octaves):
                hi = t0 * 2.0**-k
                lo = hi / 2.0
                edges = np.linspace(lo, hi, per_octave + 1)
                mids = 0.5 * (edges[1:] + edges[:-1])
                angles.append(base + sgn * mids)
                weights.append(np.diff(edges) / TWO_PI)
            core = t0 * 2.0**-octaves
            angles.append(np.array([base + sgn * core / 2.0]))
            weights.append(np.array([core / TWO_PI]))
    return np.concatenate(angles), np.concatenate(weights)


def pullback_graded(
    phi: Symbol,
    density_fn: Optional[Callable] = None,
    octaves: int = 32,
    per_octave: int = 24,
) -> PullbackMeasure:
    """Pull-back measure on a grading refined toward the symbol's contact
    angles.

    Uniform-grid atoms cannot resolve windows whose preimage shrinks like a
    power of the window size (lens maps need t ~ h^{1/theta}); the graded
    discretization keeps dozens of cells per dyadic scale all the way down.
    Requires a closed-form trace; ``density_fn`` maps signed angles to a
    nonnegative boundary density (default 1).
    """
    angles, weights = graded_boundary(phi.singular_angles, octaves, per_octave)
    signed = signed_angle(angles % TWO_PI)
    locations = phi.trace_of_angle(signed)
    if density_fn is not None:
        dens = np.asarray(density_fn(signed), dtype=float)
        if np.any(dens < 0):
            raise ValueError("density must be nonnegative")
        weights = weights * dens
    return PullbackMeasure(locations, weights)


def _depth(mu: PullbackMeasure) -> np.ndarray:
    """Depth 1-|z| of each atom, shrunk by a few ulp.

    The relative guard keeps an atom that sits on a dyadic circle up to
    input rounding (e.g. |e^{it}|/2 = 0.5 - ulp) at depth <= 2^-n, on the
    closed side of every window edge.
    """
    return (1.0 - mu.radii) * (1.0 - 4e-16)


def _check_size(h: float) -> None:
    if not 0.0 < h <= 1.0:
        raise ValueError("window size must be in (0, 1]")


def window_mass(mu: PullbackMeasure, center: complex, h: float) -> float:
    """Mass of the closed Carleson window of size h at ``center`` on the
    circle: depth <= h and |arg(z conj(center))| <= pi h."""
    _check_size(h)
    c = complex(center)
    if abs(abs(c) - 1.0) > 1e-9:
        raise ValueError("window center must lie on the unit circle")
    d = np.angle(mu.locations * np.conj(c / abs(c)))
    inside = (_depth(mu) <= h) & (np.abs(d) <= np.pi * h)
    return float(mu.masses[inside].sum())


def dyadic_boxes(mu: PullbackMeasure,
                 n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Corona level and aligned box index of each atom, levels 0..n_max.

    Returns integer arrays (level, box) over the atoms.  An atom of corona
    n, 2^-(n+1) < depth <= 2^-n, lies in box j of that level when
    arg(z e^{-2 pi i j / 2^n}) is in (-pi 2^-n, pi 2^-n].  Boundary atoms and
    atoms deeper than corona n_max get level -1 and box -1.
    """
    d = _depth(mu)
    # d = m 2^e with m in [1/2, 1): corona -e, or 1-e when d = 2^(e-1)
    m, e = np.frexp(d)
    level = (m == 0.5) - e.astype(np.int64)
    level[(d <= 0.0) | (level > n_max)] = -1
    lv = np.maximum(level, 0)
    # with x = angle 2^n / (2 pi), box j covers x in (j - 1/2, j + 1/2]
    scale = 2.0 ** np.arange(n_max + 1) / TWO_PI
    j = np.ceil(mu.angles * scale[lv] - 0.5).astype(np.int64)
    box = j & ((1 << lv) - 1)  # j mod 2^n
    box[level < 0] = -1
    return level, box


@dataclass(frozen=True)
class Series:
    """The series sum of nonnegative ``terms`` over ``indices``.

    ``verdict`` reads its reason, ``tail_exponent``: the power s of terms ~
    n^{-s} fitted over the indices from half the last one on.  Above
    S_CONVERGING it is "converging", below S_DIVERGING "diverging", else (or
    when None) "inconclusive".  A zero last term (finite support) converges.
    """

    indices: np.ndarray
    terms: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices)
        terms = np.asarray(self.terms, dtype=float)
        if indices.shape != terms.shape or terms.ndim != 1 or np.any(terms < 0):
            raise ValueError("a series takes equal-length 1-d indices and "
                             "nonnegative terms")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "terms", terms)

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.terms)

    @property
    def total(self) -> float:
        return float(self.terms.sum())

    @property
    def tail_exponent(self) -> float | None:
        """Fitted s of terms ~ n^{-s}; None with fewer than four positive
        tail terms."""
        n = self.indices
        if n.size == 0:
            return None
        tail = (n >= max(1, n[-1] // 2)) & (self.terms > 0)
        if tail.sum() < 4:
            return None
        x = np.log(n[tail].astype(float))
        return -float(np.polyfit(x, np.log(self.terms[tail]), 1)[0])

    @property
    def verdict(self) -> str:
        if self.terms.size == 0 or self.terms[-1] == 0.0:
            return "converging"
        s = self.tail_exponent
        if s is None:
            return "inconclusive"
        if s > S_CONVERGING:
            return "converging"
        if s < S_DIVERGING:
            return "diverging"
        return "inconclusive"


@dataclass(frozen=True)
class LueckingReport:
    """Box-counting sums sum_j [2^n mu(box)]^{p/2} as a series over levels n."""

    p: float
    series: Series

    @property
    def per_level(self) -> np.ndarray:
        return self.series.terms

    @property
    def verdict(self) -> str:
        """The series verdict, or "inconclusive" below MIN_LEVELS levels."""
        if self.series.indices.size < MIN_LEVELS:
            return "inconclusive"
        return self.series.verdict


def luecking_sum(mu: PullbackMeasure, p: float, n_max: int) -> LueckingReport:
    """Box-counting sums of the S_p embedding criterion up to level n_max.

    Level n sums [2^n mu(box)]^{p/2} over the 2^n aligned half-open boxes
    tiling the dyadic corona.  The report holds them as the :class:`Series`
    over levels 0..n_max, whose verdict decides membership in S_p; fewer
    than MIN_LEVELS levels read "inconclusive".
    """
    if p <= 0:
        raise ValueError("Schatten exponent must be positive")
    level, box = dyadic_boxes(mu, n_max)
    per_level = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        sel = level == n
        if not sel.any():
            continue
        # occupied boxes only: a level holds up to 2^n boxes, far more than atoms
        _, slot = np.unique(box[sel], return_inverse=True)
        masses = np.bincount(slot, weights=mu.masses[sel])
        nz = masses[masses > 0]
        per_level[n] = float(np.sum((nz * (1 << n)) ** (p / 2.0)))
    return LueckingReport(p=p, series=Series(np.arange(n_max + 1), per_level))


def annulus_mass(mu: PullbackMeasure, h: float, dyadic: bool = False) -> float:
    """Mass of the annulus 0 < depth <= h, or of its dyadic half
    h/2 < depth <= h."""
    _check_size(h)
    d = _depth(mu)
    inside = (d > (h / 2.0 if dyadic else 0.0)) & (d <= h)
    return float(mu.masses[inside].sum())


@dataclass(frozen=True)
class CarlesonReport:
    """Window-mass profile rho(h) over dyadic sizes with headline ratios."""

    levels: np.ndarray
    h: np.ndarray
    rho: np.ndarray
    ratio: np.ndarray

    @property
    def constant(self) -> float:
        return float(self.ratio.max())

    @property
    def vanishing_score(self) -> float:
        top = self.ratio[0]
        return float(self.ratio[-1] / top) if top > 0 else 0.0


def _arc_masses(sorted_angles, prefix, lo, hi):
    """Masses of closed arcs [lo, hi] against angle-sorted prefix sums.

    ``sorted_angles`` is the angle list of K atoms followed by the same list
    shifted by 2 pi.  An arc holds at most K consecutive entries, one turn,
    so the closed full-circle arc counts the atom on both its ends once.
    """
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    shift = np.where(lo < 0.0, TWO_PI, 0.0)
    lo = lo + shift
    hi = hi + shift
    left = np.searchsorted(sorted_angles, lo, side="left")
    right = np.searchsorted(sorted_angles, hi, side="right")
    right = np.minimum(right, left + sorted_angles.size // 2)
    return prefix[right] - prefix[left]


def carleson_profile(mu: PullbackMeasure, n_lo: int, n_hi: int) -> CarlesonReport:
    """Profile rho(h) = sup over centers of closed-window mass, h = 2^-n.

    The center set per level holds the 2^{n+2} dyadic roots (4x
    oversampling, which also makes the profile provably nonincreasing in
    decreasing h) plus the directions of the HEAVY_CENTERS heaviest atoms
    (all atoms when there are fewer), picked by an O(N) partition; among
    equal masses at the cut the later atoms are taken.

    The atoms are sorted by angle once, stably, in O(N log N).  Level n
    keeps the atoms of the level before it with depth <= h: a boolean filter
    preserves the angle order, so each level costs one O(N) filter and
    prefix sum and no sort.  Once no atom is left the remaining levels are 0.
    """
    if not 0 <= n_lo < n_hi:
        raise ValueError("need 0 <= n_lo < n_hi")
    order = np.argsort(mu.angles, kind="stable")
    ang = mu.angles[order]
    depth = _depth(mu)[order]
    mas = mu.masses[order]
    light = mu.size - HEAVY_CENTERS
    cut = np.partition(mu.masses, light)[light] if light > 0 else -np.inf
    above = np.flatnonzero(mu.masses > cut)
    heavy = np.sort(mu.angles[np.concatenate([  # ties (N when uniform) not kept
        above, np.flatnonzero(mu.masses == cut)[above.size - HEAVY_CENTERS:]])])

    levels = np.arange(n_lo, n_hi + 1)
    rho = np.zeros(len(levels))
    for i, n in enumerate(levels):
        h = 2.0**-n
        keep = depth <= h
        ang, depth, mas = ang[keep], depth[keep], mas[keep]
        if ang.size == 0:
            break
        a_ext = np.concatenate([ang, ang + TWO_PI])
        prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([mas, mas]))])
        n_roots = min(1 << (n + 2), MAX_ROOT_CENTERS)
        centers = np.concatenate([TWO_PI * np.arange(n_roots) / n_roots,
                                  heavy])
        masses = _arc_masses(a_ext, prefix, centers - np.pi * h,
                             centers + np.pi * h)
        rho[i] = float(masses.max())
    h_vals = 2.0 ** -levels.astype(float)
    return CarlesonReport(levels=levels, h=h_vals, rho=rho,
                          ratio=rho / h_vals)


def simp_bound(n: int, report: CarlesonReport) -> float:
    """Approximation-number upper bound inf_h (e^{-n h} + sup_{t<=h}
    sqrt(rho(t)/t)) over the report's dyadic levels."""
    if n < 0:
        raise ValueError("need n >= 0")
    # suffix max over levels: t <= h means level index >= current
    tail_sup = np.maximum.accumulate(report.ratio[::-1])[::-1]
    values = np.exp(-n * report.h) + np.sqrt(tail_sup)
    return float(values.min())
