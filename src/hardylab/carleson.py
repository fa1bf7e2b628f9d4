"""Atomic pull-back measures on the closed disk and their window geometry.

Carleson windows, Hastings-Luecking boxes, annuli, Carleson function
profiles, and the dyadic box-counting sums of the Schatten-class embedding
criterion.  All measures are finite atomic measures; window queries reduce
to depth filters plus circular interval sums over angle-sorted atoms.

Conventions.  Every window reads one depth per atom,
:attr:`PullbackMeasure.depth`: d = 1 - |z| shrunk by a few ulp, so that an
atom placed on a dyadic circle |z| = 1 - 2^-n, which arrives as
1 - 2^-n +- ulp (e.g. |e^{it}|/2 = 0.5 - ulp), sits on it, on the closed
side of every window edge.  Boundary atoms have d = 0.

* A Carleson window of size h is closed: d <= h and arg z in the closed
  arc [a, a + 2 pi h] (mod 2 pi) for some a, boundary atoms included, per
  the closure in the Carleson function.  The profile takes the supremum
  over every a.
* The annulus of size h is 0 < d <= h (boundary atoms excluded).
* Corona n is the dyadic annulus of size 2^-n: 2^-(n+1) < d <= 2^-n.  Its
  2^n aligned Hastings-Luecking boxes are the angular cells (-pi 2^-n,
  pi 2^-n] around e^{2 pi i j / 2^n}, so they tile the corona exactly, atom
  by atom.  Box j of corona n has the heap key 2^n - 1 + j
  (:func:`dyadic_boxes`), so keys ascend by corona, then by box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import TWO_PI, BoundarySamples, _block_size, _is_integer
from .symbols import Symbol

__all__ = [
    "PullbackMeasure",
    "CarlesonReport",
    "LueckingReport",
    "Series",
    "pullback",
    "pullback_graded",
    "graded_boundary",
    "dyadic_boxes",
    "carleson_profile",
    "luecking_sum",
    "annulus_mass",
]

# Deepest Carleson profile level: a window edge a + 2 pi h below 4 pi is
# rounded by at most ulp(2 pi)/2 = 4.4e-16, within 4% of the window length
# 2 pi h down to h = 2^-49.
DEEPEST_LEVEL = 49

# Levels with fewer kept atoms search every window end: below this the
# pruned sweep's segment heads and bounds cost more numpy calls than the
# search they save (:func:`_window_max`).
PRUNED_SWEEP_MIN = 1 << 12

# Series verdict thresholds on the fitted tail exponent (:class:`Series`);
# box-counting sums over fewer than MIN_LEVELS levels are inconclusive.
S_CONVERGING = 1.25
S_DIVERGING = 1.0
MIN_LEVELS = 8


@dataclass(frozen=True)
class PullbackMeasure:
    """Finite atomic measure on the closed unit disk.

    ``locations`` is a read-only view of the caller's array when that is
    complex, not a copy.  It is a read-only copy when an atom with
    |z| = 1 +- ulp had to be snapped onto the circle; the caller's array is
    then left as given.  Callers must not write to an array they passed in
    afterwards: the cached depths and angles would no longer describe it.
    The masses must be nonnegative with a finite total.  ``depth`` holds
    each atom's read-only (1 - |z|)(1 - 4e-16), ``angles`` its arg z in
    [0, 2 pi].
    """

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=complex).ravel()
        mas = np.asarray(self.masses, dtype=float).ravel()
        if loc.shape != mas.shape:
            raise ValueError("locations and masses must have equal length")
        # all(x >= 0) rather than any(x < 0), so that a NaN fails the checks;
        # the sum of nonnegative masses is finite exactly when none is inf
        if not (np.all(mas >= 0) and np.isfinite(mas.sum())):
            raise ValueError("masses must be nonnegative with a finite total, "
                             "not NaN")
        r = np.abs(loc)
        if not np.all(r <= 1.0 + 1e-9):
            raise ValueError("atom locations must satisfy |z| <= 1, not NaN")
        # points meant to sit on the circle arrive with |z| = 1 +- ulp;
        # snap them so the boundary-atom conventions see them as such
        boundary = np.flatnonzero(r > 1.0 - 4e-16)
        if boundary.size:
            loc = loc.copy()
            loc[boundary] /= r[boundary]
            r[boundary] = 1.0
        loc.setflags(write=False)
        depth = np.subtract(1.0, r, out=r)
        depth *= 1.0 - 4e-16
        depth.setflags(write=False)
        # np.angle is in [-pi, pi]; adding 2 pi where it is negative is what
        # angles % (2 pi) does, bit for bit, but -0.0 stays -0.0
        angles = np.angle(loc)
        np.add(angles, TWO_PI, out=angles, where=angles < 0.0)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", mas)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "angles", angles)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def size(self) -> int:
        return self.masses.size


def pullback(phi_trace: BoundarySamples, density) -> PullbackMeasure:
    """Push the boundary measure density*dm forward through the trace.

    Atoms sit at the trace values with masses density/N, so the total mass
    equals the quadrature of the density, a constant or one value per
    sample.  The measure's locations are a read-only view of
    ``phi_trace.values`` (a copy only when an atom is snapped onto the
    circle, see :class:`PullbackMeasure`, which also checks the masses); do
    not write to the trace afterwards.
    """
    n = phi_trace.grid.size
    # a constant density is divided once, not sample by sample
    masses = np.broadcast_to(np.asarray(density, dtype=float) / n, (n,))
    return PullbackMeasure(phi_trace.values, masses)


def graded_boundary(singular_angles, octaves: int, per_octave: int):
    """Dyadically graded discretization of the arc measure of the circle.

    The + side of each singular angle reaches t0, half the gap to the next
    one (mod 2 pi), and its - side half the gap to the one before.  On each
    side the octave (t0 2^-(k+1), t0 2^-k], k < K = ``octaves``, holds
    P = ``per_octave`` cells: cell j at offset t0 2^-k (P + j + 1/2)/(2P),
    of arc measure t0 2^-k/(2P) / (2 pi).  One core atom per side, at offset
    t0 2^-K / 2, absorbs (0, t0 2^-K].  So the sides tile the circle and the
    weights sum to 1.  Atoms run by sorted angle, side (+, -), octave and
    cell.  Coincident singular angles (a gap of 0) are refused.
    """
    if not (_is_integer(octaves) and octaves >= 0
            and _is_integer(per_octave) and per_octave >= 1):
        raise ValueError("graded sampling needs integers octaves >= 0 and "
                         f"per_octave >= 1, got {octaves!r} and {per_octave!r}")
    sing = np.sort(np.asarray(singular_angles, dtype=float) % TWO_PI)
    if not sing.size:
        raise ValueError("graded sampling needs at least one singular angle")
    gap = np.diff(sing, append=sing[0] + TWO_PI)
    if not np.all(gap > 0.0):
        raise ValueError("graded sampling needs distinct singular angles "
                         "(mod 2 pi)")
    p = per_octave
    t0 = np.stack((gap, np.roll(gap, 1)), axis=1) / 2.0  # (+, -) per angle
    outer = t0[..., None] * 2.0 ** -np.arange(octaves + 1)  # k = K is the core
    offset = np.concatenate(
        ((outer[..., :-1, None] * ((p + 0.5 + np.arange(p)) / (2 * p)))
         .reshape(*t0.shape, -1), outer[..., -1:] / 2.0), axis=-1)
    width = np.concatenate((np.repeat(outer[..., :-1] / (2 * p), p, axis=-1),
                            outer[..., -1:]), axis=-1)
    angles = sing[:, None, None] + np.array([1.0, -1.0])[:, None] * offset
    return angles.ravel(), width.ravel() / TWO_PI


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
    if phi.boundary is None:
        raise NotImplementedError(
            f"symbol {phi.label!r} has no closed-form trace off the grid")
    angles, weights = graded_boundary(phi.singular_angles, octaves, per_octave)
    # singular angles in [0, 2 pi) and offsets below pi put the cells in
    # (-pi, 3 pi); 2 pi comes off where an angle passes pi, exactly (Sterbenz)
    signed = np.where(angles > np.pi, angles - TWO_PI, angles)
    if density_fn is not None:
        weights = weights * np.asarray(density_fn(signed), dtype=float)
    return PullbackMeasure(phi.boundary(signed), weights)


def dyadic_boxes(mu: PullbackMeasure, n_max: int) -> np.ndarray:
    """Heap key 2^n - 1 + j of each atom's box, over coronas 0..n_max.

    An atom of corona n, 2^-(n+1) < depth <= 2^-n, lies in box j of that
    corona when arg(z e^{-2 pi i j / 2^n}) is in (-pi 2^-n, pi 2^-n].  Keys
    are int64; boundary atoms and atoms deeper than corona n_max get -1.
    Atoms within 4e-16 of the circle are snapped onto it
    (:class:`PullbackMeasure`), so every other depth is at least
    2^-51 (1 - 4e-16) and no corona is deeper than 51.
    """
    # each N-length temporary is dropped once read, to bound the peak
    d = mu.depth
    # d = m 2^e with m in [1/2, 1): corona -e, or 1-e when d = 2^(e-1)
    m, e = np.frexp(d)
    level = np.subtract(m == 0.5, e, dtype=np.int16)
    del m, e
    level[(d <= 0.0) | (level > n_max)] = -1
    lv = np.maximum(level, 0)
    # with x = angle 2^n / (2 pi), box j covers x in (j - 1/2, j + 1/2]
    x = np.multiply(mu.angles, 1.0 / TWO_PI)
    np.ldexp(x, lv, out=x)
    x -= 0.5
    key = np.ceil(x, out=x).astype(np.int64)
    del x
    first = np.left_shift(1, lv, dtype=np.int64)
    first -= 1  # 2^n - 1, the key of box 0
    key &= first  # j mod 2^n
    key += first
    key[level < 0] = -1
    return key


def _box_masses(key, masses, n_max: int):
    """Ascending heap keys of the boxes that hold mass, each box's mass
    summed in atom order, and the corona table ``edges``, from the atoms'
    keys (-1 outside every box): the boxes of corona n <= n_max are
    keys[edges[n]:edges[n + 1]].

    Bins every key while there are no more keys than atoms in boxes, else
    only the keys that occur.
    """
    inside = key >= 0
    if key.max(initial=-1) < np.count_nonzero(inside):
        # bin 0 gathers the atoms outside every box
        box = np.bincount(key + 1, weights=masses)[1:]
        keys = np.flatnonzero(box > 0)
        box = box[keys]
    else:
        keys, slot = np.unique(key[inside], return_inverse=True)
        box = np.bincount(slot, weights=masses[inside])
        held = box > 0
        keys, box = keys[held], box[held]
    # key + 1 = 2^n + j for box j of corona n
    edges = np.searchsorted(np.frexp(keys + 1.0)[1] - 1, np.arange(n_max + 2))
    return keys, box, edges


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
        if indices.shape != terms.shape or terms.ndim != 1 or not np.all(terms >= 0):
            raise ValueError("a series takes equal-length 1-d indices and "
                             "nonnegative terms, not NaN")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "terms", terms)

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
    if not p > 0:
        raise ValueError("Schatten exponent must be positive, not NaN")
    if not (_is_integer(n_max) and n_max >= 0):
        raise ValueError(f"box level n_max must be an integer >= 0, got {n_max!r}")
    _, masses, edges = _box_masses(dyadic_boxes(mu, n_max), mu.masses, n_max)
    per_level = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        box = masses[edges[n]:edges[n + 1]]
        per_level[n] = float(np.sum((box * 2.0**n) ** (p / 2.0)))
    return LueckingReport(p=p, series=Series(np.arange(n_max + 1), per_level))


def annulus_mass(mu: PullbackMeasure, h: float) -> float:
    """Mass of the annulus 0 < depth <= h."""
    if not 0.0 < h <= 1.0:
        raise ValueError("annulus size must be in (0, 1]")
    d = mu.depth
    return float(mu.masses[(d > 0.0) & (d <= h)].sum())


@dataclass(frozen=True)
class CarlesonReport:
    """Window-mass profile rho(h) over dyadic sizes with headline ratios."""

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


def _window_max(ang, mas, h):
    """Largest mass of a closed arc [a, a + 2 pi h] with a at an atom, for
    atoms sorted by angle, from one prefix sum.

    Window i holds the atoms from i up to its end.  A window that passes
    2 pi holds all atoms from i on, plus those up to its end - 2 pi (exact,
    by Sterbenz), capped at i so that it holds at most one turn.  Its mass
    is the prefix difference top_i - prefix[i], top_i = prefix[right_i]
    (+ prefix[K] when it wraps).

    From PRUNED_SWEEP_MIN atoms on, the search is pruned by segments of
    B = 2^floor(log2(K)/2) atoms.  The
    windows from the segment heads give a lower bound L on the maximum.  A
    window from atom i of the segment [a, b] ends no later than the window
    from b, and starts no earlier than a: right_i <= right_b, so
    top_i <= top_b, and prefix[i] >= prefix[a], with prefix nondecreasing.
    Floating-point addition and subtraction are monotone in each operand, so
    the window's mass, rounded, is at most top_b - prefix[a] rounded, which
    is the segment's bound.  Only segments whose bound reaches L can hold a
    heaviest window, the first heaviest included, so only their windows are
    searched; the maximum and its first argmax are those of the full sweep.
    """
    k = ang.size
    prefix = np.empty(k + 1)
    prefix[0] = 0.0
    np.cumsum(mas, out=prefix[1:])
    span = TWO_PI * h

    def reach(start):
        """right, top and whether it wraps, for the windows from ``start``."""
        ends = ang[start] + span
        wraps = ends >= TWO_PI
        np.subtract(ends, TWO_PI, out=ends, where=wraps)
        right = np.searchsorted(ang, ends, side="right")
        np.minimum(right, start, out=right, where=wraps)
        top = prefix[right]
        np.add(top, prefix[k], out=top, where=wraps)
        return right, top, wraps

    if k < PRUNED_SWEEP_MIN:
        start = np.arange(k)
    else:
        b = _block_size(k)
        heads = np.arange(0, k, b)
        # the windows from the heads, then from the segments' last atoms
        top = reach(np.concatenate((heads, np.minimum(heads + b, k) - 1)))[1]
        top -= np.tile(prefix[heads], 2)
        head_mass, bound = np.split(top, 2)
        keep = bound >= head_mass.max()
        start = (heads[keep, None] + np.arange(b)).ravel()
        if keep[-1]:  # the last segment is short by heads.size * b - k atoms
            start = start[:start.size - (heads.size * b - k)]
    right, top, wraps = reach(start)
    # the heaviest window summed again directly, pairwise: a prefix
    # difference drifts by up to K ulp of the level's mass
    j = int(np.argmax(top - prefix[start]))
    i, r = int(start[j]), int(right[j])
    if not wraps[j]:
        return float(mas[i:r].sum())
    return float(mas[i:].sum() + mas[:r].sum())


def carleson_profile(mu: PullbackMeasure, n_lo: int, n_hi: int) -> CarlesonReport:
    """Profile rho(h) = sup of the mass of depth <= h over all closed arcs of
    length 2 pi h, h = 2^-n, for levels n_lo..n_hi within 0..DEEPEST_LEVEL.

    A heaviest arc slides forward until its left edge sits on an atom, so
    the supremum is a maximum over the K atoms kept at a level as left
    edges, with no center set.  The atoms of depth <= 2^-n_lo are sorted by
    angle once, stably, in O(K log K).  Each later level keeps the atoms of
    the level before it with depth <= h: a boolean filter preserves the
    angle order, so a level costs one prefix sum and a pruned search of the
    window ends (:func:`_window_max`), and no sort.  Once no atom is left
    the remaining levels are 0.
    """
    if not (_is_integer(n_lo) and _is_integer(n_hi)
            and 0 <= n_lo < n_hi <= DEEPEST_LEVEL):
        raise ValueError(f"need integer levels 0 <= n_lo < n_hi <= {DEEPEST_LEVEL}, "
                         f"got n_lo={n_lo!r}, n_hi={n_hi!r}")
    depth = mu.depth
    keep = depth <= 2.0**-n_lo
    depth = depth[keep]
    ang = mu.angles[keep]
    order = np.argsort(ang, kind="stable")
    ang = ang[order]
    depth = depth[order]
    mas = mu.masses[keep][order]
    del keep, order
    h_vals = 2.0 ** -np.arange(n_lo, n_hi + 1, dtype=float)
    rho = np.zeros(h_vals.size)
    for i, h in enumerate(h_vals):
        if i:
            keep = depth <= h
            # one array at a time, so no level holds two copies of all three
            ang = ang[keep]
            depth = depth[keep]
            mas = mas[keep]
        if ang.size == 0:
            break
        rho[i] = _window_max(ang, mas, h)
    return CarlesonReport(h=h_vals, rho=rho, ratio=rho / h_vals)
