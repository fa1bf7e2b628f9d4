"""Catalog of analytic self-maps of the disk and their boundary behavior.

A symbol is its *co-modulus* 1 - |phi*|, evaluated without cancellation:
the catalog's interesting symbols approach the unit circle so fast that
``1 - modulus`` in floating point would lose all digits exactly where the
diagnostics look.

A closed-form symbol also carries its interior values and its boundary
trace as a function of the real angle t.  On the circle
(1 - e^{it})/(1 + e^{it}) = -i tan(t/2), so the lens trace and co-modulus
follow from T = |tan(t/2)|^theta with no complex exponential or complex
power, and the other closed forms are written as modulus and argument in t.
Any other symbol is the outer function of log|phi*| = log1p(-co).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import (TWO_PI, BoundaryGrid, BoundarySamples, GridError, _level_cap,
                   _mirror, _polar, make_grid)
from .outer import OuterFunction, _interior_radius

__all__ = [
    "Symbol",
    "LevelSets",
    "lens",
    "half",
    "beta_exp",
    "extreme_not_exposed",
    "hs_extremal",
    "custom_outer",
    "constant",
    "level_sets",
    "parse_symbol",
]

# Interior values of an outer-type symbol are the Taylor series of its trace
# on a reference grid of N points, which stops at k = N/2.  A log-modulus of
# total variation V has Herglotz coefficients 2|c_k| <= V/(pi k), so the
# tail at radius r is at most V r^{N/2} / (pi (N/2) (1 - r)).  N is the first
# power of two from REFERENCE_MIN that keeps this below TAIL_TOL * V.  At
# N(1 - r) = C the bound is 2 e^{-C/2} / (pi C) whatever r is, so N(1 - r) >=
# 29.2 always suffices.  The floor's aliasing, not the tail, sets the error at
# small radii.
REFERENCE_MIN = 4096
REFERENCE_MAX = 1 << 20
TAIL_TOL = 1e-8


def _reference_size(r: float) -> int:
    """Smallest reference grid whose Taylor tail at radius r is negligible."""
    n = REFERENCE_MIN
    while n <= REFERENCE_MAX:
        if r ** (n // 2) <= TAIL_TOL * np.pi * (n // 2) * (1.0 - r):
            return n
        n *= 2
    raise ValueError(f"radius {r!r} is beyond the largest reference grid "
                     f"(N = {REFERENCE_MAX}) of an outer-type symbol")


@dataclass(frozen=True)
class Symbol:
    """Analytic self-map of the disk, given by its co-modulus.

    ``co(t)`` is the co-modulus 1 - |phi*(e^{it})| at signed angles,
    computed cancellation-free; the modulus is 1 - co.  A closed-form
    symbol adds ``analytic`` at interior points and ``boundary(t)``, the
    trace phi*(e^{it}) at any real angle.  Without them the symbol is the
    outer function (:class:`hardylab.outer.OuterFunction`) of log1p(-co),
    which gives the trace on a grid and the interior values on a reference
    grid chosen from the radius.  Points outside the open unit disk are
    refused.  The interior evaluator of each reference size is built on
    first use and kept: its N/2 Taylor coefficients, or its refusal when
    the log-modulus is not integrable.

    ``real`` states that phi has real Taylor coefficients, so that
    phi(conj z) = conj phi(z): the co-modulus is even in t and the trace
    conjugate-even.  Every catalog symbol has it, a :func:`constant` has it
    when c is real, and a table (:func:`custom_outer`) does not; a direct
    construction states it, there is no default.  On a grid a real symbol
    evaluates ``co`` and ``boundary`` on the upper half-grid only and
    mirrors the samples (:func:`hardylab.grid._mirror`): its co-modulus, its
    trace, its interior reference grids and its :func:`level_sets` read
    half the samples.
    """

    kind: str
    label: str
    params: tuple
    singular_angles: tuple
    co: Callable
    real: bool
    analytic: Optional[Callable] = None
    boundary: Optional[Callable] = None

    def __post_init__(self):
        if (self.analytic is None) != (self.boundary is None):
            raise ValueError("a closed-form Symbol needs both analytic and "
                             "boundary")
        # interior evaluators of an outer-type symbol, by reference size
        object.__setattr__(self, "_interior", {})

    def _angles(self, grid: BoundaryGrid) -> np.ndarray:
        """The angles the symbol is evaluated at: the upper half-grid when
        ``real``, all signed angles otherwise."""
        return grid._upper_angles() if self.real else grid.signed_angles()

    def _whole(self, values: np.ndarray, conj: bool = False) -> np.ndarray:
        """Samples at :meth:`_angles` completed to the whole grid."""
        return _mirror(values, conj) if self.real else values

    def co_modulus(self, grid: BoundaryGrid) -> BoundarySamples:
        """Samples of 1 - |phi*| at the grid angles, cancellation-free."""
        return grid.samples(self._whole(self.co(self._angles(grid))))

    def _outer(self, grid: BoundaryGrid) -> OuterFunction:
        with np.errstate(divide="ignore"):  # co = 1 is log|phi*| = -inf
            log_modulus = np.log1p(-self.co(self._angles(grid)))
        return OuterFunction(grid, self._whole(log_modulus))

    def trace(self, grid: BoundaryGrid) -> BoundarySamples:
        if self.boundary is None:
            return self._outer(grid).boundary()
        return grid.samples(self._whole(self.boundary(self._angles(grid)), True))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        r = _interior_radius(z)
        if self.analytic is not None:
            return self.analytic(z)
        n = _reference_size(r)
        if n not in self._interior:
            self._interior[n] = self._outer(make_grid(n)).interior()
        return self._interior[n](z)

    def __repr__(self):
        return f"Symbol({self.label})"


def lens(theta: float) -> Symbol:
    """Lens map of parameter theta in (0, 1), pinching the disk at +-1.

    lambda(z) = (1 - s)/(1 + s) with s = ((1-z)/(1+z))^theta (principal
    powers); fixes +-1 as boundary limits, lambda(0) = 0, and
    1 - |lambda*(e^{it})| behaves like |t|^theta near the contact points.

    On the circle s = T e^{-i (pi theta / 2) sign tan(t/2)} with
    T = |tan(t/2)|^theta, so with c = cos(pi theta / 2) and
    D = |1 + s|^2 = 1 + 2 c T + T^2 the trace is
    ((1 - T^2) + 2 i sign(tan(t/2)) sin(pi theta / 2) T) / D, and
    1 - |lambda*|^2 = x = 4 c T / D gives the co-modulus x / (1 + sqrt(1 - x))
    without cancellation.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"lens parameter must be in (0, 1), got {theta}")
    cos_half = np.cos(0.5 * np.pi * theta)
    sin_half = np.sin(0.5 * np.pi * theta)

    def core(z):
        s = ((1.0 - z) / (1.0 + z)) ** theta
        return (1.0 - s) / (1.0 + s)

    def tan_power(t):
        """tan(t/2) and T = |tan(t/2)|^theta as new arrays shaped like t
        (0-d for a scalar), so that both can be written in place."""
        tan_half = np.multiply(0.5, t, out=np.empty(np.shape(t)))
        np.tan(tan_half, out=tan_half)
        big_t = np.abs(tan_half, out=np.empty_like(tan_half))
        np.power(big_t, theta, out=big_t)
        return tan_half, big_t

    def denominator(big_t, out):
        """D = |1 + s|^2 = 1 + (T + 2c) T, written to ``out``."""
        np.add(big_t, 2.0 * cos_half, out=out)
        out *= big_t
        out += 1.0
        return out

    def boundary_fn(t):
        tan_half, big_t = tan_power(t)
        out = np.empty(np.shape(t), dtype=complex)
        re, im = out.real, out.imag
        # the sign of tan(t/2) is that of t in (-pi, pi], and repeats mod 2 pi
        np.copysign(big_t, tan_half, out=im)
        d = denominator(big_t, out=tan_half)
        np.multiply(big_t, big_t, out=re)
        np.subtract(1.0, re, out=re)
        re /= d
        im *= 2.0 * sin_half
        im /= d
        return out

    def co_fn(t):
        x, big_t = tan_power(t)
        denominator(big_t, out=x)
        np.divide(big_t, x, out=x)
        x *= 4.0 * cos_half
        # D - 4 c T = (1 - T)^2 + 2 T (1 - c) >= 0, so x <= 1 but for rounding
        np.minimum(x, 1.0, out=x)
        np.subtract(1.0, x, out=big_t)
        np.sqrt(big_t, out=big_t)
        big_t += 1.0
        x /= big_t
        return x

    return Symbol(
        kind="lens",
        label=f"lens:{theta:g}",
        params=(theta,),
        singular_angles=(0.0, np.pi),
        co=co_fn,
        real=True,
        analytic=core,
        boundary=boundary_fn,
    )


def half() -> Symbol:
    """The symbol phi(z) = (1+z)/2 with boundary modulus |cos(t/2)|, and
    trace (1 + cos t)/2 + i sin(t)/2."""

    def boundary_fn(t):
        out = np.empty(np.shape(t), dtype=complex)
        re, im = out.real, out.imag
        np.cos(t, out=re)
        re += 1.0
        re *= 0.5
        np.sin(t, out=im)
        im *= 0.5
        return out

    return Symbol(
        kind="half",
        label="half",
        params=(),
        singular_angles=(0.0,),
        co=lambda t: 2.0 * np.sin(t / 4.0) ** 2,
        real=True,
        analytic=lambda z: (1.0 + z) / 2.0,
        boundary=boundary_fn,
    )


def beta_exp(beta: float) -> Symbol:
    """Symbol exp(-U) where U is the Herglotz map of u(t) = |sin(t/2)|^beta.

    Boundary modulus exp(-|sin(t/2)|^beta) in closed form; the boundary
    argument is the conjugate function of -u.  The exact U has Re U >= 0, so
    exp(-U) maps the disk into itself.  For beta = 2, u = (1 - cos t)/2 and
    U(z) = (1 - z)/2, so the symbol is the closed form exp((z - 1)/2), whose
    trace is exp((cos t - 1)/2) e^{i sin(t)/2}; otherwise it is the outer
    function of log1p(-co) = -u, whose values carry the aliasing of the
    cusp's slowly decaying spectrum on the grid used.
    """
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must be in (0, 2], got {beta}")

    def boundary_fn(t):
        return _polar(0.5 * np.sin(t), np.exp(0.5 * (np.cos(t) - 1.0)))

    closed = beta == 2.0
    return Symbol(
        kind="betaexp",
        label=f"betaexp:{beta:g}",
        params=(beta,),
        singular_angles=(0.0,),
        co=lambda t: -np.expm1(-np.abs(np.sin(t / 2.0)) ** beta),
        real=True,
        analytic=(lambda z: np.exp((z - 1.0) / 2.0)) if closed else None,
        boundary=boundary_fn if closed else None,
    )


def extreme_not_exposed() -> Symbol:
    """Outer symbol with |phi*| = 1 - exp(-1/|t|).

    The boundary modulus never reaches 1 away from t = 0, its log is
    integrable, but log(1 - |phi*|) = -1/|t| is not: the symbol is an
    extreme but not exposed point of the unit ball of H^infinity.
    """

    def co_fn(t):
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(-1.0 / np.abs(t))

    return Symbol(
        kind="extreme",
        label="extreme",
        params=(),
        singular_angles=(0.0,),
        co=co_fn,
        real=True,
    )


def hs_extremal() -> Symbol:
    """Outer symbol with |phi*| = 1 - exp(-e^{1/|t|}).

    The modulus is bounded below by 1 - exp(-e^{1/pi}) > 0 and approaches 1
    at t = 0 doubly exponentially fast; the co-modulus exp(-e^{1/|t|})
    underflows to exact zero near the contact angle, which every consumer
    treats as a boundary-touching sample.
    """

    def co_fn(t):
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(-np.exp(1.0 / np.abs(t)))

    return Symbol(
        kind="hsx",
        label="hsx",
        params=(),
        singular_angles=(0.0,),
        co=co_fn,
        real=True,
    )


def custom_outer(angles, modulus) -> Symbol:
    """Outer symbol from a table of (angle, modulus) boundary samples.

    Angles may be given in [0, 2*pi) or (-pi, pi]; the modulus is
    interpolated periodically and linearly.  Angles must be finite, values
    in [2^-26, 1]: below 2^-26, rounding the co-modulus 1 - m moves log m by
    more than 2^-28.  A table need not be even, so the symbol is not
    ``real``.
    """
    a = np.array(angles, dtype=float)
    m = np.array(modulus, dtype=float)
    if a.shape != m.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need matching 1-d angle and modulus tables")
    if not (np.all(np.isfinite(a)) and np.all(m >= 2.0**-26) and np.all(m <= 1.0)):
        raise ValueError("custom outer angles must be finite and the modulus in "
                         f"[2^-26 = 1.49e-08, 1], not NaN; smallest {m.min():g}")
    return Symbol(
        kind="customouter",
        label="outer:<table>",
        params=(),
        singular_angles=(),
        co=lambda t: 1.0 - np.interp(t, a, m, period=TWO_PI),
        real=False,
    )


def constant(c: complex) -> Symbol:
    """Constant symbol phi ≡ c with |c| < 1, the interior domain of
    :func:`hardylab.outer._interior_radius`; diagnostic use."""
    c = complex(c)
    _interior_radius(c)
    return Symbol(
        kind="const",
        label=f"const:{c.real:g}" if c.imag == 0 else f"const:{c!r}",
        params=(c,),
        singular_angles=(),
        co=lambda t: np.full_like(t, 1.0 - abs(c), dtype=float),
        real=c.imag == 0,
        analytic=lambda z: np.full_like(z, c, dtype=complex),
        boundary=lambda t: np.full(np.shape(t), c),
    )


@dataclass(frozen=True)
class LevelSets:
    """Nested boundary sets F_k = {|phi*| > 1 - h_k} with masses c_k.

    ``level_index[j]`` is the deepest k whose set contains sample j, an
    int8 array (k <= log2(N) - 2), so F_k is ``level_index >= k``; the sets
    are nested by construction.
    The inclusion at the threshold is strict, so a constant symbol sitting
    exactly on a dyadic level has empty sets from k = 1 on.
    """

    grid: BoundaryGrid
    thresholds: np.ndarray
    level_index: np.ndarray
    masses: np.ndarray

    @property
    def k_max(self) -> int:
        return len(self.thresholds) - 1


def level_sets(phi: Symbol, grid: BoundaryGrid) -> LevelSets:
    """Compute level-set masses of a symbol on the grid.

    Dyadic thresholds h_k = 2^{-k}, k = 0..log2(N) - 2, the level cap of
    :func:`hardylab.grid._level_cap`.

    The level of a sample is the number of h_k, k >= 1, above its
    co-modulus.  The thresholds are powers of two, so it is read from the
    binary exponent: co = m 2^e with m in [1/2, 1) lies below 2^-k exactly
    when k <= -e.  Clamping co to [h_{k_top} / 2, 1/2] first, with fmin and
    fmax, keeps every sample on its side of every threshold and sends NaN
    and inf to level 0 and zero and negatives to k_top.

    A ``real`` symbol's co-modulus is even, so only the upper half-grid is
    binned: its level index is mirrored and its counts are doubled.
    """
    n = grid.size
    k_top = _level_cap(n)
    thresholds = 2.0 ** -np.arange(k_top + 1)
    angles = phi._angles(grid)
    co = np.asarray(phi.co(angles))
    if co.shape != angles.shape:
        raise GridError(f"expected {angles.size} samples, got shape {co.shape}")
    clamped = np.fmin(co, 0.5)
    del co
    np.fmax(clamped, 0.5 * thresholds[-1], out=clamped)
    # the mantissas overwrite the samples, which are read once
    exponent = np.empty(clamped.shape, dtype=np.intc)
    np.frexp(clamped, out=(clamped, exponent))
    del clamped
    level = np.negative(exponent, out=exponent).astype(np.int8)
    del exponent
    counts = np.bincount(level, minlength=k_top + 1)
    if phi.real:
        counts *= 2
    masses = np.cumsum(counts[::-1])[::-1] / n
    return LevelSets(
        grid=grid,
        thresholds=thresholds,
        level_index=phi._whole(level),
        masses=masses,
    )


def parse_symbol(spec: str) -> Symbol:
    """Build a catalog symbol from its CLI name.

    Accepted forms: ``lens:0.5``, ``half``, ``betaexp:2.0``, ``extreme``,
    ``hsx``, ``outer:<csv-file>`` (two columns: angle, modulus).
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "half":
        return half()
    if name == "extreme":
        return extreme_not_exposed()
    if name == "hsx":
        return hs_extremal()
    if name == "lens":
        return lens(float(arg))
    if name == "betaexp":
        return beta_exp(float(arg))
    if name == "outer":
        table = np.loadtxt(arg, delimiter=",", dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError(f"{arg}: expected two CSV columns angle,modulus")
        return custom_outer(table[:, 0], table[:, 1])
    raise ValueError(f"unknown symbol spec {spec!r}")
