"""Catalog of analytic self-maps of the disk and their boundary behavior.

Every symbol carries a closed-form boundary modulus and, crucially, a
closed-form *co-modulus* 1 - |phi*| evaluated without cancellation: the
catalog's interesting symbols approach the unit circle so fast that
``1 - modulus`` in floating point would lose all digits exactly where the
diagnostics look.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import TWO_PI, BoundaryGrid, BoundarySamples, make_grid
from .outer import OuterFunction

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
    """Analytic self-map of the disk with closed-form boundary data.

    ``co(t)`` is the co-modulus 1 - |phi*(e^{it})| at signed angles,
    computed cancellation-free; the modulus is 1 - co.  The map is given by
    exactly one of ``analytic``, a closed form evaluated at interior points
    and at e^{it} on the circle, and ``log_modulus(t)``, whose outer
    function (:class:`hardylab.outer.OuterFunction`) gives the trace on a
    grid and the interior values on a reference grid chosen from the radius.
    The interior evaluator of each reference size is built on first use and
    kept: its N/2 Taylor coefficients, or its refusal when the log-modulus
    is not integrable.
    """

    kind: str
    label: str
    params: tuple
    singular_angles: tuple
    co: Callable
    analytic: Optional[Callable] = None
    log_modulus: Optional[Callable] = None

    def __post_init__(self):
        if (self.analytic is None) == (self.log_modulus is None):
            raise ValueError("a Symbol needs exactly one of analytic and "
                             "log_modulus")
        # interior evaluators of an outer-type symbol, by reference size
        object.__setattr__(self, "_interior", {})

    def co_modulus_of_angle(self, t):
        """1 - |phi*(e^{it})|, computed cancellation-free."""
        return self.co(np.asarray(t, dtype=float))

    def co_modulus(self, grid: BoundaryGrid) -> BoundarySamples:
        """Samples of 1 - |phi*| at the grid angles, cancellation-free."""
        return grid.samples(self.co_modulus_of_angle(grid.signed_angles()))

    def trace(self, grid: BoundaryGrid) -> BoundarySamples:
        t = grid.signed_angles()
        if self.analytic is None:
            return OuterFunction(grid, self.log_modulus(t)).boundary()
        z = 1j * t  # e^{it} in one complex buffer
        np.exp(z, out=z)
        return grid.samples(self.analytic(z))

    def trace_of_angle(self, t):
        """Boundary trace at arbitrary angles; closed-form symbols only."""
        if self.analytic is None:
            raise NotImplementedError(
                f"symbol {self.label!r} has no closed-form trace off the grid"
            )
        return self.analytic(np.exp(1j * np.asarray(t, dtype=float)))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.analytic is not None:
            return self.analytic(z)
        n = _reference_size(float(np.max(np.abs(z), initial=0.0)))
        if n not in self._interior:
            grid = make_grid(n)
            outer = OuterFunction(grid, self.log_modulus(grid.signed_angles()))
            self._interior[n] = outer.interior()
        return self._interior[n](z)

    def __repr__(self):
        return f"Symbol({self.label})"


def lens(theta: float) -> Symbol:
    """Lens map of parameter theta in (0, 1), pinching the disk at +-1.

    lambda(z) = (1 - s)/(1 + s) with s = ((1-z)/(1+z))^theta (principal
    powers); fixes +-1 as boundary limits, lambda(0) = 0, and
    1 - |lambda*(e^{it})| behaves like |t|^theta near the contact points.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"lens parameter must be in (0, 1), got {theta}")

    def core(z):
        s = ((1.0 - z) / (1.0 + z)) ** theta
        return (1.0 - s) / (1.0 + s)

    def co_fn(t):
        xi = np.exp(1j * t)
        s = ((1.0 - xi) / (1.0 + xi)) ** theta
        # 1 - |lambda|^2 = 4 Re s / |1+s|^2; convert without cancellation
        x = 4.0 * np.real(s) / np.abs(1.0 + s) ** 2
        x = np.clip(x, 0.0, 1.0)
        return x / (1.0 + np.sqrt(1.0 - x))

    return Symbol(
        kind="lens",
        label=f"lens:{theta:g}",
        params=(theta,),
        singular_angles=(0.0, np.pi),
        co=co_fn,
        analytic=core,
    )


def half() -> Symbol:
    """The symbol phi(z) = (1+z)/2 with boundary modulus |cos(t/2)|."""
    return Symbol(
        kind="half",
        label="half",
        params=(),
        singular_angles=(0.0,),
        co=lambda t: 2.0 * np.sin(t / 4.0) ** 2,
        analytic=lambda z: (1.0 + z) / 2.0,
    )


def beta_exp(beta: float) -> Symbol:
    """Symbol exp(-U) where U is the Herglotz map of u(t) = |sin(t/2)|^beta.

    Boundary modulus exp(-|sin(t/2)|^beta) in closed form; the boundary
    argument is the conjugate function of -u.  The exact U has Re U >= 0, so
    exp(-U) maps the disk into itself.  For beta = 2, u = (1 - cos t)/2 and
    U(z) = (1 - z)/2, so the symbol is the closed form exp((z - 1)/2);
    otherwise it is the outer function of -u, whose values carry the
    aliasing of the cusp's slowly decaying spectrum on the grid used.
    """
    if not 0.0 < beta <= 2.0:
        raise ValueError(f"beta must be in (0, 2], got {beta}")

    def u_fn(t):
        return np.abs(np.sin(t / 2.0)) ** beta

    closed = beta == 2.0
    return Symbol(
        kind="betaexp",
        label=f"betaexp:{beta:g}",
        params=(beta,),
        singular_angles=(0.0,),
        co=lambda t: -np.expm1(-u_fn(t)),
        analytic=(lambda z: np.exp((z - 1.0) / 2.0)) if closed else None,
        log_modulus=None if closed else (lambda t: -u_fn(t)),
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
        log_modulus=lambda t: np.log1p(-co_fn(t)),
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
        log_modulus=lambda t: np.log1p(-co_fn(t)),
    )


def custom_outer(angles, modulus) -> Symbol:
    """Outer symbol from a table of (angle, modulus) boundary samples.

    Angles may be given in [0, 2*pi) or (-pi, pi]; the modulus is
    interpolated periodically.  Values must lie in (0, 1].
    """
    a = np.asarray(angles, dtype=float) % TWO_PI
    m = np.asarray(modulus, dtype=float)
    if a.shape != m.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need matching 1-d angle and modulus tables")
    if np.any(m <= 0.0) or np.any(m > 1.0):
        raise ValueError("custom outer modulus must have values in (0, 1]")
    order = np.argsort(a)
    a, m = a[order], m[order]
    a_ext = np.concatenate(([a[-1] - TWO_PI], a, [a[0] + TWO_PI]))
    m_ext = np.concatenate(([m[-1]], m, [m[0]]))

    def modulus_fn(t):
        return np.interp(np.asarray(t, dtype=float) % TWO_PI, a_ext, m_ext)

    return Symbol(
        kind="customouter",
        label="outer:<table>",
        params=(),
        singular_angles=(),
        co=lambda t: 1.0 - modulus_fn(t),
        log_modulus=lambda t: np.log(modulus_fn(t)),
    )


def constant(c: complex) -> Symbol:
    """Constant symbol phi ≡ c with |c| < 1; diagnostic use."""
    c = complex(c)
    if abs(c) >= 1.0:
        raise ValueError("constant symbol must lie strictly inside the disk")

    return Symbol(
        kind="const",
        label=f"const:{c.real:g}" if c.imag == 0 else f"const:{c!r}",
        params=(c,),
        singular_angles=(),
        co=lambda t: np.full_like(t, 1.0 - abs(c), dtype=float),
        analytic=lambda z: np.full_like(z, c, dtype=complex),
    )


@dataclass(frozen=True)
class LevelSets:
    """Nested boundary sets F_k = {|phi*| > 1 - h_k} with masses c_k.

    ``level_index[j]`` is the deepest k whose set contains sample j, an
    int8 array (k <= log2(N) - 2); the sets are nested by construction.
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

    def mask(self, k: int) -> np.ndarray:
        return self.level_index >= k


def level_sets(phi: Symbol, grid: BoundaryGrid) -> LevelSets:
    """Compute level-set masses of a symbol on the grid.

    Dyadic thresholds h_k = 2^{-k}, k = 0..log2(N) - 2: the resolution cap
    keeps at least four samples per resolvable set.
    """
    n = grid.size
    k_top = int(np.log2(n)) - 2
    thresholds = 2.0 ** -np.arange(k_top + 1)
    co = phi.co_modulus(grid).values
    # the h_k decrease, so co < h_k holds for k = 1..level and no further:
    # level counts the h_k (k >= 1) above co; NaN is above none
    level = np.subtract(k_top, np.searchsorted(thresholds[:0:-1], co,
                                               side="right"), dtype=np.int8)
    counts = np.bincount(level, minlength=k_top + 1)
    masses = np.cumsum(counts[::-1])[::-1] / n
    return LevelSets(
        grid=grid,
        thresholds=thresholds,
        level_index=level,
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
