"""Uniform circle sampling, spectral quadrature and Taylor coefficients.

The grid uses half-step offset angles t_j = 2*pi*(j + 1/2)/N, so no sample
ever lands on t = 0 or t = pi.  Boundary data with singularities at the
contact angles therefore stays finite without special casing, and kinks
sitting exactly between two samples integrate with one extra order of
accuracy.

A grid holds only its size.  Its angles, signed angles and points are
computed on each access, and every access returns a new, writable array.

The signed angles are exactly antisymmetric: the upper half t_j in (0, pi)
is written once, and the lower half is its negation, reversed, so
t_{N-1-j} = -t_j bit for bit.  Taking 2 pi off t_j instead would leave a
relative error of up to 4e-11 next to t = 0 at N = 2^20, where the
diagnostics look.  A symbol with real Taylor coefficients has
phi(conj z) = conj phi(z), so its samples at -t_j are those at t_j,
conjugated for a trace; it is evaluated on the upper half and mirrored
(:func:`_mirror`).  The other angles the library makes move between the
two ranges by one masked shift of 2 pi, not by a float modulo:
:func:`hardylab.carleson.pullback_graded` takes 2 pi off where an angle
passes pi, and :class:`hardylab.carleson.PullbackMeasure` adds it where
``np.angle`` is negative.  Only :func:`hardylab.symbols.custom_outer`
reduces by a modulo: its table angles, which may be anything, once when
the table is built, and the angles it is read at on each call.  A point
r e^{it} is built from cos t and sin t in one complex buffer
(:func:`_polar`), not by a complex exponential.

Work done by blocks (the Krylov and moment blocks of the matrix route, the
Horner blocks of an outer function, the segments of the pruned Carleson
sweep) takes B = 2^floor(log2(count)/2) from one rule, :func:`_block_size`,
and dyadic levels stop at log2(N) - 2 by another, :func:`_level_cap`.  A
size, cut or level setting is an integer by a third, :func:`_is_integer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "BoundaryGrid",
    "BoundarySamples",
    "GridError",
    "IntegralResult",
    "make_grid",
    "coefficients_from_fft",
    "log_integral",
    "refined_mean",
]

TWO_PI = 2.0 * np.pi

# Divergence rule of refined_mean: a mean of |v| beyond the cap, or a drift
# between the full grid and its stride-2/4 sub-grids beyond this fraction of
# the integrand's scale, counts as divergent.
MAGNITUDE_CAP = 1e6
DRIFT_TOL = 0.03


def _is_integer(x) -> bool:
    """Whether a setting is an integer: an ``int`` or a numpy integer."""
    return isinstance(x, (int, np.integer))


def _block_size(count: int) -> int:
    """Largest power of two at most sqrt(count), the one block rule."""
    return 1 << (int(count).bit_length() - 1) // 2


def _level_cap(n: int) -> int:
    """log2(N) - 2, the deepest dyadic level an N-point grid resolves with
    four samples per set."""
    return int(n).bit_length() - 3


def _polar(arg, modulus=None) -> np.ndarray:
    """modulus e^{i arg} for real arrays (e^{i arg} without a modulus),
    built from cos arg and sin arg in one complex buffer."""
    z = np.empty(np.shape(arg), dtype=complex)
    re, im = z.real, z.imag
    np.cos(arg, out=re)
    np.sin(arg, out=im)
    if modulus is not None:
        re *= modulus
        im *= modulus
    return z


def _mirror(half: np.ndarray, conj: bool = False) -> np.ndarray:
    """The samples on the whole grid of a function even in t (conjugate-even
    with ``conj``) from its samples ``half`` on the upper half-grid: sample
    N - 1 - j is sample j, conjugated with ``conj``."""
    m = half.shape[0]
    out = np.empty(2 * m, dtype=half.dtype)
    out[:m] = half
    if conj:
        np.conjugate(half[::-1], out=out[m:])
    else:
        out[m:] = half[::-1]
    return out


def _constant(values):
    """The one value of a zero-stride array (one broadcast constant), as a
    one-element view; None for any other array."""
    return values[:1] if values.size and values.strides == (0,) else None


class GridError(ValueError):
    """Invalid grid size or an aliasing-guard violation."""


class IntegralResult(NamedTuple):
    """Value of a boundary integral together with a divergence verdict."""

    value: float
    divergent: bool


@dataclass(frozen=True)
class BoundaryGrid:
    """Half-step offset uniform grid on the circle with normalized measure.

    The grid holds only its size, so grids of one size compare equal and
    hash alike.  ``angles``, ``signed_angles()`` and ``points`` build a new,
    writable array on each access; a caller that reads one often keeps it.
    """

    size: int

    def _angles(self, count: int) -> np.ndarray:
        """t_0..t_{count-1}, t_j = 2 pi (j + 1/2) / N, in one buffer."""
        t = np.arange(0.5, count)
        t *= TWO_PI
        t /= self.size
        return t

    @property
    def angles(self) -> np.ndarray:
        """t_j = 2 pi (j + 1/2) / N in [0, 2 pi), built in one buffer."""
        return self._angles(self.size)

    def _upper_angles(self) -> np.ndarray:
        """The upper half-grid t_0..t_{N/2-1} in (0, pi), the first half
        of ``angles`` and of ``signed_angles()`` bit for bit."""
        return self._angles(self.size // 2)

    @property
    def points(self) -> np.ndarray:
        """The grid points e^{i t_j}, built in one complex buffer."""
        return _polar(self.angles)

    def signed_angles(self) -> np.ndarray:
        """Angles mapped to (-pi, pi); |t| measures distance to angle 0.

        The first N/2 angles lie in (0, pi) and are kept.  The last N/2 are
        their negatives, reversed, written in place, so the signed angles
        are exactly antisymmetric, t_{N-1-j} = -t_j.  Near t = 0- this is
        -2 pi (N - j - 1/2) / N to within 1 ulp, where taking 2 pi off t_j
        would cancel most of its digits.
        """
        t = self.angles
        h = self.size // 2
        np.negative(t[:h][::-1], out=t[h:])
        return t

    def samples(self, values) -> "BoundarySamples":
        return BoundarySamples(self, values)


@dataclass(frozen=True)
class BoundarySamples:
    """Samples of a boundary function at the grid points."""

    grid: BoundaryGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.size,):
            raise GridError(
                f"expected {self.grid.size} samples, got shape {v.shape}"
            )
        object.__setattr__(self, "values", v)


def make_grid(n: int) -> BoundaryGrid:
    """The N-point offset grid; N must be a power of two, N >= 8.

    The grid holds only N; see :class:`BoundaryGrid` for its arrays.
    """
    if not (_is_integer(n) and n >= 8 and (n & (n - 1)) == 0):
        raise GridError(f"grid size must be a power of two >= 8, got {n!r}")
    return BoundaryGrid(int(n))


def coefficients_from_fft(spectrum: np.ndarray, m: int, n: int) -> np.ndarray:
    """c_0..c_m from the FFT (or rfft) of N samples on the offset grid
    (no guard)."""
    return spectrum[: m + 1] / n * _polar(-np.pi * np.arange(m + 1) / n)


def refined_mean(values) -> IntegralResult:
    """Grid mean of ``values`` with the drift-under-refinement divergence rule.

    The stride-2 and stride-4 subsets are themselves uniform quadrature
    rules; a mean that moves between them by more than DRIFT_TOL of
    max(|mean|, mean |v|) fails to stabilize under refinement.  Drift is
    measured against the L1 mass so a zero-mean integrand (e.g. the
    log-modulus of a monic outer function) is not "unstable".  Non-finite
    samples and a mean |v| beyond MAGNITUDE_CAP are divergent outright.
    A zero-stride array (one broadcast constant) is read from its one value,
    with no temporary: it is divergent only when that value is non-finite or
    beyond the cap.
    """
    v = np.asarray(values, dtype=float)
    one = _constant(v)
    if one is not None:
        x = float(one[0])
        return IntegralResult(x, not abs(x) <= MAGNITUDE_CAP)
    with np.errstate(invalid="ignore", over="ignore"):
        mean = float(np.mean(v))
        mass = float(np.mean(np.abs(v)))
    # mean |v| is finite exactly when every sample is
    if not np.isfinite(mass) or mass > MAGNITUDE_CAP:
        return IntegralResult(mean, True)
    scale = max(abs(mean), mass, 1e-12)
    drift = max(abs(mean - float(np.mean(v[::s]))) for s in (2, 4))
    return IntegralResult(mean, bool(drift > DRIFT_TOL * scale))


def _log_modulus(values) -> np.ndarray:
    """log u in a new array; a subnormal sample has underflowed and reads as
    the 0 it stands for, log 0 = -inf."""
    v = np.where(values < np.finfo(float).tiny, 0.0, values)
    with np.errstate(divide="ignore"):
        return np.log(v, out=v)


def log_integral(u: BoundarySamples) -> IntegralResult:
    """Integral of log u over the circle for u with values in [0, 1].

    The verdict is :func:`refined_mean` on log u (:func:`_log_modulus`), the
    rule of :func:`hardylab.outer.outer_from_modulus`.  Divergence is a
    return state, not an error: a zero or subnormal sample returns
    (-inf, divergent), a NaN sample is divergent.
    """
    v = np.asarray(u.values, dtype=float)
    if np.any(v < 0.0) or np.any(v > 1.0 + 1e-9):
        raise ValueError("log_integral expects values in [0, 1]")
    return refined_mean(_log_modulus(np.minimum(v, 1.0)))
