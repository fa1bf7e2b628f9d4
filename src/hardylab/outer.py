"""Outer functions and Herglotz transforms built from boundary data.

One rule turns real boundary samples u on an N-point grid into an analytic
function U with Re U* = u: the boundary trace is u + i*Hu, with H the
conjugate-function multiplier -i*sign(k) on the discrete spectrum, and the
interior value is the Taylor series of that same trace,
U(z) = c_0 + 2 sum_{0<k<N/2} c_k z^k, with c_k the DFT coefficients of u.
This is the Poisson integral of the trigonometric interpolant of u (its
Nyquist term dropped), so interior values meet the trace as |z| -> 1.  It
differs from the transform of the function that was sampled by the aliasing
of the c_k and by the tail k >= N/2 of the exact series.  An outer function
is exp(U) with u its log-modulus; its boundary modulus equals the
prescribed one at the grid points.

The data are real, so every transform here is a real FFT: H u is
irfft(-i*sign(k) * rfft(u), N), and c_0..c_{N/2-1} are read from rfft(u).
The spectrum of real data is conjugate-symmetric, so the half that rfft
keeps determines it; that is half the work and memory of a complex FFT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import BoundaryGrid, BoundarySamples, coefficients_from_fft, refined_mean

__all__ = [
    "NotLogIntegrableError",
    "HerglotzFunction",
    "OuterFunction",
    "hilbert_transform",
    "herglotz_map",
    "outer_from_modulus",
]


class NotLogIntegrableError(ValueError):
    """The prescribed boundary modulus is not log-integrable."""


def hilbert_transform(values: np.ndarray) -> np.ndarray:
    """Discrete conjugate function: multiplier -i*sign(k) on the spectrum.

    The mean and, for even N, the Nyquist coefficient are dropped, so the
    result has zero mean and real input gives real output.  Complex input
    is transformed as H(Re v) + i*H(Im v).
    """
    v = np.asarray(values)
    if np.iscomplexobj(v):
        return hilbert_transform(v.real) + 1j * hilbert_transform(v.imag)
    n = v.shape[-1]
    spec = np.fft.rfft(v)
    spec[..., 0] = 0.0
    if n % 2 == 0:
        spec[..., -1] = 0.0
    spec *= -1j
    return np.fft.irfft(spec, n)


def _taylor_series(blocks: np.ndarray, z):
    """The power series with coefficients ``blocks.ravel()`` at |z| < 1,
    by Horner's rule in z^B over the Q rows of B coefficients."""
    zz = np.asarray(z, dtype=complex)
    if np.any(np.abs(zz) >= 1.0):
        raise ValueError("Herglotz evaluation requires |z| < 1")
    b = blocks.shape[1]
    flat = zz.ravel()
    out = np.empty(flat.shape, dtype=complex)
    # B points at a time, so no temporary outgrows the coefficients
    for i in range(0, flat.size, b):
        p = flat[i : i + b, None]
        powers = np.cumprod(np.broadcast_to(p, (p.size, b)), axis=1)
        sums = blocks[:, 0] + powers[:, :-1] @ blocks[:, 1:].T
        acc = sums[:, -1]
        for q in range(blocks.shape[0] - 2, -1, -1):
            acc = acc * powers[:, -1] + sums[:, q]
        out[i : i + b] = acc
    return out.reshape(zz.shape) if zz.shape else out[0]


def _refuse_interior(z):
    raise NotLogIntegrableError(
        "no interior values: the log-modulus is not integrable")


@dataclass(frozen=True)
class HerglotzFunction:
    """Analytic map U with Re U* = data, built from real boundary samples.

    The boundary trace is data + i*H data.  The interior value is the Taylor
    series of that trace, c_0 + 2 sum_{0<k<N/2} c_k z^k, summed by Horner's
    rule in z^B over blocks of B coefficients.  Re U(z) is the Poisson
    integral of the trigonometric interpolant of the data, not of the
    samples, so nonnegative data give Re U >= 0 only as far as the
    interpolant does not undershoot between samples.
    """

    grid: BoundaryGrid
    data: np.ndarray

    @cached_property
    def _blocks(self) -> np.ndarray:
        """c_0, 2c_1, ..., 2c_{N/2-1} as Q rows of B = 2^floor(log2(N)/2)."""
        n = int(self.grid.size)
        c = coefficients_from_fft(np.fft.rfft(self.data), n // 2 - 1, n)
        c[1:] *= 2.0
        return c.reshape(-1, 1 << (n.bit_length() - 1) // 2)

    def __call__(self, z):
        return _taylor_series(self._blocks, z)

    def boundary(self) -> BoundarySamples:
        return self.grid.samples(self.data + 1j * hilbert_transform(self.data))


@dataclass(frozen=True)
class OuterFunction:
    """Outer function exp(U), U the Herglotz function of log-modulus samples.

    ``log_divergent`` is the verdict of :func:`hardylab.grid.refined_mean` on
    the log-modulus, computed once on first use.  A divergent log-modulus
    still gives a valid boundary modulus (all measure-level diagnostics
    remain meaningful), but no analytic function has it: interior
    evaluation is refused and the boundary trace is the modulus with flat
    phase.
    """

    grid: BoundaryGrid
    log_modulus: np.ndarray

    @cached_property
    def log_divergent(self) -> bool:
        return refined_mean(self.log_modulus).divergent

    @cached_property
    def _herglotz(self) -> HerglotzFunction:
        return HerglotzFunction(self.grid, self.log_modulus)

    def interior(self) -> Callable:
        """The evaluator z -> exp(U(z)).  It holds the N/2 Taylor
        coefficients of U and neither the grid nor the samples, and it
        refuses every call when the log-modulus is not integrable."""
        if self.log_divergent:
            return _refuse_interior
        blocks = self._herglotz._blocks
        return lambda z: np.exp(_taylor_series(blocks, z))

    def __call__(self, z):
        return self.interior()(z)

    def boundary_modulus(self) -> BoundarySamples:
        return self.grid.samples(np.exp(self.log_modulus))

    def boundary(self) -> BoundarySamples:
        if self.log_divergent:
            # No analytic completion exists; return the modulus with flat
            # phase, which every |w|-only diagnostic treats identically.
            return self.boundary_modulus()
        return self.grid.samples(np.exp(self._herglotz.boundary().values))


def herglotz_map(u: BoundarySamples) -> HerglotzFunction:
    """Herglotz function of nonnegative samples.

    It maps the disk into {Re >= 0} as far as the samples' trigonometric
    interpolant stays nonnegative.
    """
    data = np.asarray(u.values, dtype=float)
    if np.any(data < 0):
        raise ValueError("herglotz_map expects nonnegative real samples")
    return HerglotzFunction(u.grid, data)


def outer_from_modulus(u: BoundarySamples, strict: bool = True) -> OuterFunction:
    """Outer function with |w*| = u at the grid points.

    With ``strict`` (default) a modulus whose log is not integrable raises
    :class:`NotLogIntegrableError`; otherwise the result carries the verdict
    as ``log_divergent``.
    """
    vals = np.asarray(u.values, dtype=float)
    if np.any(vals < 0) or np.any(~np.isfinite(vals)):
        raise ValueError("modulus samples must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        outer = OuterFunction(u.grid, np.log(vals))
    if strict and outer.log_divergent:
        raise NotLogIntegrableError("not log-integrable")
    return outer
