"""Outer functions: the one analytic completion of boundary log-data.

An :class:`OuterFunction` is the only object built from real boundary
log-modulus samples u on an N-point grid.  It is f = exp(U), U the Herglotz
function of u: the boundary trace of U is u + i*Hu, with H the
conjugate-function multiplier -i*sign(k) on the discrete spectrum, and the
interior value is the Taylor series of that same trace,
U(z) = c_0 + 2 sum_{0<k<N/2} c_k z^k, with c_k the DFT coefficients of u.
This is the Poisson integral of the trigonometric interpolant of u (its
Nyquist term dropped), so interior values meet the trace as |z| -> 1.  It
differs from the transform of the function that was sampled by the aliasing
of the c_k and by the tail k >= N/2 of the exact series.  The boundary
modulus of f equals exp(u) at the grid points.

Whether u is integrable decides whether f exists.  The verdict is
``OuterFunction.log_divergent``, and a divergent outer function keeps its
modulus (trace with flat phase) but refuses interior values.  Refusing to
build one has one error, :class:`NotLogIntegrableError`, raised in two
places: :func:`outer_from_modulus` always, and
:func:`hardylab.weights.parse_weight` when ``strict``.  Weight recipes never
refuse; their weights carry the verdict.

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
    "OuterFunction",
    "outer_from_modulus",
]


class NotLogIntegrableError(ValueError):
    """The prescribed boundary modulus is not log-integrable."""


def _hilbert_transform(values: np.ndarray) -> np.ndarray:
    """Discrete conjugate function of real samples: multiplier -i*sign(k)
    on the spectrum, with the mean and, for even N, the Nyquist coefficient
    dropped, so the result is real with zero mean."""
    n = len(values)
    spec = np.fft.rfft(values)
    spec[0] = 0.0
    if n % 2 == 0:
        spec[-1] = 0.0
    spec *= -1j
    return np.fft.irfft(spec, n)


def _taylor_series(blocks: np.ndarray, z):
    """The power series with coefficients ``blocks.ravel()`` at |z| < 1,
    by Horner's rule in z^B over the Q rows of B coefficients."""
    zz = np.asarray(z, dtype=complex)
    if np.any(np.abs(zz) >= 1.0):
        raise ValueError("interior evaluation requires |z| < 1")
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
class OuterFunction:
    """Outer function exp(U), U the Herglotz function of log-modulus samples.

    ``log_divergent`` is the verdict of :func:`hardylab.grid.refined_mean` on
    the log-modulus, computed once on first use.  A divergent log-modulus
    still gives a valid boundary modulus (all measure-level diagnostics
    remain meaningful), but no analytic function has it: interior
    evaluation is refused and the boundary trace is the modulus with flat
    phase.  Interior values sum the Taylor series of U by Horner's rule in
    z^B over blocks of B coefficients.
    """

    grid: BoundaryGrid
    log_modulus: np.ndarray

    @cached_property
    def log_divergent(self) -> bool:
        return refined_mean(self.log_modulus).divergent

    @cached_property
    def _blocks(self) -> np.ndarray:
        """c_0, 2c_1, ..., 2c_{N/2-1} of U as Q rows of B = 2^floor(log2(N)/2)."""
        n = int(self.grid.size)
        c = coefficients_from_fft(np.fft.rfft(self.log_modulus), n // 2 - 1, n)
        c[1:] *= 2.0
        return c.reshape(-1, 1 << (n.bit_length() - 1) // 2)

    def interior(self) -> Callable:
        """The evaluator z -> exp(U(z)).  It holds the N/2 Taylor
        coefficients of U and neither the grid nor the samples, and it
        refuses every call when the log-modulus is not integrable."""
        if self.log_divergent:
            return _refuse_interior
        blocks = self._blocks
        return lambda z: np.exp(_taylor_series(blocks, z))

    def __call__(self, z):
        return self.interior()(z)

    def boundary_modulus(self) -> BoundarySamples:
        return self.grid.samples(np.exp(self.log_modulus))

    def boundary(self) -> BoundarySamples:
        """exp(u + i*Hu); the modulus with flat phase when divergent, which
        every |w|-only diagnostic treats identically."""
        if self.log_divergent:
            return self.boundary_modulus()
        u = self.log_modulus
        return self.grid.samples(np.exp(u + 1j * _hilbert_transform(u)))


def outer_from_modulus(u: BoundarySamples) -> OuterFunction:
    """Outer function with |w*| = u at the grid points.

    Raises :class:`NotLogIntegrableError` when log u is not integrable.
    """
    vals = np.asarray(u.values, dtype=float)
    if np.any(vals < 0) or np.any(~np.isfinite(vals)):
        raise ValueError("modulus samples must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        outer = OuterFunction(u.grid, np.log(vals))
    if outer.log_divergent:
        raise NotLogIntegrableError("not log-integrable")
    return outer
