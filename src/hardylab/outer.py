"""Outer functions and Herglotz integrals built from boundary data.

An outer function is reconstructed from its boundary log-modulus: the
interior values come from the Herglotz integral (quadrature of the kernel
(xi+z)/(xi-z) against log u), the boundary trace from the conjugate-function
multiplier -i*sign(k) on the discrete spectrum.  Both agree with the exact
outer function up to quadrature/aliasing error; the boundary modulus equals
the prescribed u at the grid points by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import BoundaryGrid, BoundarySamples, refined_mean

__all__ = [
    "NotLogIntegrableError",
    "HerglotzFunction",
    "OuterFunction",
    "hilbert_transform",
    "herglotz_map",
    "outer_from_modulus",
]

_EVAL_CHUNK = 256


class NotLogIntegrableError(ValueError):
    """The prescribed boundary modulus is not log-integrable."""


def hilbert_transform(values: np.ndarray) -> np.ndarray:
    """Discrete conjugate function: multiplier -i*sign(k) on the spectrum.

    The mean and the Nyquist coefficient are dropped, so the result has
    zero mean and real input gives real output.
    """
    v = np.asarray(values)
    n = v.shape[-1]
    spec = np.fft.fft(v)
    mult = np.zeros(n, dtype=complex)
    mult[1 : n // 2] = -1j
    mult[n // 2 + 1 :] = 1j
    out = np.fft.ifft(spec * mult)
    return out.real if np.isrealobj(v) else out


def _herglotz_eval(grid: BoundaryGrid, data: np.ndarray, z) -> np.ndarray:
    """Quadrature of the Herglotz kernel against real boundary data."""
    zz = np.asarray(z, dtype=complex)
    flat = zz.ravel()
    if np.any(np.abs(flat) >= 1.0):
        raise ValueError("Herglotz evaluation requires |z| < 1")
    out = np.empty(flat.shape, dtype=complex)
    pts = grid.points
    for i in range(0, flat.size, _EVAL_CHUNK):
        block = flat[i : i + _EVAL_CHUNK, None]
        kernel = (pts[None, :] + block) / (pts[None, :] - block)
        out[i : i + _EVAL_CHUNK] = (kernel * data[None, :]).mean(axis=1)
    return out.reshape(zz.shape) if zz.shape else out[0]


@dataclass(frozen=True)
class HerglotzFunction:
    """Analytic map U with Re U >= 0 built from nonnegative boundary data u.

    U(z) is the kernel quadrature of u; the boundary trace is u + i*Hu.
    Positivity of the real part is exact: it is a finite sum of Poisson
    kernel values times nonnegative samples.
    """

    grid: BoundaryGrid
    data: np.ndarray

    def __call__(self, z):
        return _herglotz_eval(self.grid, self.data, z)

    def boundary(self) -> BoundarySamples:
        return self.grid.samples(self.data + 1j * hilbert_transform(self.data))


@dataclass(frozen=True)
class OuterFunction:
    """Outer function with prescribed boundary log-modulus samples.

    ``log_divergent`` records that the log-modulus failed the
    integrability check; such an object still carries a valid boundary
    modulus (all measure-level diagnostics remain meaningful) but its
    analytic phase is unreliable and interior evaluation may degenerate.
    """

    grid: BoundaryGrid
    log_modulus: np.ndarray
    log_divergent: bool = False

    def __call__(self, z):
        return np.exp(_herglotz_eval(self.grid, self.log_modulus, z))

    def boundary_modulus(self) -> BoundarySamples:
        return self.grid.samples(np.exp(self.log_modulus))

    def boundary(self) -> BoundarySamples:
        if self.log_divergent:
            # No analytic completion exists; return the modulus with flat
            # phase, which every |w|-only diagnostic treats identically.
            return self.boundary_modulus()
        phase = hilbert_transform(self.log_modulus)
        return self.grid.samples(np.exp(self.log_modulus + 1j * phase))


def herglotz_map(u: BoundarySamples) -> HerglotzFunction:
    """Analytic map of the disk into {Re >= 0} from nonnegative samples."""
    data = np.asarray(u.values, dtype=float)
    if np.any(data < 0):
        raise ValueError("herglotz_map expects nonnegative real samples")
    return HerglotzFunction(u.grid, data)


def outer_from_modulus(u: BoundarySamples, strict: bool = True) -> OuterFunction:
    """Outer function with |w*| = u at the grid points.

    With ``strict`` (default) a modulus whose log fails the divergence rule
    of :func:`hardylab.grid.refined_mean` raises
    :class:`NotLogIntegrableError`; otherwise the divergence is recorded on
    the result.
    """
    vals = np.asarray(u.values, dtype=float)
    if np.any(vals < 0) or np.any(~np.isfinite(vals)):
        raise ValueError("modulus samples must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        logs = np.log(vals)
    divergent = refined_mean(logs).divergent
    if divergent and strict:
        raise NotLogIntegrableError("not log-integrable")
    return OuterFunction(u.grid, logs, log_divergent=divergent)
