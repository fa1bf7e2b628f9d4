"""Truncated matrices of weighted composition operators and their spectra.

Two routes to the singular values:

* ``operator_matrix`` + ``singular_values``: the coefficient matrix of
  f -> w (f o phi) in the monomial basis, a Krylov matrix of the analytic
  Toeplitz operator T_phi (Cowen-MacCluer): column n+1 is T_phi applied to
  column n, starting from the coefficients of w.  Built from the first R
  Taylor coefficients of the (analytic) traces of w and phi, independent
  of N, and stable since ||T_phi|| <= ||phi||_inf <= 1.  Doubly
  truncated; every experiment stamps it with a truncation study.
* ``embedding_spectrum``: the weighted composition operator has the same
  singular numbers as the embedding of H^2 into L^2 of the pull-back
  measure, whose Gram matrix against an atomic measure is the closed-form
  reproducing-kernel matrix sqrt(m_i m_j)/(1 - z_i conj(z_j)).  No row or
  column truncation at all; the only parameters are the atoms themselves.
  This is the route that resolves stretched-exponential decay at desk
  scale.  The Gram is never formed: the Schur complement of the Szego
  kernel at a pivot a is the kernel times b_a(z) conj(b_a(w)), b_a the
  Blaschke factor at a, so a diagonally pivoted Cholesky runs on the n
  generators in O(n r) time and memory and stops once the residual trace
  falls below the floor; one SVD of the n x r factor follows, with an
  absolute error ~eps s_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import (BoundarySamples, GridError, IntegralResult,
                   coefficients_from_fft, refined_mean)
from .carleson import PullbackMeasure, Series

__all__ = [
    "OperatorMatrix",
    "SingularSpectrum",
    "DecayFit",
    "ColumnNorms",
    "SchattenEstimate",
    "TruncationStudy",
    "operator_matrix",
    "singular_values",
    "embedding_spectrum",
    "hs_norm_boundary",
    "moment_integral",
    "schatten_estimate",
    "column_pnorms",
    "decay_fit",
    "truncation_study",
]

# Matrix-route analyticity guard: a trace with more than this share of its
# energy at negative frequencies is not the trace of an analytic function.
ANALYTIC_NEGATIVE_SHARE = 1e-2

# decay_fit: skip the transient head, drop values at the noise floor,
# refuse fits with large log-log residual.
FIT_SKIP = 8
FIT_FLOOR = 1e-12
FIT_MIN_WINDOW = 16
FIT_MAX_RESIDUAL = 0.5

# Truncation study: a relative change of s_n above this between consecutive
# cuts marks the index as not yet converged.
STUDY_TOL = 0.01

# Gram-route guard.
KERNEL_RELATIVE_FLOOR = 2e-8


@dataclass(frozen=True)
class OperatorMatrix:
    """Coefficient matrix: entry (m, n) = m-th coefficient of w (phi*)^n."""

    entries: np.ndarray
    row_cut: int
    col_cut: int
    grid_size: int

    def frobenius_sq(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2))


@dataclass(frozen=True)
class SingularSpectrum:
    """Nonincreasing singular values with truncation metadata."""

    values: np.ndarray
    row_cut: int
    col_cut: int
    grid_size: int
    source: str = "matrix"
    floor: float = FIT_FLOOR

    def __len__(self):
        return len(self.values)


def _analytic_head(trace: BoundarySamples, rows: int, name: str) -> np.ndarray:
    """First ``rows`` Taylor coefficients; refuses a non-analytic trace."""
    spectrum = np.fft.fft(trace.values)
    negative = spectrum[trace.grid.size // 2 + 1:]
    total = np.vdot(spectrum, spectrum).real
    share = np.vdot(negative, negative).real / total if total > 0 else 0.0
    if share > ANALYTIC_NEGATIVE_SHARE:
        raise GridError(
            f"{name} trace is not analytic: {share:.3g} of its energy lies at "
            f"negative frequencies (limit {ANALYTIC_NEGATIVE_SHARE:g})"
        )
    return coefficients_from_fft(spectrum, rows - 1, trace.grid.size)


def operator_matrix(wtrace: BoundarySamples, phitrace: BoundarySamples,
                    row_cut: int, col_cut: int) -> OperatorMatrix:
    """Truncated matrix of f -> w (f o phi) in the monomial basis.

    Column n holds the first R = row_cut+1 coefficients of w phi^n, from
    the Toeplitz-Krylov recursion col_0 = w[:R], col_{n+1} = T col_n with T
    the R x R lower-triangular Toeplitz matrix of phi[:R].  This is exact
    for the truncation (the first R coefficients of a product depend only
    on the first R of each factor), and stable: T is a compression of
    T_phi, so ||T|| <= ||phi||_inf <= 1.  Cost after one FFT per trace:
    O(col_cut R^2), independent of N.

    Both traces must be analytic: one with more than 1% of its energy at
    negative frequencies (e.g. the flat-phase trace of a log-divergent
    weight) raises GridError.  Cuts at or beyond N/4 are rejected; the
    guard keeps the coefficients of w and phi clear of aliasing.
    """
    if wtrace.grid is not phitrace.grid and wtrace.grid.size != phitrace.grid.size:
        raise GridError("traces must share a grid")
    n = wtrace.grid.size
    if row_cut >= n // 4 or col_cut >= n // 4:
        raise GridError(f"cuts must stay below N/4 = {n // 4}")
    k = np.arange(row_cut + 1)
    phi = _analytic_head(phitrace, row_cut + 1, "symbol")
    toeplitz = np.tril(phi[k[:, None] - k])
    entries = np.empty((row_cut + 1, col_cut + 1), dtype=complex)
    entries[:, 0] = _analytic_head(wtrace, row_cut + 1, "weight")
    for col in range(col_cut):
        entries[:, col + 1] = toeplitz @ entries[:, col]
    return OperatorMatrix(entries=entries, row_cut=row_cut, col_cut=col_cut,
                          grid_size=n)


def singular_values(a: OperatorMatrix) -> SingularSpectrum:
    """Full singular value list of the truncated matrix, nonincreasing."""
    vals = np.linalg.svd(a.entries, compute_uv=False)
    return SingularSpectrum(values=vals, row_cut=a.row_cut, col_cut=a.col_cut,
                            grid_size=a.grid_size, source="matrix",
                            floor=FIT_FLOOR)


def embedding_spectrum(mu: PullbackMeasure) -> SingularSpectrum:
    """Singular values of the embedding of H^2 into L^2 of an atomic measure.

    These are the singular values of any factor L with L L* = G, the Gram
    matrix G_ij = g_i conj(g_j) K(z_i, z_j) of the Szego kernel
    K(z, w) = 1/(1 - z conj(w)) on the interior atoms, g_i = sqrt(m_i).
    Exact in the atoms, no basis truncation; G itself is never formed.

    L comes from a diagonally pivoted Cholesky run on the generators g.  The
    Schur complement of K at a pivot a is again a kernel of the same shape,

        K(z, w) - K(z, a) K(a, w) / K(a, a) = b_a(z) conj(b_a(w)) K(z, w),

    with the Blaschke factor b_a(z) = (z - a)/(1 - conj(a) z), so one
    elimination step is g_i <- g_i b_a(z_i) and no L L* is subtracted.  Each
    step pivots on the atom p with the largest residual diagonal
    d_i = |g_i|^2/(1 - |z_i|^2) and appends the column
    g_i conj(g_p) K(z_i, z_p)/sqrt(d_p).  It stops once sum d <= floor^2,
    floor = max(FIT_FLOOR, sqrt(max d) KERNEL_RELATIVE_FLOOR) on the initial
    diagonal.  The residual is positive semidefinite with trace sum d, so
    every singular value left out lies below that floor, itself at or below
    the reported one since s_1^2 >= max d, and sum s_n^2 misses
    trace G = sum m/(1 - |z|^2) by at most floor^2.  One SVD of the n x r
    factor gives the r returned values to an absolute error ~eps s_1.
    Time and memory are O(n r).

    Atoms on the unit circle are excluded (the embedding is unbounded
    against boundary mass); their total mass is expected to be zero for the
    measures this is used on.  Interior atoms with 1 - |z|^2 below
    eps/KERNEL_RELATIVE_FLOOR are refused: there the rounding of |z| alone
    moves the kernel diagonal by more than the route's floor.
    """
    interior = mu.radii < 1.0
    z = mu.locations[interior]
    r = mu.radii[interior]
    co = (1.0 - r) * (1.0 + r)
    limit = np.finfo(float).eps / KERNEL_RELATIVE_FLOOR
    lost = co < limit
    if np.any(lost):
        raise ValueError(
            f"{int(lost.sum())} atoms have 1 - |z|^2 below {limit:.3g} "
            f"(smallest {float(co.min()):.3g}), where rounding |z| costs more "
            "than the kernel-route floor; use a coarser discretization near "
            "the contact points"
        )
    g = np.sqrt(mu.masses[interior]).astype(complex)
    d = mu.masses[interior] / co
    top = float(d.max()) if d.size else 0.0
    stop = max(FIT_FLOOR, np.sqrt(top) * KERNEL_RELATIVE_FLOOR) ** 2
    rows = []
    while d.sum() > stop:
        p = int(np.argmax(d))
        a = z[p]
        kernel = 1.0 / (1.0 - z * np.conj(a))
        rows.append(g * np.conj(g[p]) * kernel / np.sqrt(d[p]))
        g = g * (z - a) * kernel  # b_a(a) = 0 retires the pivot exactly
        d = (g.real**2 + g.imag**2) / co
    vals = np.linalg.svd(np.array(rows), compute_uv=False) if rows else np.zeros(0)
    floor = max(FIT_FLOOR, float(vals[0]) * KERNEL_RELATIVE_FLOOR) if vals.size else FIT_FLOOR
    return SingularSpectrum(values=vals, row_cut=-1, col_cut=z.size - 1,
                            grid_size=z.size, source="kernel", floor=floor)


def _one_minus_mod_sq(phitrace: BoundarySamples, phi_co) -> np.ndarray:
    """1 - |phi*|^2, preferring a cancellation-free co-modulus when given."""
    if phi_co is not None:
        co = np.asarray(
            phi_co.values if isinstance(phi_co, BoundarySamples) else phi_co,
            dtype=float,
        )
        return co * (2.0 - co)
    mod = np.abs(np.asarray(phitrace.values))
    return 1.0 - mod**2


def hs_norm_boundary(wtrace: BoundarySamples, phitrace: BoundarySamples,
                     phi_co=None) -> IntegralResult:
    """Quadrature of |w*|^2/(1 - |phi*|^2): the Hilbert-Schmidt norm squared.

    Equals the sum over n of the squared norms of the images of the
    monomials; this is ``moment_integral`` at alpha = 1.
    """
    return moment_integral(wtrace, phitrace, 1.0, phi_co=phi_co)


def moment_integral(wtrace: BoundarySamples, phitrace: BoundarySamples,
                    alpha: float, phi_co=None) -> IntegralResult:
    """Quadrature of |w*|^2 (1 - |phi*|^2)^{-alpha}, with the divergence rule
    of :func:`hardylab.grid.refined_mean`.

    ``phi_co`` (samples of 1 - |phi*|) avoids cancellation for symbols
    hugging the circle; dividing by base**alpha (not multiplying by
    base**-alpha) keeps subnormal bases finite.  Divergence is a return state.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    dens = np.abs(np.asarray(wtrace.values)) ** 2
    base = _one_minus_mod_sq(phitrace, phi_co)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(base > 0.0, dens / base**alpha, np.inf)
    if np.any(~np.isfinite(integrand) & (dens > 0.0)):
        return IntegralResult(float("inf"), True)
    integrand = np.where(np.isfinite(integrand), integrand, 0.0)
    return refined_mean(integrand)


class SchattenEstimate(NamedTuple):
    value: float
    series: Series  # sum s_n^p over n = 1..len(spectrum)


def schatten_estimate(spectrum: SingularSpectrum, p: float) -> SchattenEstimate:
    """(sum s_n^p)^{1/p} over the truncation, with the series it sums.

    Membership in S_p can be asserted from this truncation only when the
    series verdict reads "converging"; the tail exponent says why it does
    or does not.
    """
    if p <= 0:
        raise ValueError("Schatten exponent must be positive")
    s = spectrum.values
    series = Series(np.arange(1, len(s) + 1), s.astype(float) ** p)
    return SchattenEstimate(series.total ** (1.0 / p), series)


@dataclass(frozen=True)
class ColumnNorms:
    """H^p norms of the monomial images w (phi*)^n, n = 0..n_max."""

    p: float
    norms: np.ndarray

    @property
    def total(self) -> float:
        return float(self.norms.sum())


def column_pnorms(wtrace: BoundarySamples, phitrace: BoundarySamples,
                  p: float, n_max: int) -> ColumnNorms:
    """Norms ||w (phi*)^n||_p = (quadrature |w*|^p |phi*|^{pn})^{1/p}."""
    if p < 1:
        raise ValueError("Hardy exponent must be >= 1")
    wp = np.abs(np.asarray(wtrace.values)) ** p
    phip = np.abs(np.asarray(phitrace.values)) ** p
    norms = np.empty(n_max + 1)
    g = wp.copy()
    for n in range(n_max + 1):
        norms[n] = float(np.mean(g)) ** (1.0 / p)
        if n < n_max:
            g *= phip
    return ColumnNorms(p=p, norms=norms)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of s_n ~ exp(-b n^gamma) in log-log coordinates."""

    b: float
    gamma: float
    residual: float
    window: tuple
    ok: bool


def decay_fit(spectrum: SingularSpectrum) -> DecayFit:
    """Fit log log(1/s_n) against log n over a window of indices (1-based).

    The window drops the first FIT_SKIP indices (transient) and ends at the
    last index above the spectrum's noise floor; values at or above 1 are
    left out.  A fit with log-log RMS residual above FIT_MAX_RESIDUAL, or
    fewer than FIT_MIN_WINDOW points, is returned as not ok ("unfittable").
    """
    s = spectrum.values
    idx = np.arange(1, len(s) + 1)
    floor = spectrum.floor
    lo = FIT_SKIP + 1
    above = idx[s > floor]
    hi = int(above[-1]) if len(above) else 0
    mask = (idx >= lo) & (idx <= hi) & (s > floor) & (s < 1.0)
    bad = DecayFit(b=float("nan"), gamma=float("nan"), residual=float("inf"),
                   window=(lo, hi), ok=False)
    if mask.sum() < FIT_MIN_WINDOW:
        return bad
    x = np.log(idx[mask].astype(float))
    y = np.log(np.log(1.0 / s[mask]))
    gamma, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((gamma * x + intercept - y) ** 2)))
    if residual > FIT_MAX_RESIDUAL:
        return DecayFit(b=float(np.exp(intercept)), gamma=float(gamma),
                        residual=residual, window=(lo, hi), ok=False)
    return DecayFit(b=float(np.exp(intercept)), gamma=float(gamma),
                    residual=residual, window=(lo, hi), ok=True)


@dataclass(frozen=True)
class TruncationStudy:
    """Per-index relative change of s_n between consecutive cuts.

    An index counts as converged while its change stays below STUDY_TOL.
    """

    cuts: tuple
    spectra: tuple
    changes: tuple  # one array per consecutive pair

    def stable_through(self, count: int) -> bool:
        """True when s_1..s_count moved less than STUDY_TOL at every doubling."""
        return all(len(ch) >= count and float(np.max(ch[:count])) < STUDY_TOL
                   for ch in self.changes)

    def flagged(self) -> np.ndarray:
        """1-based indices whose last-pair change exceeds STUDY_TOL."""
        last = self.changes[-1]
        return np.flatnonzero(last > STUDY_TOL) + 1


def truncation_study(trace_factory, cuts: Sequence[tuple]) -> TruncationStudy:
    """Recompute the spectrum at growing cuts (row, col, N) and compare.

    ``trace_factory(N)`` must return the (wtrace, phitrace) pair on the
    N-point grid; cut triples must be increasing.
    """
    if len(cuts) < 2:
        raise ValueError("need at least two cuts to compare")
    prev = None
    for cut in cuts:
        if prev is not None and not all(a <= b for a, b in zip(prev, cut)):
            raise ValueError("cuts must be nondecreasing in every component")
        prev = cut
    spectra = []
    for row_cut, col_cut, n in cuts:
        w, phi = trace_factory(n)
        spectra.append(singular_values(operator_matrix(w, phi, row_cut,
                                                       col_cut)))
    changes = []
    for a, b in zip(spectra[:-1], spectra[1:]):
        count = min(len(a.values), len(b.values))
        denom = np.maximum(np.abs(b.values[:count]), 1e-300)
        changes.append(np.abs(a.values[:count] - b.values[:count]) / denom)
    return TruncationStudy(cuts=tuple(cuts), spectra=tuple(spectra),
                           changes=tuple(changes))
