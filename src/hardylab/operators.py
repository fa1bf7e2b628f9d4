"""Truncated matrices of weighted composition operators and their spectra.

Two routes to the singular values:

* ``operator_matrix`` + ``singular_values``: the coefficient matrix of
  f -> w (f o phi) in the monomial basis, a Krylov matrix of the analytic
  Toeplitz operator T_phi (Cowen-MacCluer): column n+1 is T_phi applied to
  column n, starting from the coefficients of w.  Built from the first R
  Taylor coefficients of the (analytic) traces of w and phi, read from
  two real FFTs per trace (the real and imaginary parts), independent
  of N, and stable since ||T_phi|| <= ||phi||_inf <= 1.  A step of T_phi
  is an FFT product of truncated power series, too long to wrap around;
  the columns come in blocks of B ~ sqrt(R), each the block before times
  the head of phi^B in one batched product.  ``singular_values``
  multiplies each column by the conjugate phase of its largest entry (a
  zero column by 1); when the imaginary part of that matrix AD is at most
  REAL_SVD_TOL = 64 eps of its Frobenius norm, as for a symbol and weight
  with real Taylor coefficients, rotated or not, it takes the real SVD of
  Re AD, within ||Im AD||_F of the values of A (Weyl's inequality), at
  about half the cost.  A matrix that is not real up to column phases
  keeps the complex SVD.  Doubly truncated; every experiment stamps it
  with a truncation study.
* ``embedding_spectrum``: the weighted composition operator has the same
  singular numbers as the embedding of H^2 into L^2 of the pull-back
  measure, whose Gram matrix against an atomic measure is the closed-form
  reproducing-kernel matrix sqrt(m_i m_j)/(1 - z_i conj(z_j)).  No row or
  column truncation at all; the only parameters are the atoms themselves.
  This is the route that resolves stretched-exponential decay at desk
  scale.  The n x n Gram is never formed: the Schur complement of the Szego
  kernel at a pivot a is the kernel times b_a(z) conj(b_a(w)), b_a the
  Blaschke factor at a, so a diagonally pivoted Cholesky runs on the n
  generators in O(n r) time and memory and stops once the residual trace
  falls below the floor; eigvalsh of the r x r Gram of the pivot rows
  follows, to a relative error ~eps cond(B)^2, B the normalized rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import (BoundarySamples, GridError, IntegralResult, _block_size,
                   _constant, _is_integer, coefficients_from_fft, refined_mean)
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

# singular_values: the real SVD runs while the imaginary part of the
# column-phased matrix is at most this share of its Frobenius norm.
REAL_SVD_TOL = 64 * np.finfo(float).eps

# decay_fit: skip the transient head, drop values at the noise floor,
# refuse fits with large log-log residual.
FIT_SKIP = 8
FIT_FLOOR = 1e-12
FIT_MIN_WINDOW = 16
FIT_MAX_RESIDUAL = 0.5

# Truncation study: a relative change of s_n above this between consecutive
# cuts marks the index as not yet converged.
STUDY_TOL = 0.01

# column_pnorms: grid points per block of its moment products.
PNORM_CHUNK = 4096

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
    source: str  # "matrix" or "kernel"
    floor: float  # noise floor: decay_fit drops values at or below it

    def __len__(self):
        return len(self.values)


def _analytic_head(trace: BoundarySamples, rows: int, name: str) -> np.ndarray:
    """First ``rows`` Taylor coefficients; refuses a non-finite or
    non-analytic trace.

    Two real FFTs, A = rfft(a) and B = rfft(b) of the samples a + ib, give
    the spectrum X_k = A_k + i B_k (0 <= k <= N/2).  The energy at the
    negative frequencies N/2 < k < N is the total N sum |x|^2 (Parseval)
    less the sum of |X_k|^2 over k <= N/2.  A zero-stride trace (a constant
    c, as for the unit weight) runs no FFT: its head is c and zeros, the
    FFT's own values.  One complex FFT would be faster, but its N-length
    scratch raises the peak RSS.
    """
    n = trace.grid.size
    values = np.asarray(trace.values)
    one = _constant(values)
    if one is None:
        spectrum = np.fft.rfft(values.real)
        ib = np.fft.rfft(values.imag)
        ib *= 1j
        spectrum += ib  # X_0 .. X_{N/2}
        total = n * np.vdot(values, values).real
    else:  # X_0 = N c, as the FFT sums it, and X_k = 0 for k > 0
        spectrum = np.zeros(rows, dtype=complex)
        with np.errstate(invalid="ignore"):  # inf c gives NaN, refused below
            spectrum[0] = n * one[0]
        total = np.vdot(spectrum, spectrum).real
    if not np.isfinite(total):
        raise GridError(f"{name} trace has non-finite samples")
    negative = total - np.vdot(spectrum, spectrum).real
    share = negative / total if total > 0 else 0.0
    if share > ANALYTIC_NEGATIVE_SHARE:
        raise GridError(
            f"{name} trace is not analytic: {share:.3g} of its energy lies at "
            f"negative frequencies (limit {ANALYTIC_NEGATIVE_SHARE:g})"
        )
    return coefficients_from_fft(spectrum, rows - 1, n)


def operator_matrix(wtrace: BoundarySamples, phitrace: BoundarySamples,
                    row_cut: int, col_cut: int) -> OperatorMatrix:
    """Truncated matrix of f -> w (f o phi) in the monomial basis.

    Column n holds the first R = row_cut+1 coefficients of w phi^n, from
    the Toeplitz-Krylov recursion col_0 = w[:R], col_{n+1} = T col_n with T
    the R x R lower-triangular Toeplitz matrix of phi[:R].  This is exact
    for the truncation (the first R coefficients of a product depend only
    on the first R of each factor), and stable: T is a compression of
    T_phi, so ||T|| <= ||phi||_inf <= 1.

    T is never formed: T col is ifft(fft(col, m) fft(phi[:R], m))[:R], m the
    power of two >= 2R - 1, so no term wraps around.  Columns 1..B-1, with
    B = 2^floor(log2(R)/2), come one at a time, with the head of phi^B if
    more follow; each further block of B columns is one batched product with
    that head, col_{s..s+B-1} = T^B col_{s-B..s-1}, as stable as one step
    since ||T^B|| <= 1.  An entry errs by about eps log2(m) times its
    factors' norms, so each column keeps its accuracy relative to its own
    norm.  Cost after one FFT per trace: O(col_cut R log R), independent of N.

    Both traces must be finite and analytic: one with more than 1% of its
    energy at negative frequencies (e.g. the flat-phase trace of a
    log-divergent weight) raises GridError, as does a NaN or infinite
    sample.  Cuts that are not integers, negative cuts and cuts at or
    beyond N/4 are rejected; the guard keeps the coefficients of w and phi
    clear of aliasing.
    """
    if wtrace.grid != phitrace.grid:
        raise GridError("traces must share a grid")
    n = wtrace.grid.size
    if not all(_is_integer(cut) and 0 <= cut < n // 4 for cut in (row_cut, col_cut)):
        raise GridError(f"cuts must be integers in 0..N/4 - 1 = {n // 4 - 1}, got "
                        f"row_cut={row_cut!r}, col_cut={col_cut!r}")
    rows, cols = int(row_cut) + 1, int(col_cut) + 1
    phi = _analytic_head(phitrace, rows, "symbol")
    krylov = np.empty((cols, rows), dtype=complex)  # row n holds column n
    krylov[0] = _analytic_head(wtrace, rows, "weight")
    b = _block_size(rows)
    m = 1 << (2 * rows - 2).bit_length()  # 2^k >= 2R - 1: no wrap-around
    step = np.fft.fft(phi, m)
    # column n, and the head of phi^(n+1) only if a block loop follows
    series = np.stack((krylov[0], phi))[:2 if cols > b else 1]
    for col in range(1, min(b, cols)):
        spectrum = np.fft.fft(series, m, axis=1)
        spectrum *= step
        series = np.fft.ifft(spectrum, axis=1)[:, :rows]
        krylov[col] = series[0]
    if cols > b:
        step = np.fft.fft(series[1], m)  # the head of phi^B
        for start in range(b, cols, b):
            stop = min(start + b, cols)
            block = np.fft.fft(krylov[start - b:stop - b], m, axis=1)
            block *= step
            krylov[start:stop] = np.fft.ifft(block, axis=1)[:, :rows]
    return OperatorMatrix(entries=krylov.T, row_cut=row_cut, col_cut=col_cut,
                          grid_size=n)


def singular_values(a: OperatorMatrix) -> SingularSpectrum:
    """Full singular value list of the truncated matrix, nonincreasing.

    Each column n of A is multiplied by d_n = conj(p)/|p|, p its entry of
    largest modulus, so that entry becomes real and positive; a zero column
    keeps d_n = 1.  For a unitary diagonal D, AD has the singular values
    of A, and Weyl's inequality gives

        |s_n(AD) - s_n(Re AD)| <= ||Im AD||_2 <= ||Im AD||_F.

    When ||Im AD||_F <= REAL_SVD_TOL ||A||_F (64 eps), as for a symbol and
    weight with real Taylor coefficients, rotated or not, the values are
    those of the real matrix Re AD: each moves by at most 64 eps ||A||_F,
    the order of the SVD's own rounding, at about half the cost of a
    complex SVD.  A matrix that is not real up to column phases keeps the
    complex SVD of its unchanged entries.
    """
    entries = a.entries
    peak = entries[np.argmax(np.abs(entries), axis=0), np.arange(entries.shape[1])]
    size = np.abs(peak)
    phased = entries * np.divide(np.conj(peak), size, out=np.ones_like(peak),
                                 where=size > 0)
    if np.linalg.norm(phased.imag) <= REAL_SVD_TOL * np.linalg.norm(phased):
        vals = np.linalg.svd(phased.real, compute_uv=False)
    else:
        vals = np.linalg.svd(entries, compute_uv=False)
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
    trace G = sum m/(1 - |z|^2) by at most floor^2.  The pivot rows, the
    r x n factor F = L^T, are written 64 to a block (O(n r) time and
    memory); the values are sqrt(max(eigvalsh(C), 0)) of the Gram C = F F*,
    summed over its lower block triangle from the blocks.  F is graded,
    C = D (B B*) D with D the row norms (over 8-9 decades) and cond(B)
    29-55 on the benchmark measures, so rounding moves each eigenvalue by
    a relative ~eps cond(B)^2 (Demmel-Veselic, scaled positive definite
    matrices); an SVD of F agrees to ~1e-12 relative.

    Each atom's 1 - |z|^2 is read as d (2 - d) from its depth d
    (:attr:`hardylab.carleson.PullbackMeasure.depth`), not from |z|.
    Atoms on the unit circle (d = 0) are excluded (the embedding is
    unbounded against boundary mass); their total mass is expected to be
    zero for the measures this is used on.  Interior atoms with
    1 - |z|^2 below eps/KERNEL_RELATIVE_FLOOR are refused: there the
    rounding of |z| alone moves the kernel diagonal by more than the
    route's floor.
    """
    interior = mu.depth > 0.0
    z = mu.locations[interior]
    depth = mu.depth[interior]
    co = depth * (2.0 - depth)  # 1 - |z|^2
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
    blocks, r = [], 0
    while d.sum() > stop:
        p = int(np.argmax(d))
        a = z[p]
        kernel = 1.0 / (1.0 - z * np.conj(a))
        if r % 64 == 0:
            blocks.append(np.empty((64, z.size), dtype=complex))
        row = np.multiply(g, np.conj(g[p]), out=blocks[-1][r % 64])
        row *= kernel
        row /= np.sqrt(d[p])
        r += 1
        g = g * (z - a) * kernel  # b_a(a) = 0 retires the pivot exactly
        d = (g.real**2 + g.imag**2) / co
    gram = np.empty((r, r), dtype=complex)  # lower block triangle of F F*
    for j in range(0, r, 64):
        right = np.conj(blocks[j // 64][:r - j]).T
        for i in range(j, r, 64):
            np.matmul(blocks[i // 64][:r - i], right, out=gram[i:i + 64, j:j + 64])
    vals = np.sqrt(np.maximum(np.linalg.eigvalsh(gram, UPLO="L")[::-1], 0.0))
    floor = max(FIT_FLOOR, float(vals[0]) * KERNEL_RELATIVE_FLOOR) if vals.size else FIT_FLOOR
    return SingularSpectrum(values=vals, row_cut=-1, col_cut=z.size - 1,
                            grid_size=z.size, source="kernel", floor=floor)


def hs_norm_boundary(wtrace: BoundarySamples,
                     phitrace: BoundarySamples) -> IntegralResult:
    """Quadrature of |w*|^2/(1 - |phi*|^2): the Hilbert-Schmidt norm squared.

    Equals the sum over n of the squared norms of the images of the
    monomials; this is ``moment_integral`` at alpha = 1.
    """
    return moment_integral(wtrace, phitrace, 1.0)


def moment_integral(wtrace: BoundarySamples, phitrace: BoundarySamples,
                    alpha: float, phi_co=None) -> IntegralResult:
    """Quadrature of |w*|^2 (1 - |phi*|^2)^{-alpha}, with the divergence rule
    of :func:`hardylab.grid.refined_mean`.

    ``phi_co`` (an array of the samples of 1 - |phi*|) avoids cancellation
    for symbols hugging the circle, by the base co (2 - co); dividing by
    base**alpha (not multiplying by base**-alpha) keeps subnormal bases
    finite.  Divergence is a return state; a NaN sample of the weight or the
    base raises ValueError.

    A zero-stride weight trace (one broadcast constant, as for the unit
    weight) keeps its one value: |w*|^2 is a zero-stride view, not an
    N-length array.  The base 1 - |phi*|^2 is built in the buffer of
    |phi*|, so the temporaries are the base, the integrand and the
    absolute values :func:`hardylab.grid.refined_mean` reads.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive, not NaN")
    w = np.asarray(wtrace.values)
    one = _constant(w)  # a zero-stride weight trace keeps its one value
    dens = np.abs(w if one is None else one)
    dens *= dens
    dens = np.broadcast_to(dens, w.shape)
    if phi_co is None:
        base = np.abs(np.asarray(phitrace.values))
        base *= base
        np.subtract(1.0, base, out=base)
    else:
        co = np.asarray(phi_co, dtype=float)
        base = co * (2.0 - co)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = base**alpha
        np.divide(dens, integrand, out=integrand)
    integrand[~(base > 0.0)] = np.inf
    bad = ~np.isfinite(integrand)
    if np.any(bad):
        if np.any(np.isnan(dens[bad]) | np.isnan(base[bad])):
            raise ValueError("moment integral of a weight or symbol trace "
                             "with NaN samples")
        if np.any(dens[bad] > 0.0):
            return IntegralResult(float("inf"), True)
        integrand[bad] = 0.0
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
    if not p > 0:
        raise ValueError("Schatten exponent must be positive, not NaN")
    s = spectrum.values
    series = Series(np.arange(1, len(s) + 1), s.astype(float) ** p)
    return SchattenEstimate(series.total ** (1.0 / p), series)


@dataclass(frozen=True)
class ColumnNorms:
    """H^p norms of the monomial images w (phi*)^n, n = 0..n_max."""

    p: float
    norms: np.ndarray


def column_pnorms(wtrace: BoundarySamples, phitrace: BoundarySamples,
                  p: float, n_max: int) -> ColumnNorms:
    """Norms ||w (phi*)^n||_p = (quadrature |w*|^p |phi*|^{pn})^{1/p}.

    The moments M_n = mean(a x^n), a = |w*|^p and x = |phi*|^p, come by
    blocks of B = 2^floor(log2(n_max+1)/2) powers: over each chunk of
    PNORM_CHUNK grid points, the rows a x^{qB} (q = 0, 1, ...) times the
    rows x^s (s < B) sum a x^{qB+s} in one matrix product.  No temporary
    grows with N.
    """
    if not p >= 1:
        raise ValueError("Hardy exponent must be >= 1, not NaN")
    if not (_is_integer(n_max) and n_max >= 0):
        raise ValueError(f"column cut n_max must be an integer >= 0, got {n_max!r}")
    w = np.asarray(wtrace.values)
    phi = np.asarray(phitrace.values)
    b = _block_size(n_max + 1)
    q = -(-(n_max + 1) // b)
    sums = np.zeros((q, b))
    for i in range(0, w.size, PNORM_CHUNK):
        x = np.abs(phi[i:i + PNORM_CHUNK]) ** p
        low = np.empty((b + 1, x.size))  # x^0 .. x^B
        low[0] = 1.0
        for s in range(b):
            np.multiply(low[s], x, out=low[s + 1])
        high = np.empty((q, x.size))  # a x^{qB}
        high[0] = np.abs(w[i:i + PNORM_CHUNK]) ** p
        for r in range(1, q):
            np.multiply(high[r - 1], low[b], out=high[r])
        sums += high @ low[:b].T
    moments = sums.ravel()[:n_max + 1] / w.size
    return ColumnNorms(p=p, norms=moments ** (1.0 / p))


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
    if mask.sum() < FIT_MIN_WINDOW:
        return DecayFit(b=float("nan"), gamma=float("nan"),
                        residual=float("inf"), window=(lo, hi), ok=False)
    x = np.log(idx[mask].astype(float))
    y = np.log(np.log(1.0 / s[mask]))
    gamma, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((gamma * x + intercept - y) ** 2)))
    return DecayFit(b=float(np.exp(intercept)), gamma=float(gamma),
                    residual=residual, window=(lo, hi),
                    ok=not residual > FIT_MAX_RESIDUAL)


@dataclass(frozen=True)
class TruncationStudy:
    """Per-index relative change of s_n between consecutive cuts.

    An index counts as converged while its change stays below STUDY_TOL.
    Each spectrum carries its cut (row_cut, col_cut, grid_size).
    """

    spectra: tuple
    changes: tuple  # one array per consecutive pair

    def flagged(self) -> np.ndarray:
        """1-based indices whose last-pair change exceeds STUDY_TOL."""
        last = self.changes[-1]
        return np.flatnonzero(last > STUDY_TOL) + 1


def truncation_study(trace_factory, cuts: Sequence[tuple]) -> TruncationStudy:
    """Recompute the spectrum at growing cuts (row, col, N) and compare.

    ``trace_factory(N)`` must return the (wtrace, phitrace) pair on the
    N-point grid; cut triples must be integers, increasing.
    """
    if len(cuts) < 2:
        raise ValueError("need at least two cuts to compare")
    if not all(_is_integer(x) for cut in cuts for x in cut):
        raise GridError(f"cut components (row, col, N) must be integers, got {cuts!r}")
    if not all(a <= b for pair in zip(cuts, cuts[1:]) for a, b in zip(*pair)):
        raise ValueError("cuts must be nondecreasing in every component")
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
    return TruncationStudy(spectra=tuple(spectra), changes=tuple(changes))
