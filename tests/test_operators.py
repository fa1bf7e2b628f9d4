"""Matrix and kernel routes against closed forms, plus the boundary integrals."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from hardylab.grid import GridError, make_grid
from hardylab.symbols import parse_symbol
from hardylab.weights import parse_weight, unit_weight
from hardylab.carleson import PullbackMeasure, pullback_graded
from hardylab.operators import (
    SingularSpectrum,
    decay_fit,
    embedding_spectrum,
    hs_norm_boundary,
    moment_integral,
    operator_matrix,
    schatten_estimate,
    singular_values,
    truncation_study,
)

C = 0.5  # dilation factor


def _dilation_traces(n):
    g = make_grid(n)
    return unit_weight(g).trace, g.samples(C * g.points)


def _fft_of_products(wtrace, phitrace, row_cut, col_cut):
    """Reference matrix: column n = first coefficients of the sampled w phi^n."""
    n = wtrace.grid.size
    phase = np.exp(-1j * np.pi * np.arange(row_cut + 1) / n)
    g = np.asarray(wtrace.values, dtype=complex).copy()
    out = np.empty((row_cut + 1, col_cut + 1), dtype=complex)
    for col in range(col_cut + 1):
        out[:, col] = np.fft.fft(g)[: row_cut + 1] / n * phase
        g *= phitrace.values
    return out


# ---------------------------------------------------------------- matrix route

def test_half_entries_are_binomial():
    g = make_grid(4096)
    phi = parse_symbol("half")
    a = operator_matrix(unit_weight(g).trace, phi.trace(g), 128, 128)
    exact = np.array([[comb(n, m) / 2.0**n for n in range(129)] for m in range(129)])
    assert np.max(np.abs(a.entries - exact)) <= 1e-14


def test_betaexp2_entries_closed_form():
    # phi = exp((z-1)/2), so phi^n = e^{-n/2} exp(nz/2)
    g = make_grid(1 << 14)
    phi = parse_symbol("betaexp:2")
    a = operator_matrix(unit_weight(g).trace, phi.trace(g), 128, 128)
    n = np.arange(129.0)[None, :]
    m = np.arange(129)[:, None]
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 129)))])
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.exp(-n / 2 + m * np.log(n / 2) - log_fact[:, None])
    exact[0, 0] = 1.0
    assert np.max(np.abs(a.entries - exact)) <= 1e-13


def test_dilation_both_routes_and_hs_norm():
    w, phi = _dilation_traces(4096)
    a = operator_matrix(w, phi, 64, 64)
    s = singular_values(a).values
    lead = C ** np.arange(len(s)) > 1e-8
    assert np.allclose(s[lead], C ** np.arange(lead.sum()), rtol=1e-10)
    hs = hs_norm_boundary(w, phi)
    assert not hs.divergent
    assert hs.value == pytest.approx(1.0 / (1.0 - C * C), rel=1e-12)
    atoms = 256
    mu = PullbackMeasure(C * np.exp(2j * np.pi * (np.arange(atoms) + 0.5) / atoms),
                         np.full(atoms, 1.0 / atoms))
    sk = embedding_spectrum(mu).values
    assert np.allclose(sk[:10], C ** np.arange(10), rtol=1e-6)


def test_dilation_schatten_norm_closed_form():
    w, phi = _dilation_traces(4096)
    sp = singular_values(operator_matrix(w, phi, 64, 64))
    est = schatten_estimate(sp, 1.0)
    assert est.value == pytest.approx(1.0 / (1.0 - C), rel=1e-12)
    assert est.series.verdict == "converging"


def test_schatten_estimate_reads_the_series_verdict():
    # sum n^-0.8 diverges (tail power 0.8 < 1), though the last quartile of
    # these 64 terms holds under 10% of their sum
    n = np.arange(1, 65, dtype=float)
    sp = SingularSpectrum(values=n**-0.8, row_cut=63, col_cut=63, grid_size=256)
    est = schatten_estimate(sp, 1.0)
    assert est.value == pytest.approx(np.sum(n**-0.8), rel=1e-12)
    assert est.series.verdict != "converging"
    assert est.series.tail_exponent == pytest.approx(0.8, abs=1e-9)


def test_decay_fit_dilation_bias_is_pinned():
    # s_n = c^{n-1} for the dilation cz: exactly gamma = 1, b = log(1/c).
    # The 1-based index and the missing prefactor bias the fit; pin the bias.
    c = 0.7
    g = make_grid(4096)
    a = operator_matrix(unit_weight(g).trace, g.samples(c * g.points), 128, 128)
    fit = decay_fit(singular_values(a))
    assert fit.ok and fit.window == (9, 78)
    assert np.log(1 / c) == pytest.approx(0.357, abs=1e-3)
    assert fit.gamma == pytest.approx(1.04, abs=0.01)
    assert fit.b == pytest.approx(0.300, abs=0.01)


@pytest.mark.parametrize("spec,wspec", [("lens:0.5", "hs"), ("half", "unit"),
                                        ("betaexp:0.5", "hs")])
def test_singular_values_sum_to_frobenius(spec, wspec):
    g = make_grid(1 << 12)
    phi = parse_symbol(spec)
    a = operator_matrix(parse_weight(wspec, phi, g).trace, phi.trace(g), 96, 96)
    s = singular_values(a).values
    assert np.sum(s**2) == pytest.approx(a.frobenius_sq(), rel=1e-12)


def test_truncation_study_stable_on_dilation():
    study = truncation_study(_dilation_traces,
                             [(32, 32, 1 << 10), (64, 64, 1 << 11), (128, 128, 1 << 12)])
    assert study.stable_through(10)
    assert len(study.flagged()) == 0 or study.flagged()[0] > 10


def test_matches_fft_of_products_reference():
    g = make_grid(1 << 18)
    phi = parse_symbol("lens:0.5")
    w, p = parse_weight("hs", phi, g).trace, phi.trace(g)
    s = singular_values(operator_matrix(w, p, 64, 64)).values
    ref = np.linalg.svd(_fft_of_products(w, p, 64, 64), compute_uv=False)
    keep = ref > 1e-8 * ref[0]
    assert keep.sum() > 10
    assert np.max(np.abs(s[keep] - ref[keep]) / ref[keep]) <= 1e-4


def test_cut_just_below_quarter_guard():
    # a cut near the N/4 guard still reproduces the dilation exactly
    w, phi = _dilation_traces(1024)
    s = singular_values(operator_matrix(w, phi, 255, 255)).values
    assert np.allclose(s[:40], C ** np.arange(40), rtol=1e-10)
    with pytest.raises(GridError):
        operator_matrix(w, phi, 256, 10)


# ---------------------------------------------------------------- kernel route

def _dense_kernel_spectrum(mu):
    """Reference: square roots of the eigenvalues of the formed Gram."""
    z, m = mu.locations[mu.radii < 1.0], mu.masses[mu.radii < 1.0]
    sw = np.sqrt(m)
    gram = sw[:, None] * sw[None, :] / (1.0 - z[:, None] * np.conj(z)[None, :])
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0))


def test_kernel_dilation_resolves_30_terms():
    # the eigenvalues of the formed Gram resolve only 19 leading terms here
    atoms = 512
    mu = PullbackMeasure(C * np.exp(2j * np.pi * (np.arange(atoms) + 0.5) / atoms),
                         np.full(atoms, 1.0 / atoms))
    s = embedding_spectrum(mu).values
    exact = C ** np.arange(30)
    assert len(s) >= 30
    assert np.all(np.abs(s[:30] - exact) <= 1e-6 * exact)


def test_kernel_takes_6144_atoms():
    # the route has no atom cap; it used to refuse more than 6000
    atoms = 6144
    mu = PullbackMeasure(C * np.exp(2j * np.pi * (np.arange(atoms) + 0.5) / atoms),
                         np.full(atoms, 1.0 / atoms))
    s = embedding_spectrum(mu).values
    exact = C ** np.arange(30)
    assert len(s) >= 30
    assert np.all(np.abs(s[:30] - exact) <= 1e-6 * exact)


def test_kernel_trace_is_total_diagonal():
    mu = pullback_graded(parse_symbol("lens:0.5"), per_octave=8)
    s = embedding_spectrum(mu).values
    inner = mu.radii < 1.0
    trace = np.sum(mu.masses[inner] / (1.0 - mu.radii[inner] ** 2))
    assert np.sum(s**2) == pytest.approx(trace, rel=1e-12)


def test_kernel_matches_dense_eigvalsh():
    mu = pullback_graded(parse_symbol("lens:0.5"), per_octave=8)
    s = embedding_spectrum(mu).values
    ref = _dense_kernel_spectrum(mu)[:len(s)]
    rel = np.abs(s - ref) / ref
    # eigvalsh of the Gram carries an absolute error ~eps s_1^2, which is a
    # relative error ~1e-6 on s at 1e-5 s_1
    assert np.all(rel[ref > 1e-3 * s[0]] <= 1e-9)
    assert np.all(rel[ref > 1e-5 * s[0]] <= 1e-6)


def test_kernel_memory_below_half_a_dense_gram():
    mu = pullback_graded(parse_symbol("lens:0.5"), per_octave=12)
    n = int(np.sum(mu.radii < 1.0))
    assert n >= 1540
    tracemalloc.start()
    try:
        embedding_spectrum(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 2


def test_kernel_refuses_co_radius_lost_to_rounding():
    # half has 1 - |phi| ~ t^2/8 at the contact point; 578 atoms of the
    # default grading sit closer to the circle than 1.1e-8
    mu = pullback_graded(parse_symbol("half"))
    with pytest.raises(ValueError, match="578 atoms have 1 - \\|z\\|\\^2 below"):
        embedding_spectrum(mu)


# ---------------------------------------------------------------- analyticity guard

@pytest.mark.parametrize("spec,wspec", [("hsx", "hs"), ("extreme", "hs"), ("extreme", "power:2"),
                                        ("extreme", "gauge")])
def test_refuses_flat_phase_weight(spec, wspec):
    g = make_grid(1 << 14)
    phi = parse_symbol(spec)
    w = parse_weight(wspec, phi, g, strict=False)
    assert w.log_divergent
    with pytest.raises(GridError, match="negative frequencies"):
        operator_matrix(w.trace, phi.trace(g), 32, 32)


def test_refuses_non_analytic_symbol():
    g = make_grid(1 << 10)
    w = unit_weight(g).trace
    with pytest.raises(GridError, match="symbol trace is not analytic"):
        operator_matrix(w, g.samples(0.5 * np.conj(g.points)), 16, 16)


@pytest.mark.parametrize("spec,wspec", [("lens:0.5", "lensdecomp"), ("lens:0.5", "hs"),
                                        ("betaexp:0.5", "hs"), ("half", "power:2"),
                                        ("hsx", "unit"), ("extreme", "unit")])
def test_accepts_analytic_traces(spec, wspec):
    g = make_grid(1 << 14)
    phi = parse_symbol(spec)
    a = operator_matrix(parse_weight(wspec, phi, g).trace, phi.trace(g), 32, 32)
    assert np.all(np.isfinite(a.entries))


# ---------------------------------------------------------------- integrals

def test_moment_integral_no_overflow_on_hsx():
    # |w*|^2/(1-|phi*|^2) = 1/(2 - co) is bounded although 1 - |phi*|^2 is
    # subnormal at some samples
    g = make_grid(1 << 18)
    phi = parse_symbol("hsx")
    co = phi.co_modulus_of_angle(g.signed_angles())
    assert np.min(co * (2 - co)) < np.finfo(float).tiny
    w = parse_weight("hs", phi, g, strict=False).trace
    m = moment_integral(w, phi.trace(g), 1.0, phi_co=co)
    assert not m.divergent
    assert m.value == pytest.approx(0.51211, abs=1e-5)
    hs = hs_norm_boundary(w, phi.trace(g), phi_co=co)
    assert hs == m


@pytest.mark.parametrize("wspec, divergent", [("boxdecomp", False),
                                              ("lensdecomp", True)])
def test_moment_integral_near_drift_tolerance(wspec, divergent):
    # on lens:0.5 at 2^18 these drift by 1.7% (boxdecomp, a finite moment)
    # and 5.3% (lensdecomp, integrand about 1/|t|) of their value under
    # refinement, on either side of the 3% drift tolerance
    g = make_grid(1 << 18)
    phi = parse_symbol("lens:0.5")
    co = phi.co_modulus_of_angle(g.signed_angles())
    w = parse_weight(wspec, phi, g).trace
    assert moment_integral(w, phi.trace(g), 1.0, phi_co=co).divergent == divergent


def test_moment_integral_rejects_bad_alpha():
    w, phi = _dilation_traces(64)
    with pytest.raises(ValueError):
        moment_integral(w, phi, 0.0)
