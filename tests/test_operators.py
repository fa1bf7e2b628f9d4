"""Matrix and kernel routes against closed forms, plus the boundary integrals."""

import tracemalloc
from math import comb

import numpy as np
import pytest

from hardylab import operators
from hardylab.grid import GridError, make_grid
from hardylab.symbols import constant, parse_symbol
from hardylab.weights import parse_weight, unit_weight
from hardylab.carleson import PullbackMeasure, luecking_sum, pullback_graded
from hardylab.operators import (
    ANALYTIC_NEGATIVE_SHARE,
    STUDY_TOL,
    SingularSpectrum,
    column_pnorms,
    decay_fit,
    embedding_spectrum,
    hs_norm_boundary,
    moment_integral,
    operator_matrix,
    schatten_estimate,
    singular_values,
    truncation_study,
)

import brute_force

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
    sp = SingularSpectrum(values=n**-0.8, row_cut=63, col_cut=63, grid_size=256,
                          source="matrix", floor=1e-12)
    est = schatten_estimate(sp, 1.0)
    assert est.value == pytest.approx(np.sum(n**-0.8), rel=1e-12)
    assert est.series.verdict != "converging"
    assert est.series.tail_exponent == pytest.approx(0.8, abs=1e-9)


@pytest.mark.parametrize("c", [0.5, 0.9])
def test_dilation_columns_keep_their_relative_accuracy(c):
    # W = C_phi with phi = c rho z: column n is (c rho)^n e_n and s_n = c^n.
    # Each column must be right relative to its own norm c^n, down to
    # 0.5^256; a bound relative to the whole matrix cannot see a lost column
    g = make_grid(1 << 14)
    rho = np.exp(0.3j)
    a = operator_matrix(unit_weight(g).trace, g.samples(c * rho * g.points),
                        256, 256).entries
    n = np.arange(257)
    err = np.max(np.abs(a - np.diag((c * rho) ** n)), axis=0)
    assert np.all(err <= 1e-12 * c**n)
    s = np.linalg.svd(a, compute_uv=False)
    assert np.all(np.abs(s - c**n) <= 1e-12 * c**n)


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


def test_decay_fit_refuses_a_jagged_spectrum():
    # s_n alternating between 1e-2 and 1e-10: no line fits log log(1/s_n)
    s = np.where(np.arange(64) % 2 == 0, 1e-2, 1e-10)
    fit = decay_fit(SingularSpectrum(values=s, row_cut=63, col_cut=63, grid_size=256,
                                     source="matrix", floor=1e-12))
    assert not fit.ok and fit.residual > 0.5 and fit.window == (9, 64)


@pytest.mark.parametrize("spec,wspec,angle", [
    pytest.param("lens:0.5", "hs", 0.0, id="lens:0.5-hs"),
    pytest.param("half", "unit", 0.0, id="half-unit"),
    pytest.param("betaexp:0.5", "hs", 0.0, id="betaexp:0.5-hs"),
    pytest.param("lens:0.5", "hs", 0.7, id="lens:0.5-hs-rotated")])
def test_singular_values_sum_to_frobenius(spec, wspec, angle):
    g = make_grid(1 << 12)
    phi = parse_symbol(spec)
    p = g.samples(np.exp(1j * angle) * phi.trace(g).values)
    a = operator_matrix(parse_weight(wspec, phi, g).trace, p, 96, 96)
    s = singular_values(a).values
    assert np.sum(s**2) == pytest.approx(a.frobenius_sq(), rel=1e-12)


@pytest.fixture
def svd_inputs(monkeypatch):
    """Every matrix handed to np.linalg.svd while the test runs."""
    seen, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda x, **kw: seen.append(x) or svd(x, **kw))
    return seen


def test_singular_values_of_a_complex_pair_are_the_complex_svd(svd_inputs):
    # w = 1 + (0.3+0.4i) z and phi = z (0.5 + (0.2-0.3i) z): no column
    # phases make this matrix real, so it keeps the complex SVD, bit for bit
    g = make_grid(1 << 12)
    z = g.points
    a = operator_matrix(g.samples(1 + (0.3 + 0.4j) * z),
                        g.samples(z * (0.5 + (0.2 - 0.3j) * z)), 64, 64)
    s = singular_values(a).values
    assert [x.dtype for x in svd_inputs] == [complex]
    assert np.array_equal(s, np.linalg.svd(a.entries, compute_uv=False))


def test_zero_columns_keep_phase_one(svd_inputs):
    # phi = 0: columns 1..16 of the unit weight's matrix are zero
    g = make_grid(1 << 10)
    a = operator_matrix(unit_weight(g).trace, constant(0.0).trace(g), 16, 16)
    assert not np.any(a.entries[:, 1:])
    s = singular_values(a).values
    assert [x.dtype for x in svd_inputs] == [float]
    assert np.array_equal(s, np.eye(17)[0])
    assert np.array_equal(s, np.linalg.svd(a.entries, compute_uv=False))


@pytest.mark.parametrize("spec,wspec,cut", [("lens:0.5", "unit", 128),
                                            ("lens:0.5", "hs", 256),
                                            ("dilation", "unit", 256)])
def test_matrix_route_holds_no_subnormals(spec, wspec, cut, svd_inputs):
    # subnormal entries slow the SVD down: graded columns must end in
    # rounding noise or zeros, both in the matrix and in the real matrix
    # of its column-phased entries that the SVD reads
    g = make_grid(1 << 14)
    if spec == "dilation":
        w, p = unit_weight(g).trace, g.samples(0.5 * np.exp(0.3j) * g.points)
    else:
        phi = parse_symbol(spec)
        w, p = parse_weight(wspec, phi, g).trace, phi.trace(g)
    a = operator_matrix(w, p, cut, cut)
    singular_values(a)
    tiny = np.finfo(float).tiny
    for part in (a.entries.real, a.entries.imag, *svd_inputs):
        assert not np.any((part != 0) & (np.abs(part) < tiny))
    assert [x.dtype for x in svd_inputs] == [float]


def test_truncation_study_stable_on_dilation():
    study = truncation_study(_dilation_traces,
                             [(32, 32, 1 << 10), (64, 64, 1 << 11), (128, 128, 1 << 12)])
    # s_1..s_10 moved less than STUDY_TOL at every doubling
    assert all(len(ch) >= 10 and np.max(ch[:10]) < STUDY_TOL for ch in study.changes)
    assert len(study.flagged()) == 0 or study.flagged()[0] > 10


@pytest.mark.parametrize("cuts", [[(64, 64, 1 << 12), (32, 64, 1 << 12)],
                                  [(32, 32, 1 << 10), (64, 64, 1 << 12), (64, 64, 1 << 11)]])
def test_truncation_study_refuses_a_shrinking_cut(cuts):
    with pytest.raises(ValueError, match="nondecreasing in every component"):
        truncation_study(_dilation_traces, cuts)


def test_truncation_study_refuses_traces_off_the_stated_grid():
    # a factory that ignores N used to give spectra on one 2^12 grid, read
    # as a refinement from 2^12 to 2^14
    with pytest.raises(GridError, match=r"trace_factory\(16384\) returned traces "
                                        r"on the 4096-point grid"):
        truncation_study(lambda n: _dilation_traces(1 << 12),
                         [(32, 32, 1 << 12), (64, 64, 1 << 14)])


def test_truncation_study_needs_two_cuts():
    with pytest.raises(ValueError, match="at least two cuts"):
        truncation_study(_dilation_traces, [(32, 32, 1 << 10)])


@pytest.mark.parametrize("bad", [2.5, np.nan, 32.0])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_truncation_study_refuses_fractional_cut_components(slot, bad):
    # a float cut used to fail inside numpy, a float N inside make_grid
    cuts = [[32, 32, 1 << 10], [64, 64, 1 << 11]]
    cuts[1][slot] = bad
    with pytest.raises(GridError, match=r"cut components \(row, col, N\) must be integers"):
        truncation_study(_dilation_traces, [tuple(c) for c in cuts])


def test_truncation_study_takes_numpy_integer_cuts():
    cuts = [(32, 32, 1 << 10), (64, 64, 1 << 11)]
    study = truncation_study(_dilation_traces, [tuple(map(np.int64, c)) for c in cuts])
    want = truncation_study(_dilation_traces, cuts)
    for a, b in zip(study.changes, want.changes):
        assert np.array_equal(a, b)


def test_singular_spectrum_length_is_its_value_count():
    sp = SingularSpectrum(values=np.ones(5), row_cut=4, col_cut=4, grid_size=64,
                          source="matrix", floor=1e-12)
    assert len(sp) == 5


def test_decay_fit_reports_an_unfittable_window():
    # twelve values: fewer than FIT_MIN_WINDOW past the FIT_SKIP head
    s = 0.5 ** np.arange(1, 13)
    fit = decay_fit(SingularSpectrum(values=s, row_cut=11, col_cut=11, grid_size=64,
                                     source="matrix", floor=1e-12))
    assert not fit.ok and fit.window == (9, 12) and fit.residual == np.inf
    assert np.isnan(fit.b) and np.isnan(fit.gamma)


def test_matches_fft_of_products_reference():
    g = make_grid(1 << 18)
    phi = parse_symbol("lens:0.5")
    w, p = parse_weight("hs", phi, g).trace, phi.trace(g)
    s = singular_values(operator_matrix(w, p, 64, 64)).values
    ref = np.linalg.svd(_fft_of_products(w, p, 64, 64), compute_uv=False)
    keep = ref > 1e-8 * ref[0]
    assert keep.sum() > 10
    assert np.max(np.abs(s[keep] - ref[keep]) / ref[keep]) <= 1e-4


# the graded lens measures of the benchmark: lens parameter, density, per_octave
GRADED_LENS = [(0.3, "unit", 8), (0.5, "unit", 8), (0.7, "unit", 8),
               (0.3, "hs", 8), (0.7, "hs", 8), (0.5, "hs", 12)]


@pytest.mark.parametrize("theta, density, per_octave", GRADED_LENS)
def test_embedding_spectrum_of_graded_cells_matches_linspace_cells(theta, density,
                                                                   per_octave):
    # the closed-form cells move the masses by about 1e-15 relative (at
    # per_octave = 12 the locations too); the spectrum keeps its rank and
    # every value within 1e-12 relative
    phi = parse_symbol(f"lens:{theta:g}")
    density_fn = None if density == "unit" else phi.co
    angles, weights = brute_force.graded_cells(phi.singular_angles, 32, per_octave)
    signed = np.where(angles > np.pi, angles - 2.0 * np.pi, angles)
    if density_fn is not None:
        weights = weights * density_fn(signed)
    want = embedding_spectrum(PullbackMeasure(phi.boundary(signed), weights))
    got = embedding_spectrum(pullback_graded(phi, density_fn, per_octave=per_octave))
    assert got.values.shape == want.values.shape
    assert np.allclose(got.values, want.values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("theta, density, per_octave", GRADED_LENS)
def test_kernel_diagonal_from_depth_matches_the_one_from_modulus(theta, density,
                                                                 per_octave):
    # 1 - |z|^2 read as d (2 - d) from the depth against (1 - |z|)(1 + |z|):
    # the same rank, and every value within 1e-13 s_1
    phi = parse_symbol(f"lens:{theta:g}")
    mu = pullback_graded(phi, None if density == "unit" else phi.co,
                         per_octave=per_octave)
    d = mu.depth[mu.depth > 0.0]
    assert np.allclose(d * (2.0 - d), brute_force.kernel_diagonal(mu),
                       rtol=1e-15, atol=0.0)
    s = embedding_spectrum(mu).values
    ref = brute_force.pivot_row_spectrum(mu)
    assert s.shape == ref.shape
    assert np.max(np.abs(s - ref)) <= 1e-13 * s[0]


def test_cut_just_below_quarter_guard():
    # a cut near the N/4 guard still reproduces the dilation exactly
    w, phi = _dilation_traces(1024)
    s = singular_values(operator_matrix(w, phi, 255, 255)).values
    assert np.allclose(s[:40], C ** np.arange(40), rtol=1e-10)
    with pytest.raises(GridError):
        operator_matrix(w, phi, 256, 10)


@pytest.mark.parametrize("row_cut, col_cut", [(-1, 3), (3, -1), (2.5, 3), (3, 2.5),
                                          (np.nan, 3), (3, 8.0)])
def test_operator_matrix_refuses_negative_cuts(row_cut, col_cut):
    # a negative row cut used to raise IndexError, a float cut
    # AttributeError from the block rule
    w, phi = _dilation_traces(64)
    with pytest.raises(GridError, match=f"row_cut={row_cut}, col_cut={col_cut}"):
        operator_matrix(w, phi, row_cut, col_cut)


def test_column_pnorms_refuses_a_negative_cut():
    # it used to raise "negative shift count" from inside numpy
    w, phi = _dilation_traces(64)
    with pytest.raises(ValueError, match="n_max"):
        column_pnorms(w, phi, 2.0, -1)


@pytest.mark.parametrize("bad", [2.5, np.nan, 8.0])
def test_column_pnorms_refuses_a_fractional_cut(bad):
    # 2.5 used to raise AttributeError from the block rule
    w, phi = _dilation_traces(64)
    with pytest.raises(ValueError, match="column cut n_max must be an integer >= 0"):
        column_pnorms(w, phi, 2.0, bad)


def test_cuts_take_numpy_integers():
    # np.int64 cuts used to raise AttributeError: no bit_length
    w, phi = _dilation_traces(64)
    a = operator_matrix(w, phi, np.int64(8), np.int64(8))
    assert np.array_equal(a.entries, operator_matrix(w, phi, 8, 8).entries)
    norms = column_pnorms(w, phi, 2.0, np.int64(8)).norms
    assert np.array_equal(norms, column_pnorms(w, phi, 2.0, 8).norms)


def _krylov_reference(head_w, head_phi, col_cut):
    """Column n+1 = the first R coefficients of phi times column n, term by
    term: entry m is sum_{k <= m} phi_{m-k} col_n[k]."""
    rows = head_w.size
    out = np.empty((rows, col_cut + 1), dtype=complex)
    out[:, 0] = head_w
    for n in range(col_cut):
        out[:, n + 1] = np.convolve(head_phi, out[:, n])[:rows]
    return out


# Blocks of widths 1, 2, 4, ... fill columns 1, 2..3, 4..7, ... until the
# width reaches B = 8 (R = row_cut + 1 = 101, 128, 129) or B = 16 (R = 257)
# and stays there.  The cuts end inside a doubling (128, 5), exactly where
# the last doubling ends (128, 3), (128, 7) and (256, 15), at the first
# column (256, 16) or the last (256, 31) of the first block of width B,
# inside later blocks, and at row cuts on either side of the column cut.
# At R = 128 the FFT length m = 256 is exactly 2R; at R = 1, B = 1 and
# every block is one column wide
@pytest.mark.parametrize("row_cut,col_cut", [(128, 0), (128, 5), (128, 8), (128, 67),
                                             (128, 128), (100, 200), (256, 37),
                                             (256, 300), (127, 127), (0, 5),
                                             (128, 3), (128, 7), (256, 15),
                                             (256, 16), (256, 31)])
def test_block_recursion_matches_krylov_reference(row_cut, col_cut):
    g = make_grid(1 << 11)
    phi = parse_symbol("lens:0.5")
    p = g.samples(np.exp(0.7j) * phi.trace(g).values)
    w = parse_weight("hs", phi, g).trace
    # the library's own coefficient heads, so only the recursion is compared:
    # column 1 of the unit weight's matrix is T e_0 = phi[:R]
    head_w = operator_matrix(w, p, row_cut, 0).entries[:, 0]
    head_phi = operator_matrix(unit_weight(g).trace, p, row_cut, 1).entries[:, 1]
    ref = _krylov_reference(head_w, head_phi, col_cut)
    a = operator_matrix(w, p, row_cut, col_cut).entries
    assert a.shape == ref.shape
    assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("cut", [128, 256])
def test_block_width_stops_doubling_at_b(cut):
    # blocks of at most B rows of m entries (m the power of two >= 2R - 1)
    # keep the traced peak near 1.5 times the matrix; blocks that kept
    # doubling past B would hold up to half the columns, about 5 times it
    g = make_grid(1 << 11)
    phi = parse_symbol("lens:0.5")
    p = g.samples(np.exp(0.7j) * phi.trace(g).values)
    w = parse_weight("hs", phi, g).trace
    tracemalloc.start()
    try:
        a = operator_matrix(w, p, cut, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * a.entries.nbytes


def test_refuses_nan_trace():
    # a NaN sample used to give NaN entries, an SVD that did not converge
    # and a moment integral that read the NaN as divergence
    g = make_grid(1 << 10)
    w = unit_weight(g).trace
    values = 0.5 * g.points.copy()
    values[17] = np.nan
    bad = g.samples(values)
    with pytest.raises(GridError, match="symbol trace has non-finite samples"):
        operator_matrix(w, bad, 16, 16)
    with pytest.raises(GridError, match="weight trace has non-finite samples"):
        operator_matrix(bad, g.samples(0.5 * g.points), 16, 16)
    with pytest.raises(ValueError, match="NaN"):
        moment_integral(w, bad, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        moment_integral(bad, g.samples(0.5 * g.points), 1.0)
    co = np.full(g.size, 0.5)
    co[3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        moment_integral(w, g.samples(0.5 * g.points), 1.0, phi_co=co)


# ---------------------------------------------------------------- column norms

def _pnorms_reference(wtrace, phitrace, p, n_max):
    a = np.abs(wtrace.values) ** p
    x = np.abs(phitrace.values) ** p
    return np.array([np.mean(a * x**n) ** (1.0 / p) for n in range(n_max + 1)])


# n_max + 1 moments come in rows of B = 2^floor(log2(n_max + 1)/2): 16 and
# 256 fill whole rows (B = 4, 16), 15, 17, 257 and 301 leave a partial row
@pytest.mark.parametrize("n_max", [0, 1, 3, 4, 5, 14, 15, 16, 255, 256, 300])
@pytest.mark.parametrize("size", [1 << 9, 1 << 14])
def test_column_norms_of_dilation(n_max, size):
    w, phi = _dilation_traces(size)
    norms = column_pnorms(w, phi, 2.0, n_max).norms
    assert norms.shape == (n_max + 1,)
    assert np.allclose(norms, C ** np.arange(n_max + 1), rtol=1e-13, atol=0)


def test_column_norms_of_half_are_central_binomials():
    g = make_grid(1 << 12)
    cols = column_pnorms(unit_weight(g).trace, parse_symbol("half").trace(g), 2.0, 200)
    exact = [comb(2 * n, n) / 4**n for n in range(201)]
    assert np.allclose(cols.norms**2, exact, rtol=1e-13, atol=0)


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_column_norms_match_loop_reference(p):
    g = make_grid(1 << 14)
    phi = parse_symbol("lens:0.5")
    w, trace = parse_weight("hs", phi, g).trace, phi.trace(g)
    norms = column_pnorms(w, trace, p, 100).norms
    assert np.allclose(norms, _pnorms_reference(w, trace, p, 100), rtol=1e-13, atol=0)


def test_column_norms_invariant_under_rotation():
    g = make_grid(1 << 13)
    phi = parse_symbol("betaexp:0.5")
    w, trace = parse_weight("hs", phi, g).trace, phi.trace(g)
    turned = g.samples(np.exp(2.1j) * trace.values)
    a = column_pnorms(w, trace, 2.0, 90).norms
    b = column_pnorms(w, turned, 2.0, 90).norms
    assert np.allclose(a, b, rtol=1e-13, atol=0)


def test_column_norms_refuse_p_below_one():
    w, phi = _dilation_traces(64)
    with pytest.raises(ValueError, match="Hardy exponent"):
        column_pnorms(w, phi, 0.5, 4)


@pytest.mark.parametrize("call", [
    lambda w, phi: luecking_sum(PullbackMeasure([0.5j], [1.0]), np.nan, 4),
    lambda w, phi: column_pnorms(w, phi, np.nan, 4),
    lambda w, phi: schatten_estimate(singular_values(
        operator_matrix(w, phi, 8, 8)), np.nan),
    lambda w, phi: moment_integral(w, phi, np.nan),
], ids=["luecking_sum", "column_pnorms", "schatten_estimate", "moment_integral"])
def test_exponents_refuse_nan(call):
    # a NaN exponent used to pass the range checks, which are False for NaN:
    # NaN level sums, norms and Schatten value, and a moment read divergent
    with pytest.raises(ValueError, match="NaN"):
        call(*_dilation_traces(64))


# ---------------------------------------------------------------- kernel route

def _dense_kernel_spectrum(mu):
    """Reference: square roots of the eigenvalues of the formed Gram."""
    z, m = mu.locations[mu.depth > 0.0], mu.masses[mu.depth > 0.0]
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
    r = np.abs(mu.locations)
    inner = r < 1.0
    trace = np.sum(mu.masses[inner] / (1.0 - r[inner] ** 2))
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
    n = int(np.sum(mu.depth > 0.0))
    assert n >= 1540
    tracemalloc.start()
    try:
        embedding_spectrum(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 2


def _circle_measure(radius, atoms):
    return PullbackMeasure(radius * np.exp(2j * np.pi * (np.arange(atoms) + 0.5) / atoms),
                           np.full(atoms, 1.0 / atoms))


def _random_interior_measure(seed, atoms=800):
    # depths spread over 1e-7..1: pivot rows graded over many decades
    rng = np.random.default_rng(seed)
    depth = 10.0 ** rng.uniform(-7.0, 0.0, atoms)
    z = (1.0 - depth) * np.exp(2j * np.pi * rng.random(atoms))
    return PullbackMeasure(z, rng.random(atoms) / atoms)


@pytest.mark.parametrize("mu", [
    _circle_measure(C, 16),  # 16 pivot rows, one partial block
    _circle_measure(0.9, 64),  # 64 rows, one full block
    _circle_measure(0.9, 65),  # 65 rows
    _circle_measure(1.0, 32),  # no interior atom, no row
    _circle_measure(0.95, 2048),  # 445 rows, seven blocks
    pullback_graded(parse_symbol("lens:0.3"), per_octave=8),
    pullback_graded(parse_symbol("lens:0.7"), per_octave=8),  # 443 rows
    _random_interior_measure(1),
    _random_interior_measure(2),
    _random_interior_measure(3),
], ids=["16", "64", "65", "boundary", "circle:0.95", "lens:0.3", "lens:0.7",
        "random1", "random2", "random3"])
def test_kernel_blocks_match_a_row_list(mu):
    # the Gram of the row blocks against the SVD of the stacked rows: the
    # same count, and every value to a relative 1e-11 down to the floor
    s = embedding_spectrum(mu).values
    ref = brute_force.pivot_row_spectrum(mu)
    assert s.dtype == ref.dtype and s.shape == ref.shape
    assert np.all(np.abs(s - ref) <= 1e-11 * ref)


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


def _trace_from_spectrum(spectrum):
    """Samples on the offset grid whose N-point FFT is ``spectrum``."""
    n = len(spectrum)
    return np.fft.ifft(spectrum * np.exp(1j * np.pi * np.arange(n) / n))


def _spectrum(n, kind, rng):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = np.arange(n)
    if kind == "analytic":  # negative frequencies at 5% of the amplitude
        x[k > n // 2] *= 0.05
    elif kind == "nyquist":
        x[k != n // 2] = 0.0
    elif kind == "negative":
        x[k <= n // 2] = 0.0
    elif kind.startswith("share"):  # e^{it} and e^{-it} at a set share
        share = ANALYTIC_NEGATIVE_SHARE * (1.0 + float(kind[5:]))
        x[:] = 0.0
        x[1], x[n - 1] = np.sqrt(1.0 - share), np.sqrt(share)
    return x


@pytest.mark.parametrize("n", [8, 1 << 10, 1 << 16])
@pytest.mark.parametrize("kind", ["analytic", "random", "nyquist", "negative",
                                  "share-1e-9", "share+1e-9"])
def test_real_fft_head_matches_the_complex_fft(n, kind):
    # the head and the share, from two real FFTs, against one complex FFT:
    # the same verdict, the same message, the head within rounding
    g = make_grid(n)
    x = _trace_from_spectrum(_spectrum(n, kind, np.random.default_rng(n)))
    rows = min(n // 2 + 1, 129)  # through the Nyquist bin at n = 8
    ref, share = brute_force.fft_head(x, rows)
    if share > ANALYTIC_NEGATIVE_SHARE:
        assert kind in ("random", "negative", "share+1e-9")
        with pytest.raises(GridError) as err:
            operators._analytic_head(g.samples(x), rows, "weight")
        assert str(err.value) == (
            f"weight trace is not analytic: {share:.3g} of its energy lies at "
            f"negative frequencies (limit {ANALYTIC_NEGATIVE_SHARE:g})")
        return
    assert kind in ("analytic", "nyquist", "share-1e-9")
    head = operators._analytic_head(g.samples(x), rows, "weight")
    rms = np.sqrt(np.mean(np.abs(x) ** 2))
    tol = np.log2(n) * np.finfo(float).eps * rms
    assert np.max(np.abs(head - ref)) <= tol


@pytest.mark.parametrize("n", [8, 1 << 10, 1 << 16])
@pytest.mark.parametrize("c", [1.0, 0.3 - 0.7j])
def test_constant_trace_head_is_the_fft_head(n, c):
    # a zero-stride trace runs no transform; the FFT of a constant is N c
    # at k = 0 and exactly 0 elsewhere, so the heads agree bit for bit
    x = np.broadcast_to(np.complex128(c), n)
    rows = min(n // 2 + 1, 129)
    head = operators._analytic_head(make_grid(n).samples(x), rows, "weight")
    assert np.array_equal(head, brute_force.fft_head(x, rows)[0])


@pytest.mark.parametrize("c", [np.nan, complex(0.5, np.nan), np.inf])
def test_constant_trace_head_refuses_non_finite(c):
    x = np.broadcast_to(np.complex128(c), 64)
    with pytest.raises(GridError, match="^weight trace has non-finite samples$"):
        operators._analytic_head(make_grid(64).samples(x), 8, "weight")


@pytest.mark.parametrize("part", ["real", "imag"])
def test_real_fft_head_refuses_nan_in_either_part(part):
    n = 1 << 10
    g = make_grid(n)
    x = _trace_from_spectrum(_spectrum(n, "analytic", np.random.default_rng(3)))
    getattr(x, part)[5] = np.nan
    assert not np.all(np.isfinite(brute_force.fft_head(x, 16)[0]))
    with pytest.raises(GridError, match="^symbol trace has non-finite samples$"):
        operators._analytic_head(g.samples(x), 16, "symbol")


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
    co = phi.co(g.signed_angles())
    assert np.min(co * (2 - co)) < np.finfo(float).tiny
    w = parse_weight("hs", phi, g, strict=False).trace
    m = moment_integral(w, phi.trace(g), 1.0, phi_co=co)
    assert not m.divergent
    assert m.value == pytest.approx(0.51211, abs=1e-5)


@pytest.mark.parametrize("wspec, divergent", [("boxdecomp", False),
                                              ("lensdecomp", True)])
def test_moment_integral_near_drift_tolerance(wspec, divergent):
    # on lens:0.5 at 2^18 these drift by 1.7% (boxdecomp, a finite moment)
    # and 5.3% (lensdecomp, integrand about 1/|t|) of their value under
    # refinement, on either side of the 3% drift tolerance
    g = make_grid(1 << 18)
    phi = parse_symbol("lens:0.5")
    co = phi.co(g.signed_angles())
    w = parse_weight(wspec, phi, g).trace
    assert moment_integral(w, phi.trace(g), 1.0, phi_co=co).divergent == divergent


@pytest.mark.parametrize("spec", ["lens:0.5", "half"])
@pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0])
def test_moment_integral_of_the_unit_weight_holds_no_weight_array(spec, alpha):
    # the zero-stride unit trace stays one value and 1 - |phi*|^2 is built
    # in the buffer of |phi*|: bit-identical to N-length factors, with a
    # traced peak of the base, the integrand and refined_mean's |v|
    g = make_grid(1 << 16)
    w = unit_weight(g).trace
    phi = g.samples(np.exp(0.3j) * parse_symbol(spec).trace(g).values)
    tracemalloc.start()
    try:
        m = moment_integral(w, phi, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == brute_force.moment_integral(w.values, phi.values, alpha)
    assert peak < 3.5 * g.size * 8


def test_moment_integral_reads_a_zero_base_from_the_trace_as_divergent():
    # on hsx the co-modulus underflows to 0 near t = 0, so 1 - |phi*|^2 read
    # from the trace is 0 there: the unit weight's integral is (inf, divergent)
    g = make_grid(1 << 12)
    phi = parse_symbol("hsx")
    trace = phi.trace(g)
    assert np.any(np.abs(trace.values) == 1.0)
    assert moment_integral(unit_weight(g).trace, trace, 1.0) == (np.inf, True)


def test_moment_integral_rejects_bad_alpha():
    w, phi = _dilation_traces(64)
    with pytest.raises(ValueError):
        moment_integral(w, phi, 0.0)
