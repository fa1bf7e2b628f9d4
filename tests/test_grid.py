"""Grid construction, quadrature, coefficient extraction, log integrals."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hardylab.grid import (
    TWO_PI,
    BoundaryGrid,
    GridError,
    coefficients_from_fft,
    log_integral,
    make_grid,
    quadrature,
)
from hardylab.operators import operator_matrix
from hardylab.outer import NotLogIntegrableError, outer_from_modulus
from hardylab.symbols import custom_outer, extreme_not_exposed
from hardylab.weights import hs_weight, unit_weight


def test_grid_angles_offset():
    g = make_grid(8)
    expected = np.pi * np.arange(1, 16, 2) / 8
    assert np.allclose(g.angles, expected)
    assert np.all(np.abs(np.abs(g.points) - 1.0) < 1e-15)
    assert np.all(np.diff(g.angles) > 0)
    # no angle hits 0 or pi exactly
    assert not np.any(g.angles == 0.0)
    assert not np.any(g.angles == np.pi)


@pytest.mark.parametrize("n", [8, 2**10, 2**20])
def test_grid_arrays_match_the_closed_formulas(n):
    # the arrays a grid computes on access are the bits of the formulas
    # t_j = 2 pi (j + 1/2) / N, t_j - 2 pi where t_j > pi, and e^{i t_j}
    g = make_grid(n)
    angles = TWO_PI * (np.arange(n) + 0.5) / n
    assert np.array_equal(g.angles, angles)
    assert np.array_equal(g.signed_angles(),
                          np.where(angles > np.pi, angles - TWO_PI, angles))
    assert np.array_equal(g.points, np.exp(1j * angles))


def _traced(fn, *args):
    """(output, peak traced bytes, bytes still traced at return)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
        return out, peak, current
    finally:
        tracemalloc.stop()


def test_grid_holds_only_its_size():
    assert [f.name for f in fields(BoundaryGrid)] == ["size"]
    g, peak, held = _traced(make_grid, 2**20)
    assert peak < 4096 and held < 4096
    # each access returns a new, writable array
    assert g.angles is not g.angles and g.angles.flags.writeable
    a = g.points
    a[:] = 0
    assert np.all(np.abs(g.points) > 0.5)


def test_signed_angles_peak_is_one_array():
    n = 2**16
    g = make_grid(n)
    _, peak, _ = _traced(g.signed_angles)
    assert peak < 1.25 * 8 * n


def test_grids_compare_and_hash_by_size():
    assert make_grid(64) == make_grid(64)
    assert make_grid(64) != make_grid(128)
    assert len({make_grid(64): 1, make_grid(64): 2, make_grid(128): 3}) == 2
    # traces on separately made grids of one size share a grid; grids of
    # different sizes are still refused
    w = unit_weight(make_grid(64)).trace
    phi = make_grid(64).samples(0.5 * make_grid(64).points)
    assert operator_matrix(w, phi, 8, 8).entries.shape == (9, 9)
    with pytest.raises(GridError, match="share a grid"):
        operator_matrix(unit_weight(make_grid(128)).trace, phi, 8, 8)


@pytest.mark.parametrize("n", [4, 6, 7, 100])
def test_grid_rejects_bad_sizes(n):
    with pytest.raises(GridError):
        make_grid(n)


@pytest.mark.parametrize("n", [8, 64, 4096])
def test_quadrature_normalization(n):
    g = make_grid(n)
    assert quadrature(g.samples(np.ones(n))) == 1.0


@given(st.integers(min_value=-31, max_value=31).filter(lambda k: k != 0))
@settings(max_examples=40, deadline=None)
def test_quadrature_orthogonality(k):
    g = make_grid(64)
    val = quadrature(g.samples(g.points**k))
    assert abs(val) < 1e-13


def test_quadrature_abs_one_plus_z():
    # oracle: adaptive quadrature of (1/2pi) int |1 + e^{it}| dt = 4/pi
    oracle, err = quad(lambda t: abs(1 + np.exp(1j * t)) / (2 * np.pi), 0,
                       2 * np.pi)
    assert abs(oracle - 4 / np.pi) < 1e-9
    g = make_grid(4096)
    val = quadrature(g.samples(np.abs(1 + g.points)))
    assert abs(val - 4 / np.pi) < 1e-6


def _taylor(f, m):
    """c_0..c_m of the boundary samples f, by one FFT."""
    return coefficients_from_fft(np.fft.fft(f.values), m, f.grid.size)


def test_taylor_constant_and_monomials():
    g = make_grid(64)
    c = _taylor(g.samples(np.ones(64)), 10)
    assert np.allclose(c, np.eye(11)[0], atol=1e-14)
    for k in (1, 5, 20):
        c = _taylor(g.samples(g.points**k), 25)
        expected = np.zeros(26)
        expected[k] = 1.0
        assert np.allclose(c, expected, atol=1e-13)


def test_taylor_geometric_series():
    g = make_grid(256)
    f = g.samples(1.0 / (1.0 - g.points / 2))
    c = _taylor(f, 40)
    n = np.arange(41)
    # closed-form oracle 2^-n with the documented aliasing slack
    assert np.all(np.abs(c - 2.0**-n) <= 2.0 ** (-256 / 2 + n) + 1e-15)


def test_parseval():
    g = make_grid(512)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    f = g.samples(np.polynomial.polynomial.polyval(g.points, coeffs))
    m = 40
    c = _taylor(f, m)
    norm_sq = quadrature(g.samples(np.abs(f.values) ** 2)).real
    assert abs(norm_sq - np.sum(np.abs(c) ** 2)) < 1e-12 * norm_sq


def test_log_integral_constants():
    g = make_grid(1024)
    res = log_integral(g.samples(np.ones(1024)))
    assert res.value == 0.0 and not res.divergent
    res = log_integral(g.samples(np.full(1024, 1.0 / np.e)))
    assert abs(res.value + 1.0) < 1e-14 and not res.divergent


def test_log_integral_integrable_singularity():
    # log|t| is integrable: stable under refinement
    g = make_grid(2**14)
    t = np.abs(g.signed_angles())
    res = log_integral(g.samples(np.minimum(t / np.pi, 1.0)))
    oracle = (1 / np.pi) * quad(lambda s: np.log(s / np.pi), 0, np.pi)[0]
    assert not res.divergent
    assert abs(res.value - oracle) < 5e-3


def test_log_integral_harmonic_divergence():
    # 1/|t| is not integrable: flagged by refinement drift
    g = make_grid(2**11)
    t = np.abs(g.signed_angles())
    res = log_integral(g.samples(np.exp(-1.0 / t)))
    assert res.divergent


def test_log_integral_rejects_bad_values():
    g = make_grid(8)
    with pytest.raises(ValueError):
        log_integral(g.samples(np.full(8, 1.5)))
    with pytest.raises(ValueError):
        log_integral(g.samples(np.zeros(8) - 1.0))


@pytest.mark.parametrize("n", [2**10, 2**11, 2**12, 2**14])
def test_one_divergence_rule(n):
    # log_integral, outer_from_modulus and hs_weight read the same rule:
    # log(|t|/pi) is integrable, log(e^{-1/|t|}) = -1/|t| is not
    g = make_grid(n)
    t = np.abs(g.signed_angles())
    lin = t / np.pi
    assert not log_integral(g.samples(lin)).divergent
    assert not outer_from_modulus(g.samples(lin)).log_divergent
    # |w*|^2 = 1 - |phi*| = |t|/pi, phi the outer symbol of that table
    phi = custom_outer(g.signed_angles(), 1.0 - lin)
    assert not hs_weight(phi, g).log_divergent
    cusp = np.exp(-1.0 / t)
    assert log_integral(g.samples(cusp)).divergent
    with pytest.raises(NotLogIntegrableError):
        outer_from_modulus(g.samples(cusp))
    # extreme_not_exposed has 1 - |phi*| = e^{-1/|t|} in closed form
    assert hs_weight(extreme_not_exposed(), g).log_divergent
