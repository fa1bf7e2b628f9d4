"""Grid construction, quadrature, coefficient extraction, Hardy norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hardylab.grid import (
    GridError,
    hardy_norm,
    log_integral,
    make_grid,
    quadrature,
    taylor_coefficients,
)
from hardylab.outer import outer_from_modulus
from hardylab.symbols import custom_outer, extreme_not_exposed
from hardylab.weights import hs_weight


def test_grid_angles_offset():
    g = make_grid(8)
    expected = np.pi * np.arange(1, 16, 2) / 8
    assert np.allclose(g.angles, expected)
    assert np.all(np.abs(np.abs(g.points) - 1.0) < 1e-15)
    assert np.all(np.diff(g.angles) > 0)
    # no angle hits 0 or pi exactly
    assert not np.any(g.angles == 0.0)
    assert not np.any(g.angles == np.pi)


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


def test_taylor_constant_and_monomials():
    g = make_grid(64)
    c = taylor_coefficients(g.samples(np.ones(64)), 10)
    assert np.allclose(c, np.eye(11)[0], atol=1e-14)
    for k in (1, 5, 20):
        c = taylor_coefficients(g.samples(g.points**k), 25)
        expected = np.zeros(26)
        expected[k] = 1.0
        assert np.allclose(c, expected, atol=1e-13)


def test_taylor_geometric_series():
    g = make_grid(256)
    f = g.samples(1.0 / (1.0 - g.points / 2))
    c = taylor_coefficients(f, 40)
    n = np.arange(41)
    # closed-form oracle 2^-n with the documented aliasing slack
    assert np.all(np.abs(c - 2.0**-n) <= 2.0 ** (-256 / 2 + n) + 1e-15)


def test_taylor_aliasing_guard():
    g = make_grid(64)
    with pytest.raises(GridError):
        taylor_coefficients(g.samples(np.ones(64)), 32)


def test_hardy_norm_constant():
    g = make_grid(64)
    for p in (1.0, 2.0, 3.5):
        assert abs(hardy_norm(g.samples(np.full(64, 2.5 + 0j)), p) - 2.5) < 1e-12


def test_hardy_norm_one_plus_z():
    g = make_grid(4096)
    f = g.samples(1.0 + g.points)
    assert abs(hardy_norm(f, 2.0) - np.sqrt(2)) < 1e-8
    oracle, _ = quad(lambda t: abs(1 + np.exp(1j * t)) / (2 * np.pi), 0,
                     2 * np.pi)
    assert abs(hardy_norm(f, 1.0) - oracle) < 1e-6


def test_hardy_norm_rejects_small_p():
    g = make_grid(8)
    with pytest.raises(ValueError):
        hardy_norm(g.samples(np.ones(8)), 0.5)


def test_parseval():
    g = make_grid(512)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    f = g.samples(np.polynomial.polynomial.polyval(g.points, coeffs))
    m = 40
    c = taylor_coefficients(f, m)
    norm_sq = hardy_norm(f, 2.0) ** 2
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
    assert not outer_from_modulus(g.samples(lin), strict=False).log_divergent
    # |w*|^2 = 1 - |phi*| = |t|/pi, phi the outer symbol of that table
    phi = custom_outer(g.signed_angles(), 1.0 - lin)
    assert not hs_weight(phi, g, strict=False).log_divergent
    cusp = np.exp(-1.0 / t)
    assert log_integral(g.samples(cusp)).divergent
    assert outer_from_modulus(g.samples(cusp), strict=False).log_divergent
    # extreme_not_exposed has 1 - |phi*| = e^{-1/|t|} in closed form
    assert hs_weight(extreme_not_exposed(), g, strict=False).log_divergent
