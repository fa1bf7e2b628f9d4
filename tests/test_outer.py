"""Outer functions: reconstruction from a modulus, their Herglotz function
U = log f, and the conjugate function that gives the boundary phase."""

import numpy as np
import pytest
from scipy.integrate import quad

from hardylab import outer as outer_module
from hardylab.grid import GridError, coefficients_from_fft, make_grid, refined_mean
from hardylab.outer import (
    NotLogIntegrableError,
    OuterFunction,
    _hilbert_transform,
    outer_from_modulus,
)
from hardylab.symbols import half
from hardylab.weights import parse_weight


def test_hilbert_transform_of_cosine():
    # the outer function of log-modulus cos(kt) is exp(z^k): its boundary
    # phase is sin(kt), the conjugate function of cos(kt)
    g = make_grid(256)
    t = g.angles
    for k in (1, 3, 10):
        phase = np.angle(OuterFunction(g, np.cos(k * t)).boundary().values)
        assert np.allclose(phase, np.sin(k * t), atol=1e-12)


@pytest.mark.parametrize("n", [5, 8, 9, 16, 33])
def test_hilbert_transform_every_frequency(n):
    # odd N has no Nyquist term: k = (N-1)/2 is a positive frequency
    t = 2 * np.pi * np.arange(n) / n
    for k in range(1, (n + 1) // 2):
        assert np.max(np.abs(_hilbert_transform(np.cos(k * t))
                             - np.sin(k * t))) < 1e-13
        assert np.max(np.abs(_hilbert_transform(np.sin(k * t))
                             + np.cos(k * t))) < 1e-13


def test_outer_constant_modulus():
    g = make_grid(512)
    w = outer_from_modulus(g.samples(np.full(512, 0.7)))
    for z in (0.0, 0.5, 0.3 + 0.4j):
        assert abs(w(z) - 0.7) < 1e-12
    assert np.allclose(w.boundary_modulus().values, 0.7)


def test_outer_value_at_zero_is_geometric_mean():
    g = make_grid(1024)
    u = 0.5 + 0.3 * np.cos(g.angles) ** 2
    w = outer_from_modulus(g.samples(u))
    expected = np.exp(np.mean(np.log(u)))
    assert abs(w(0.0) - expected) < 1e-12


def _taylor(f, m):
    """c_0..c_m of the boundary samples f, by one FFT."""
    return coefficients_from_fft(np.fft.fft(f.values), m, f.grid.size)


def test_outer_reconstructs_one_minus_z():
    # oracle: 1 - z is the outer function with modulus 2|sin(t/2)|
    g = make_grid(2**13)
    u = 2.0 * np.abs(np.sin(g.angles / 2))
    w = outer_from_modulus(g.samples(u))
    c = _taylor(w.boundary(), 6)
    unimodular = c[0] / abs(c[0])
    c = c / unimodular
    expected = np.array([1.0, -1.0, 0, 0, 0, 0, 0])
    assert np.max(np.abs(c - expected)) < 1e-4


def test_outer_reconstruction_error_halves_with_n():
    errs = []
    for n in (2**11, 2**12):
        g = make_grid(n)
        u = 2.0 * np.abs(np.sin(g.angles / 2))
        w = outer_from_modulus(g.samples(u))
        c = _taylor(w.boundary(), 2)
        errs.append(abs(c[1] + 1.0))
    assert errs[1] <= 0.6 * errs[0]


def test_outer_modulus_matches_target_on_grid():
    g = make_grid(512)
    u = np.exp(-0.5 + 0.4 * np.cos(g.angles) + 0.2 * np.sin(3 * g.angles))
    w = outer_from_modulus(g.samples(u))
    assert np.allclose(w.boundary_modulus().values, u, rtol=1e-13)
    assert np.allclose(np.abs(w.boundary().values), u, rtol=1e-13)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_outer_from_modulus_refuses_non_finite_or_negative_samples(bad):
    g = make_grid(64)
    u = np.full(64, 0.5)
    u[3] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        outer_from_modulus(g.samples(u))


@pytest.mark.parametrize("shape", [(2**11,), (2**9,), (2**10, 1)])
def test_outer_function_refuses_samples_off_its_grid(shape):
    # the interior values used to read the coefficients of a longer FFT
    with pytest.raises(GridError, match="expected 1024 samples, got shape"):
        OuterFunction(make_grid(2**10), np.zeros(shape))


def test_outer_not_log_integrable():
    g = make_grid(2**12)
    t = np.abs(g.signed_angles())
    with pytest.raises(NotLogIntegrableError):
        outer_from_modulus(g.samples(np.exp(-1.0 / t)))
    w = OuterFunction(g, -1.0 / t)
    assert w.log_divergent
    # the boundary modulus is still the prescribed one
    assert np.allclose(w.boundary().values.real, np.exp(-1.0 / t))


# The Herglotz function of real data u is U = log f, f the outer function
# of log-modulus u; the tests below read U back from f.

def test_herglotz_constant():
    g = make_grid(256)
    f = OuterFunction(g, np.full(256, 3.0))
    assert abs(np.log(f(0.0)) - 3.0) < 1e-13
    assert abs(np.log(f(0.4 - 0.2j)) - 3.0) < 1e-12


def test_herglotz_one_plus_cos():
    # oracle: direct kernel expansion gives U(z) = 1 + z for u = 1 + cos t
    def oracle(z, terms=40):
        total = quad(lambda t: (1 + np.cos(t)) / (2 * np.pi), 0, 2 * np.pi)[0]
        for k in range(1, terms):
            ck = quad(
                lambda t: ((1 + np.cos(t)) * np.cos(k * t)) / (2 * np.pi),
                0, 2 * np.pi)[0] - 1j * quad(
                lambda t: ((1 + np.cos(t)) * np.sin(k * t)) / (2 * np.pi),
                0, 2 * np.pi)[0]
            total += 2 * ck * z**k
        return total

    g = make_grid(2**12)
    f = OuterFunction(g, 1.0 + np.cos(g.angles))
    for z in (0.0, 0.5j, -0.7):
        assert abs(oracle(z) - (1 + z)) < 1e-9
        assert abs(np.log(f(z)) - (1 + z)) < 1e-6


def test_herglotz_at_zero_is_mean():
    g = make_grid(2048)
    vals = np.abs(np.sin(g.angles / 2)) ** 2
    f = OuterFunction(g, vals)
    assert abs(np.log(f(0.0)) - 0.5) < 1e-12


def test_herglotz_positivity():
    # nonnegative data: Re U >= 0, so |f| >= 1, as far as the interpolant of
    # the data stays nonnegative.  The mean of this white noise on 2^10
    # points moves 3.9% on its stride-4 subgrid, so its outer function is
    # refused as log-divergent; on 2^14 points it moves less than 1%.
    g = make_grid(2**14)
    rng = np.random.default_rng(11)
    f = OuterFunction(g, rng.random(g.size))
    assert not f.log_divergent
    pts = 0.99 * np.exp(2j * np.pi * rng.random(1000)) * rng.random(1000)
    assert np.all(np.abs(f(pts)) >= np.exp(-1e-8))


def test_herglotz_boundary_real_part():
    # U* = u + i Hu, and H sin = -cos
    g = make_grid(512)
    data = 1.0 + 0.5 * np.sin(g.angles)
    trace = OuterFunction(g, data).boundary().values
    assert np.allclose(np.log(np.abs(trace)), data, atol=1e-12)
    assert np.allclose(np.angle(trace), -0.5 * np.cos(g.angles), atol=1e-12)


def test_herglotz_matches_direct_taylor_sum():
    # reference: U(z) = c_0 + 2 sum_{0<k<N/2} c_k z^k with the DFT
    # coefficients c_k = mean(u(t_j) e^{-ik t_j}) summed term by term
    g = make_grid(256)
    rng = np.random.default_rng(5)
    data = rng.random(256)
    z = 0.95 * np.sqrt(rng.random((3, 50))) * np.exp(2j * np.pi * rng.random((3, 50)))
    k = np.arange(128)
    c = (data[None, :] * np.exp(-1j * k[:, None] * g.angles[None, :])).mean(axis=1)
    c[1:] *= 2.0
    direct = (z[..., None] ** k * c).sum(axis=-1)
    got = OuterFunction(g, data)(z)
    assert got.shape == z.shape
    assert np.max(np.abs(got / np.exp(direct) - 1.0)) < 1e-12


def test_outer_near_circle_matches_closed_form():
    # 1 + z/2 is outer with modulus |1 + xi/2|; interior values are the
    # Taylor series of the trace, exact up to aliasing at the 2^{-N/2} scale
    g = make_grid(2**16)
    w = outer_from_modulus(g.samples(np.abs(1.0 + g.points / 2.0)))
    z = 0.9999 * np.exp(1j * (0.3 + 2 * np.pi * np.arange(64) / 64))
    assert np.max(np.abs(w(z) - (1.0 + z / 2.0))) < 1e-12


@pytest.mark.parametrize("z", [1.0, -1j, np.array([0.5, 1.5])])
def test_herglotz_and_outer_refuse_points_off_the_open_disk(z):
    g = make_grid(64)
    with pytest.raises(ValueError, match=r"\|z\| < 1"):
        OuterFunction(g, 1.0 + np.cos(g.angles))(z)


def test_outer_function_owns_its_divergence_verdict():
    # built directly, with no verdict passed in: -1/|t| is not integrable
    g = make_grid(2**10)
    f = OuterFunction(g, -1.0 / np.abs(g.signed_angles()))
    assert f.log_divergent
    with pytest.raises(NotLogIntegrableError):
        f(0.5)
    b = f.boundary().values
    assert np.all(np.angle(b) == 0.0)
    assert np.array_equal(b, f.boundary_modulus().values)


def test_outer_verdict_is_computed_once(monkeypatch):
    calls = []

    def counting(values):
        calls.append(1)
        return refined_mean(values)

    monkeypatch.setattr(outer_module, "refined_mean", counting)
    g = make_grid(512)
    f = outer_from_modulus(g.samples(np.exp(np.cos(g.angles))))
    f.boundary()
    f(0.5)
    assert not f.log_divergent
    w = parse_weight("hs", half(), g, strict=False)
    w.outer(0.5)
    assert not w.log_divergent
    assert len(calls) == 2


def test_outer_divergent_refuses_interior_values():
    g = make_grid(2**10)
    w = OuterFunction(g, -1.0 / np.abs(g.signed_angles()))
    assert w.log_divergent
    with pytest.raises(ValueError, match="not integrable"):
        w(0.5)
