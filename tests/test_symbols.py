"""Symbol catalog: boundary moduli, level sets, self-map checks."""

import math

import numpy as np
import pytest

from hardylab.grid import make_grid, log_integral
from hardylab.outer import OuterFunction
from hardylab.symbols import (
    REFERENCE_MAX,
    Symbol,
    _reference_size,
    beta_exp,
    constant,
    custom_outer,
    extreme_not_exposed,
    half,
    hs_extremal,
    lens,
    level_sets,
    parse_symbol,
)

import brute_force


def _lattice(radius=0.999, n_r=10, n_t=100):
    r = np.linspace(0.1, radius, n_r)
    t = 2 * np.pi * (np.arange(n_t) + 0.5) / n_t
    return (r[:, None] * np.exp(1j * t[None, :])).ravel()


# ---------------------------------------------------------------- lens

def test_lens_fixes_origin():
    assert abs(lens(0.5)(0.0)) < 1e-15


def test_lens_near_identity_limit():
    lam = lens(0.999)
    z = _lattice()
    assert np.max(np.abs(lam(z) - z)) < 1e-2


def test_lens_boundary_exponent():
    # fit of log(1 - |lambda*|) against log |t| over t in [1e-4, 1e-1]
    lam = lens(0.5)
    t = np.logspace(-4, -1, 60)
    slope = np.polyfit(np.log(t), np.log(lam.co(t)), 1)[0]
    assert abs(slope - 0.5) < 0.05


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_lens_self_map(theta):
    lam = lens(theta)
    assert np.max(np.abs(lam(_lattice()))) <= 1.0 - 1e-9


def test_lens_trace_inside_disk():
    g = make_grid(2**12)
    phi = lens(0.5)
    tr, mod = phi.trace(g), 1.0 - phi.co_modulus(g).values
    assert np.all(np.abs(tr.values) < 1.0)
    assert np.all(mod < 1.0)
    assert np.allclose(np.abs(tr.values), mod, atol=1e-14)


def test_lens_rejects_bad_theta():
    for theta in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValueError):
            lens(theta)


# ------------------------------------------------ boundary closed forms

_CLOSED_FORMS = [lens(0.3), lens(0.5), lens(0.7), half(), beta_exp(2.0),
                 constant(0.3 - 0.4j)]


@pytest.mark.parametrize("phi", _CLOSED_FORMS, ids=repr)
def test_boundary_closed_form_matches_the_complex_path(phi):
    # on the 2^12 grid angles, which stay pi/4096 away from t = pi, the
    # closed form in the angle is the interior closed form at e^{it}
    t = make_grid(2**12).signed_angles()
    direct = phi.analytic(np.exp(1j * t))
    assert np.max(np.abs(phi.boundary(t) - direct)) <= 1e-14
    assert np.array_equal(phi.trace(make_grid(2**12)).values, phi.boundary(t))
    # closer to pi, where (1 - e^{it})/(1 + e^{it}) loses its digits, the
    # modulus of the closed form is the cancellation-free 1 - co
    gap = 2.0 ** -np.arange(1, 53)
    near = np.concatenate([np.pi - gap, [np.pi], gap - np.pi])
    modulus = 1.0 - phi.co(near)
    assert np.max(np.abs(np.abs(phi.boundary(near)) - modulus)) <= 1e-15
    # a scalar angle reads as a one-point array would, and angles repeat
    # mod 2 pi up to the rounding of t + 2 pi
    assert phi.boundary(1.0) == phi.boundary(np.array([1.0]))[0]
    turned = phi.boundary(t + 2.0 * np.pi)
    assert np.max(np.abs(turned - phi.boundary(t))) <= 1e-12


def test_closed_form_symbol_needs_both_forms():
    with pytest.raises(ValueError, match="both analytic and boundary"):
        Symbol("custom", "interior only", (), (), co=lambda t: 0.5 + 0 * t,
               analytic=lambda z: z / 2)
    with pytest.raises(ValueError, match="both analytic and boundary"):
        Symbol("custom", "trace only", (), (), co=lambda t: 0.5 + 0 * t,
               boundary=lambda t: np.exp(1j * t) / 2)


# ---------------------------------------------------------------- half

def test_half_basics():
    phi = half()
    assert phi(0.0) == 0.5
    g = make_grid(256)
    tr, mod = phi.trace(g), 1.0 - phi.co_modulus(g).values
    assert np.allclose(tr.values, (1 + g.points) / 2, atol=1e-15)
    assert np.allclose(mod, np.abs(np.cos(g.angles / 2)), atol=1e-14)


def test_half_sup_approaches_one():
    phi = half()
    sups = [np.max(np.abs(phi(r * np.exp(1j * np.linspace(0, 2 * np.pi, 512)))))
            for r in (0.9, 0.99, 0.999)]
    assert np.all(np.diff(sups) > 0)
    assert sups[-1] > 0.999


# ---------------------------------------------------------------- beta_exp

def test_beta_exp_modulus_at_pi():
    for beta in (0.5, 1.0, 2.0):
        assert abs(1.0 - beta_exp(beta).co(np.pi)
                   - np.exp(-1)) < 1e-14


@pytest.mark.parametrize("beta", [0.0, -1.0, 2.5, np.nan])
def test_beta_exp_refuses_beta_outside_its_range(beta):
    with pytest.raises(ValueError, match=r"beta must be in \(0, 2\]"):
        beta_exp(beta)


def test_beta_exp_level_mass_rate():
    # c_k drops like 2^{-k/beta}
    g = make_grid(2**14)
    ls = level_sets(beta_exp(2.0), g)
    k = np.arange(4, 13)
    slope = np.polyfit(k, np.log2(ls.masses[4:13]), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_beta_two_matches_half_map_scale():
    # the beta=2 modulus at the rescaled angle t/sqrt(2) tracks |cos(t/2)|:
    # exp(-sin^2(t/(2 sqrt 2))) >= cos(t/2) - 1e-2 for |t| <= 1
    t = np.linspace(-1, 1, 201)
    lhs = 1.0 - beta_exp(2.0).co(t / np.sqrt(2))
    assert np.all(lhs >= np.cos(t / 2) - 1e-2)


def test_beta_exp_self_map():
    phi = beta_exp(2.0)
    vals = phi(_lattice())
    assert np.max(np.abs(vals)) <= 1.0 - 1e-9


def test_beta_exp_trace_modulus_closed_form():
    g = make_grid(2**12)
    phi = beta_exp(1.5)
    tr, mod = phi.trace(g), 1.0 - phi.co_modulus(g).values
    t = g.signed_angles()
    expected = np.exp(-np.abs(np.sin(t / 2)) ** 1.5)
    assert np.allclose(mod, expected, rtol=1e-14)
    assert np.allclose(np.abs(tr.values), expected, rtol=1e-12)


def test_beta_exp_interior_matches_trace_away_from_contact():
    # Interior values are the Taylor series of the transform-based trace, so
    # away from the contact angle they differ from it by the radial step
    # only: (1 - r) max|w'| = (8/N)(1/2) for w = exp((z - 1)/2).
    from hardylab.outer import outer_from_modulus

    n = 2**13
    g = make_grid(n)
    phi = beta_exp(2.0)
    w = outer_from_modulus(g.samples(1.0 - phi.co_modulus(g).values))
    t = g.signed_angles()
    sel = np.abs(t) > 1e-2
    probe = (1.0 - 8.0 / n) * g.points[sel][::64]
    evald = w(probe)
    traced = phi.trace(g).values[sel][::64]
    assert np.max(np.abs(evald - traced)) < 1e-3


@pytest.mark.parametrize("r", [0.999, 0.9999])
def test_beta_exp_two_near_circle_closed_form(r):
    z = r * np.exp(1j * (0.3 + 2 * np.pi * np.arange(1000) / 1000))
    assert np.max(np.abs(beta_exp(2.0)(z) - np.exp((z - 1.0) / 2.0))) < 1e-12


def test_beta_exp_half_near_circle_matches_series():
    # exp(-U) with U = a_0 + 2 sum a_k z^k, a_k the Fourier coefficients of
    # |sin(t/2)|^beta: a_0 = Gamma(beta+1) / (2^beta Gamma(1+beta/2)^2) and
    # a_{k+1} / a_k = (k - beta/2) / (k + 1 + beta/2), summed until r^k < e^-60.
    beta, r = 0.5, 0.9999
    thetas = 0.3 + 2 * np.pi * np.arange(8) / 8
    k = np.arange(int(60 / (1 - r)), dtype=float)
    a0 = math.gamma(beta + 1) / (2**beta * math.gamma(1 + beta / 2) ** 2)
    a = a0 * np.concatenate([[1.0], np.cumprod((k[:-1] - beta / 2)
                                               / (k[:-1] + 1 + beta / 2))])
    a[1:] *= 2.0
    terms = a * r**k
    want = np.exp(-np.array([np.sum(terms * np.exp(1j * k * th)) for th in thetas]))
    got = beta_exp(beta)(r * np.exp(1j * thetas))
    # the reference grid grows with the radius; what is left (6.9e-7
    # measured) is the aliasing of the cusp's k^-1.5 spectrum
    assert np.max(np.abs(got - want)) < 2e-6


@pytest.mark.parametrize("make", [lambda: beta_exp(0.5), extreme_not_exposed])
def test_outer_symbol_refuses_radius_beyond_reference_grid(make):
    phi = make()
    phi(0.9999 * np.exp(0.3j))
    with pytest.raises(ValueError, match="radius 0.99999 "):
        phi(np.array([0.5, 0.99999j]))
    with pytest.raises(ValueError, match="radius 1.0 is not inside the unit disk"):
        phi(1.0)


def _outer_function():
    g = make_grid(1 << 10)
    return OuterFunction(g, 0.3 * np.cos(g.angles))


@pytest.mark.parametrize("make", [lambda: lens(0.5), half, lambda: beta_exp(2.0),
                                  lambda: beta_exp(0.5), extreme_not_exposed,
                                  _outer_function],
                         ids=["lens", "half", "betaexp2", "betaexp0.5", "extreme",
                              "outer"])
@pytest.mark.parametrize("z, radius", [(1.0, "1.0"), (1.5, "1.5"), (np.nan, "nan"),
                                       (np.array([0.5, 1.5]), "1.5")])
def test_interior_evaluation_refuses_the_closed_disk_complement(make, z, radius):
    # closed forms used to evaluate outside the disk (half()(2.0) = 1.5),
    # an outer function at NaN returned NaN, and an outer-type symbol at
    # 1.5 raised OverflowError
    with pytest.raises(ValueError, match=f"^radius {radius} is not inside the unit disk"):
        make()(z)


def test_reference_size_stops_at_the_largest_grid():
    # the largest reference grid serves r = 0.99997 but not 0.99998; past
    # it the refusal comes before any grid is built
    assert _reference_size(0.99997) == REFERENCE_MAX == 1 << 20
    beyond = r"beyond the largest reference grid \(N = 1048576\)"
    with pytest.raises(ValueError, match=beyond):
        _reference_size(0.99998)
    with pytest.raises(ValueError, match=beyond):
        beta_exp(0.5)(np.array([0.99999]))


def _counting(co):
    calls = []

    def counted(t):
        calls.append(np.size(t))
        return co(t)

    return counted, calls


def test_outer_symbol_keeps_its_interior_per_reference_size():
    import dataclasses

    counted, calls = _counting(beta_exp(0.5).co)
    phi = dataclasses.replace(beta_exp(0.5), co=counted)
    z = 0.9 * np.exp(1j * np.linspace(0, 6, 7))
    first = phi(z)
    assert len(calls) == 1
    assert np.array_equal(phi(z), first)
    phi(0.5)  # the same reference size (REFERENCE_MIN) as radius 0.9
    assert len(calls) == 1
    phi(0.999)  # a larger reference size is built once
    phi(0.999j)
    assert calls == [4096, 32768]
    # what is kept evaluates as a fresh outer function does
    g = make_grid(4096)
    fresh = OuterFunction(g, np.log1p(-beta_exp(0.5).co(g.signed_angles())))(z)
    assert np.array_equal(first, fresh)


def test_outer_symbol_keeps_its_refusal():
    from hardylab.outer import NotLogIntegrableError

    counted, calls = _counting(lambda t: -np.expm1(-1.0 / np.abs(t)))
    phi = Symbol("custom", "divergent", (), (0.0,), co=counted)
    for _ in range(2):
        with pytest.raises(NotLogIntegrableError):
            phi(0.5)
    assert len(calls) == 1


# ------------------------------------------------- extreme / hs-extremal

def test_extreme_modulus_values():
    phi = extreme_not_exposed()
    assert abs(phi.co(np.pi) - np.exp(-1 / np.pi)) < 1e-14
    g = make_grid(2**14)
    res = log_integral(g.samples(1.0 - phi.co_modulus(g).values))
    assert not res.divergent  # |phi*| itself is log-integrable


def test_extreme_co_modulus_not_log_integrable():
    phi = extreme_not_exposed()
    g = make_grid(2**14)
    co = phi.co(g.signed_angles())
    res = log_integral(g.samples(np.maximum(co, 1e-320)))
    assert res.divergent


def test_extreme_boundary_contact_fractions_vanish():
    # proxy for m({|phi*| = 1}) = 0: the masses of {|phi*| > 1 - delta}
    # decrease with delta; read from the co-modulus, so 1e-24 is resolved
    phi = extreme_not_exposed()
    g = make_grid(2**14)
    co = phi.co(g.signed_angles())
    fr = np.array([np.mean(co < delta) for delta in (1e-6, 1e-12, 1e-24)])
    assert np.all(np.diff(fr) < 0)
    assert fr[1] < 0.02


def test_hs_extremal_bounded_below():
    phi = hs_extremal()
    g = make_grid(2**14)
    mod = 1.0 - phi.co_modulus(g).values
    floor = 1 - np.exp(-np.exp(1 / np.pi))
    assert np.all(mod >= floor - 1e-15)
    assert floor > 0.74


def test_hs_extremal_co_modulus_not_log_integrable():
    # log(1 - |phi*|) = -e^{1/|t|} has a divergent integral (substitute
    # s = 1/t: the integrand e^s/s^2 is not integrable at infinity), so the
    # refinement oracle reports divergence at every grid size.
    phi = hs_extremal()
    for n in (2**10, 2**12, 2**14):
        g = make_grid(n)
        co = phi.co(g.signed_angles())
        res = log_integral(g.samples(np.maximum(co, 1e-320)))
        assert res.divergent


# ---------------------------------------------------------------- custom

def test_custom_outer_matches_table():
    g = make_grid(512)
    u = 0.3 + 0.2 * np.cos(g.angles)
    phi = custom_outer(g.angles, u)
    assert np.allclose(1.0 - phi.co_modulus(g).values, u, atol=1e-12)
    tr = phi.trace(g)
    assert np.allclose(np.abs(tr.values), u, rtol=1e-12)


def test_custom_outer_validation():
    with pytest.raises(ValueError):
        custom_outer([0.0, 1.0], [0.5, 1.5])
    # tables that do not match: unequal lengths, 2-d, a single entry
    for angles, modulus in (([0.0, 1.0, 2.0], [0.5, 0.5]), ([[0.0, 1.0]], [[0.5, 0.5]]),
                            ([0.0], [0.5])):
        with pytest.raises(ValueError, match="matching 1-d angle and modulus tables"):
            custom_outer(angles, modulus)
    # a NaN modulus or a NaN or infinite angle, which used to pass
    for angles, modulus in (([0.0, 1.0], [0.5, np.nan]), ([0.0, np.nan], [0.5, 0.5]),
                            ([0.0, np.inf], [0.5, 0.5])):
        with pytest.raises(ValueError, match="NaN"):
            custom_outer(angles, modulus)


@pytest.mark.parametrize("modulus", [1e-20, 0.0, -0.5, 2.0**-26 * (1 - 2.0**-52)])
def test_custom_outer_refuses_moduli_below_the_floor(modulus):
    # 1 - m rounds to within 2^-54, which moves log m by more than 2^-28
    # below m = 2^-26: [1e-20, 1e-20, 0.5, ...] used to read |trace| 0.0
    # and a spurious NotLogIntegrableError
    table = [modulus, modulus, 0.5, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError, match=r"modulus in \[2\^-26 = 1.49e-08, 1\], not "
                                         f"NaN; smallest {min(table):g}$"):
        custom_outer(np.arange(6.0), table)
    table[:2] = [2.0**-26] * 2
    assert np.min(np.abs(custom_outer(np.arange(6.0), table).trace(make_grid(64)).values)) > 0.0


def test_custom_outer_co_is_the_hand_built_periodic_interpolation():
    # np.interp(period=) against the reduced, sorted, end-extended table,
    # bit for bit: 200 random tables, sorted and unsorted, angles in
    # [-10, 10], read at grid, random and table angles
    rng = np.random.default_rng(7)
    g = make_grid(64)
    for i in range(200):
        size = int(rng.integers(2, 40))
        angles = rng.uniform(-10.0, 10.0, size)
        if i % 2:
            angles.sort()
        modulus = rng.uniform(0.05, 1.0, size)
        phi = custom_outer(angles, modulus)
        for t in (g.signed_angles(), g.angles, rng.uniform(-10.0, 10.0, 50), angles):
            assert np.array_equal(phi.co(t), brute_force.table_co_modulus(angles, modulus, t))


def test_custom_outer_keeps_its_own_table():
    # the symbol reads a copy: writing to the caller's arrays afterwards
    # does not move it
    angles, modulus = np.linspace(0.0, 6.0, 8), np.full(8, 0.5)
    phi = custom_outer(angles, modulus)
    angles += 1.0
    modulus[:] = 0.9
    assert np.all(phi.co(make_grid(64).angles) == 0.5)


_TABLE = (np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False),
          0.6 + 0.35 * np.cos(3.0 * np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)))
_OUTER_TYPES = [
    (beta_exp(0.5), lambda t: brute_force.beta_exp_log_modulus(0.5, t)),
    (extreme_not_exposed(), lambda t: np.log1p(-np.exp(-1.0 / np.abs(t)))),
    (hs_extremal(), lambda t: np.log1p(-np.exp(-np.exp(1.0 / np.abs(t))))),
    (custom_outer(*_TABLE), lambda t: brute_force.table_log_modulus(*_TABLE, t)),
]


def _largest_relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("phi, log_modulus", _OUTER_TYPES,
                         ids=[phi.label for phi, _ in _OUTER_TYPES])
def test_outer_type_symbol_is_the_outer_function_of_its_co_modulus(phi, log_modulus):
    # log1p(-co) against the log-modulus in closed form: the traces and the
    # interior values agree within 1e-15 of their largest magnitude
    with np.errstate(divide="ignore", over="ignore"):
        for n in (2**12, 2**16):
            g = make_grid(n)
            want = OuterFunction(g, log_modulus(g.signed_angles())).boundary().values
            assert _largest_relative(phi.trace(g).values, want) <= 1e-15
        for r in (0.5, 0.9, 0.99, 0.999):
            z = r * np.exp(1j * np.linspace(0.1, 6.2, 40))
            g = make_grid(_reference_size(r))
            want = OuterFunction(g, log_modulus(g.signed_angles()))(z)
            assert _largest_relative(phi(z), want) <= 1e-15


@pytest.mark.parametrize("c", [np.nan, complex(0.0, np.nan)])
def test_constant_refuses_nan(c):
    with pytest.raises(ValueError, match="NaN"):
        constant(c)


@pytest.mark.parametrize("c, radius", [(1.0, "1.0"), (1.5, "1.5"), (np.nan, "nan"),
                                       (0.6 + 0.8j, "1.0")])
def test_constant_refuses_by_the_interior_domain(c, radius):
    # the one rule of interior evaluation, hardylab.outer._interior_radius
    with pytest.raises(ValueError, match=f"^radius {radius} is not inside the unit disk"):
        constant(c)
    assert constant(0.999).co(np.zeros(3)) == pytest.approx(0.001, rel=1e-12)


# ---------------------------------------------------------------- levels

def test_level_sets_constant_symbol():
    g = make_grid(256)
    ls = level_sets(constant(0.5), g)
    assert ls.masses[0] == 1.0
    assert np.all(ls.masses[1:] == 0.0)


def test_level_sets_nested_masks():
    g = make_grid(2**12)
    ls = level_sets(half(), g)
    for k in range(1, ls.k_max + 1):
        assert np.all((ls.level_index >= k) <= (ls.level_index >= k - 1))
    assert np.all(np.diff(ls.masses) <= 0)


def test_level_sets_half_closed_form():
    # oracle: solve 1 - cos(t/2) = 2^-k, so c_k = 2 arccos(1 - 2^-k) / pi
    g = make_grid(2**16)
    ls = level_sets(half(), g)
    for k in range(6, 13):
        oracle = 2 * np.arccos(1 - 2.0**-k) / (2 * np.pi) * 2
        assert abs(ls.masses[k] / oracle - 1.0) < 0.1


def test_level_sets_resolution_guard():
    # dyadic levels down to k = log2(N) - 2, at least four samples per set
    for log_n in (8, 10, 16):
        ls = level_sets(half(), make_grid(1 << log_n))
        assert ls.k_max == log_n - 2
        assert np.array_equal(ls.thresholds, 2.0 ** -np.arange(log_n - 1))


def _loop_level_sets(co, thresholds):
    """Reference: one boolean pass and one mean per level."""
    level = np.zeros(co.size, dtype=np.int64)
    for k in range(1, len(thresholds)):
        level[co < thresholds[k]] = k
    return level, np.array([np.mean(level >= k) for k in range(len(thresholds))])


def test_level_sets_match_loop_rule():
    g = make_grid(2**10)
    rng = np.random.default_rng(7)
    co = rng.random(g.size) ** 4
    # co exactly on every threshold, at 0, at 1 and NaN
    edges = 2.0 ** -np.arange(9)
    co[: edges.size] = edges
    co[20:30] = 0.0
    co[30:35] = 1.0
    co[35:40] = np.nan
    # the neighbours of every threshold and of the powers of two past the
    # deepest, subnormals, -0.0, negatives and both infinities
    powers = 2.0 ** -np.arange(12)
    special = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(powers, 1.0),
                              powers[9:], [5e-324, 1e-310, -0.0, -1e-300, -2.0,
                                           np.inf, -np.inf]])
    co[100:100 + special.size] = special
    # a symbol whose co-modulus on this grid is exactly the crafted samples
    phi = Symbol(kind="table", label="table", params=(), singular_angles=(),
                 co=lambda t: co, analytic=lambda z: z,
                 boundary=lambda t: np.exp(1j * t))
    ls = level_sets(phi, g)
    assert np.isin(ls.thresholds, co).all()
    level, masses = _loop_level_sets(co, ls.thresholds)
    assert ls.level_index.dtype == np.int8
    assert np.array_equal(ls.level_index, level)
    assert np.array_equal(ls.masses, masses)
    assert np.all(ls.level_index[35:40] == 0)


# ---------------------------------------------------------------- parsing

def test_parse_symbol_roundtrip():
    assert parse_symbol("half").kind == "half"
    assert parse_symbol("lens:0.5").params == (0.5,)
    assert parse_symbol("betaexp:2.0").params == (2.0,)
    assert parse_symbol("extreme").kind == "extreme"
    assert parse_symbol("hsx").kind == "hsx"
    with pytest.raises(ValueError):
        parse_symbol("moebius:0.1")


def test_parse_symbol_outer_file(tmp_path):
    g = make_grid(64)
    u = 0.4 + 0.1 * np.sin(g.angles)
    path = tmp_path / "mod.csv"
    np.savetxt(path, np.column_stack([g.angles, u]), delimiter=",")
    phi = parse_symbol(f"outer:{path}")
    assert np.allclose(1.0 - phi.co_modulus(g).values, u, atol=1e-12)


def test_parse_symbol_refuses_a_table_without_two_columns(tmp_path):
    for rows in ("0.0,0.5,1.0\n1.0,0.5,1.0\n", "0.5\n0.6\n"):
        path = tmp_path / "table.csv"
        path.write_text(rows)
        with pytest.raises(ValueError, match="expected two CSV columns angle,modulus"):
            parse_symbol(f"outer:{path}")
    path.write_text("0.0,0.5\n3.0,0.6\n")
    assert parse_symbol(f"outer:{path}").kind == "customouter"
