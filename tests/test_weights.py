"""Weight recipes: moduli hit their targets, outer normalization, errors,
and the one refusal rule for a log-divergent weight."""

import numpy as np
import pytest

from hardylab.grid import make_grid, quadrature
from hardylab.outer import NotLogIntegrableError
from hardylab.symbols import (
    beta_exp,
    constant,
    extreme_not_exposed,
    half,
    hs_extremal,
    lens,
    level_sets,
    parse_symbol,
)
from hardylab.weights import (
    WeightError,
    box_decompact_weight,
    compactify_weight,
    default_gauge,
    hs_weight,
    lens_decompact_weight,
    parse_weight,
    power_weight,
    staircase_weight,
    stretched_staircase_delta,
    unit_weight,
)
from hardylab.carleson import pullback

from brute_force import window_mass


GRID = make_grid(2**12)


def _outer_normalization(w, tol=1e-6):
    # |w(0)| = exp(quadrature of log |w*|)
    vals = np.abs(w.modulus.values)
    expected = np.exp(quadrature(w.grid.samples(np.log(vals))).real)
    assert abs(abs(w.outer(0.0)) - expected) <= tol * max(expected, 1e-12)


# ---------------------------------------------------------------- unit / hs

def test_unit_weight():
    w = unit_weight(GRID)
    assert np.all(w.modulus.values == 1.0)
    assert not w.log_divergent


def test_hs_weight_constant_zero_symbol():
    w = hs_weight(constant(0.0), GRID)
    assert np.allclose(w.modulus.values, 1.0)


def test_hs_weight_half_modulus_squared():
    w = hs_weight(half(), GRID)
    t = GRID.signed_angles()
    assert np.allclose(w.density() + np.abs(np.cos(t / 2)), 1.0, atol=1e-13)
    _outer_normalization(w)


def test_hs_weight_extreme_divergent():
    # the recipe carries the verdict; parse_weight(strict=True) refuses it
    assert hs_weight(extreme_not_exposed(), GRID).log_divergent
    with pytest.raises(NotLogIntegrableError, match="hs: divergent log-integral"):
        parse_weight("hs", extreme_not_exposed(), GRID)


def test_hs_weight_nonstrict_keeps_modulus():
    phi = hs_extremal()
    w = hs_weight(phi, GRID)
    assert w.log_divergent
    with pytest.raises(NotLogIntegrableError):
        w.outer(0.5)
    co = phi.co_modulus_of_angle(GRID.signed_angles())
    assert np.allclose(w.density(), co, rtol=1e-12)
    # the H2 norm of the modulus is perfectly finite
    assert 0.0 < w.h2_norm_sq() < 1.0


# ---------------------------------------------------------------- power

def test_power_weight_zero_exponent_is_unit():
    w = power_weight(half(), GRID, 0.0)
    assert np.all(w.modulus.values == 1.0)


def test_power_weight_k2_pointwise_bound():
    # n^2 max_j (1-u)^2 u^n <= sup_{x in (0,1)} n^2 (1-x)^2 x^n <= 4
    phi = hs_extremal()
    w = power_weight(phi, GRID, 2.0)
    mod = 1.0 - phi.co_modulus_of_angle(GRID.signed_angles())
    for n in (1, 8, 64, 512):
        assert n**2 * np.max(w.modulus.values * mod**n) <= 4.0 + 1e-9


def test_gauge_weight_dominated_by_power():
    # gauge >= 2 everywhere, so (1-u)^gauge <= (1-u)^2 pointwise
    phi = half()
    wg = power_weight(phi, GRID, default_gauge)
    w2 = power_weight(phi, GRID, 2.0)
    assert np.all(wg.modulus.values <= w2.modulus.values + 1e-15)
    _outer_normalization(wg)


def test_gauge_rejects_values_below_one():
    with pytest.raises(WeightError):
        power_weight(half(), GRID, lambda t: np.full_like(t, 0.5))


# ---------------------------------------------------------------- compactify

def test_compactify_constant_symbol_gives_unit():
    ls = level_sets(constant(0.5), GRID)
    w, sched = compactify_weight(ls)
    assert np.all(w.modulus.values == 1.0)
    assert sched.series.verdict == "converging"


def test_compactify_beta_two():
    g = make_grid(2**14)
    ls = level_sets(beta_exp(2.0), g)
    w, sched = compactify_weight(ls)
    assert sched.series.verdict == "converging"
    assert sched.series.total < 1.0
    # |w*| = 1/n! style products: on F_{k_n} the modulus is at most 1/n
    for n, k_n in enumerate(sched.ks, start=1):
        on_set = ls.mask(int(k_n))
        if on_set.any():
            assert np.max(w.modulus.values[on_set]) <= 1.0 / n + 1e-12
    _outer_normalization(w)


def test_compactify_rejects_fat_level_sets():
    # 1 - |phi*| = 1e-4 is below every h_k = 2^-k, k <= 10, that a 2^12
    # grid resolves: every level set has full mass, c_k = 1 > 1/2
    ls = level_sets(constant(0.9999), GRID)
    with pytest.raises(WeightError, match="not compactifiable"):
        compactify_weight(ls)


# ---------------------------------------------------------------- staircase

def test_staircase_unit_deltas():
    ls = level_sets(beta_exp(2.0), GRID)
    w, series = staircase_weight(ls, np.ones(9))
    assert np.all(w.modulus.values == 1.0)
    assert series.total == 0.0


def test_staircase_single_level():
    # delta_1 = 1/2, all others 1: |w*| = 1/2 on F_1, 1 elsewhere
    ls = level_sets(beta_exp(2.0), GRID)
    delta = np.concatenate([[0.5], np.ones(8)])
    w, _ = staircase_weight(ls, delta)
    on1 = ls.mask(1)
    assert np.allclose(w.modulus.values[~on1], 1.0)
    assert np.allclose(w.modulus.values[on1], 0.5)


def test_staircase_modulus_is_cumulative_product():
    ls = level_sets(beta_exp(2.0), GRID)
    delta = stretched_staircase_delta(2.0, 9)
    w, series = staircase_weight(ls, delta)
    assert series.verdict == "converging"
    lev = ls.level_index
    expected = np.concatenate([[1.0], np.cumprod(delta)])
    assert np.allclose(w.modulus.values, expected[np.minimum(lev, 9)],
                       rtol=1e-12)
    _outer_normalization(w)


def test_staircase_refuses_a_harmonic_series():
    # delta_k chosen so that c_k log(1/delta_k) = 1/k: the series diverges
    ls = level_sets(beta_exp(2.0), GRID)
    k = np.arange(1, 10)
    delta = np.exp(-1.0 / (k * ls.masses[1:10]))
    with pytest.raises(WeightError, match=r"divergent staircase: .* reads "
                       r"'(diverging|inconclusive)', tail exponent (1\.0|0\.99)"):
        staircase_weight(ls, delta)


def test_staircase_series_matches_quadratic_tail():
    # c_k log(1/delta_k) tracks (2 sqrt2/pi)/k^2 for the beta=2 schedule
    g = make_grid(2**22)
    ls = level_sets(beta_exp(2.0), g)
    delta = stretched_staircase_delta(2.0, 20)
    terms = ls.masses[1:21] * np.log(1.0 / delta)
    ks = np.arange(1, 21)
    reference = np.sum(1.0 / ks[6:] ** 2)
    assert 0.5 * reference <= np.sum(terms[6:]) <= 1.5 * reference


# ---------------------------------------------------------------- lens

def test_lens_decompact_exponent():
    w = lens_decompact_weight(0.5, GRID)
    lam = lens(0.5).trace(GRID).values
    assert np.allclose(w.modulus.values, np.abs(1 - lam) ** -0.5, rtol=1e-12)


def test_lens_decompact_h2_norm_stabilizes():
    norms = []
    for n in (2**12, 2**14, 2**16):
        w = lens_decompact_weight(0.5, make_grid(n))
        norms.append(np.sqrt(w.h2_norm_sq()))
    assert abs(norms[2] - norms[1]) <= 0.02 * norms[2]


def test_lens_decompact_value_at_zero():
    # w(0) = (1 - lambda(0))^a = 1; quadrature normalization holds at the
    # log-singularity's resolution
    w = lens_decompact_weight(0.5, GRID)
    logs = np.log(w.modulus.values)
    assert abs(np.exp(np.mean(logs)) - 1.0) < 1e-3


def test_lens_decompact_outer_matches_closed_form():
    # the outer function of the recipe's log-modulus is (1 - lambda)^a
    g = make_grid(2**16)
    w = lens_decompact_weight(0.5, g)
    lam = lens(0.5)
    assert not w.log_divergent
    for r in (0.0, 0.5, 0.9):
        z = r * np.exp(1j * (0.3 + 2 * np.pi * np.arange(16) / 16))
        exact = (1.0 - lam(z)) ** -0.5
        assert np.max(np.abs(w.outer(z) / exact - 1.0)) < 1e-4


# ---------------------------------------------------------------- boxes

def test_box_decompact_constant_rejected():
    with pytest.raises(WeightError, match="norm below one"):
        box_decompact_weight(constant(0.5), GRID)


def test_box_decompact_beta_half():
    g = make_grid(2**14)
    phi = beta_exp(0.5)
    w, boxes = box_decompact_weight(phi, g)
    u = boxes.u
    assert np.all(u >= 1.0)
    assert quadrature(g.samples(u - 1.0)).real <= boxes.added_mass + 1e-12
    assert boxes.added_mass <= 1.0
    assert np.all(np.diff(boxes.ks) > 0)
    # nu(W(center, 2^-k)) >= 2^-k at every chosen box
    nu = pullback(phi.trace(g), u)
    for k, center in zip(boxes.ks, boxes.centers):
        got = window_mass(nu, center, 2.0 ** -float(k))
        assert got >= 2.0 ** -float(k) - 1e-12
    _outer_normalization(w)


# ---------------------------------------------------------------- parsing

def test_parse_weight_forms():
    g = make_grid(2**10)
    phi = beta_exp(2.0)
    assert parse_weight("unit", phi, g).name == "unit"
    assert parse_weight("hs", phi, g).name == "hs"
    assert parse_weight("power:2", phi, g).name == "power:2"
    assert parse_weight("gauge", phi, g).name == "gauge"
    assert parse_weight("compactify", phi, g).name == "compactify"
    assert parse_weight("staircase:default", phi, g).name == "staircase"
    assert parse_weight("boxdecomp", phi, g).name == "boxdecomp"
    lam = lens(0.5)
    assert parse_weight("lensdecomp", lam, g).name.startswith("lensdecomp")
    with pytest.raises(WeightError):
        parse_weight("lensdecomp", phi, g)
    with pytest.raises(ValueError):
        parse_weight("bogus", phi, g)


def test_parse_weight_staircase_file(tmp_path):
    g = make_grid(2**10)
    phi = beta_exp(2.0)
    path = tmp_path / "delta.csv"
    np.savetxt(path, stretched_staircase_delta(2.0, 8), delimiter=",")
    w = parse_weight(f"staircase:{path}", phi, g)
    assert w.name == "staircase"


def test_staircase_default_underflow_names_level():
    # exp(-4^k/k^2) underflows to 0 from k = 8 on; the refusal says so
    with pytest.raises(WeightError, match="delta_8 underflows to 0"):
        parse_weight("staircase:default", beta_exp(0.5), make_grid(1 << 10))
    with pytest.raises(WeightError, match=r"\(0, 1\]"):
        staircase_weight(level_sets(beta_exp(2.0), make_grid(1 << 10)), [0.5, -0.1])


def test_staircase_default_betaexp2_builds_at_large_n():
    w = parse_weight("staircase:default", beta_exp(2.0), make_grid(1 << 18))
    assert w.name == "staircase" and not w.log_divergent


# ---------------------------------------------------------------- refusal

# the benchmark's nine boundary (symbol, recipe) pairs and whether the
# weight's log-modulus diverges: log(1 - |phi*|) is not integrable on hsx
# and extreme
REFUSAL_PAIRS = [
    ("betaexp:0.5", "hs", False), ("betaexp:2", "staircase:default", False),
    ("lens:0.5", "lensdecomp", False), ("lens:0.5", "boxdecomp", False),
    ("hsx", "hs", True), ("extreme", "power:2", True), ("extreme", "gauge", True),
    ("half", "compactify", False), ("half", "unit", False),
]


def _direct_recipe(recipe, phi, g):
    """The recipe that ``parse_weight`` names, called directly."""
    return {
        "hs": lambda: hs_weight(phi, g),
        "power:2": lambda: power_weight(phi, g, 2.0),
        "gauge": lambda: power_weight(phi, g, default_gauge),
        "compactify": lambda: compactify_weight(level_sets(phi, g))[0],
        "staircase:default": lambda: staircase_weight(
            level_sets(phi, g),
            stretched_staircase_delta(phi.params[0], level_sets(phi, g).k_max))[0],
        "lensdecomp": lambda: lens_decompact_weight(phi.params[0], g),
        "boxdecomp": lambda: box_decompact_weight(phi, g)[0],
        "unit": lambda: unit_weight(g),
    }[recipe]()


@pytest.mark.parametrize("spec, recipe, divergent", REFUSAL_PAIRS)
def test_one_refusal_rule(spec, recipe, divergent):
    # parse_weight(strict=True) is the one place that refuses, exactly when
    # the weight is log_divergent; recipes carry the flag and never raise
    phi, g = parse_symbol(spec), make_grid(2**12)
    lenient = parse_weight(recipe, phi, g, strict=False)
    assert lenient.log_divergent == divergent
    direct = _direct_recipe(recipe, phi, g)
    assert direct.log_divergent == divergent
    assert np.array_equal(direct.modulus.values, lenient.modulus.values)
    if divergent:
        with pytest.raises(NotLogIntegrableError, match="divergent log-integral"):
            parse_weight(recipe, phi, g, strict=True)
    else:
        strict = parse_weight(recipe, phi, g, strict=True)
        assert np.array_equal(strict.trace.values, lenient.trace.values)
