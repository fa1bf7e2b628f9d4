"""Weight recipes: moduli hit their targets, outer normalization, errors,
and the one refusal rule for a log-divergent weight."""

import numpy as np
import pytest

from hardylab.grid import make_grid
from hardylab.outer import NotLogIntegrableError
from hardylab.symbols import (
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
from hardylab.weights import (
    WeightError,
    box_decompact_weight,
    compactify_weight,
    default_gauge,
    lens_decompact_weight,
    parse_weight,
    power_weight,
    staircase_weight,
    stretched_staircase_delta,
    unit_weight,
)
from hardylab.carleson import pullback

from brute_force import co_power, compactify_schedule, window_mass


GRID = make_grid(2**12)


def _outer_normalization(w, tol=1e-6):
    # |w(0)| = exp(grid mean of log |w*|)
    vals = np.abs(w.modulus.values)
    expected = np.exp(np.mean(np.log(vals)))
    assert abs(abs(w.outer(0.0)) - expected) <= tol * max(expected, 1e-12)


# ---------------------------------------------------------------- unit / hs

def test_unit_weight():
    w = unit_weight(GRID)
    assert np.all(w.modulus.values == 1.0)
    assert not w.log_divergent


def test_hs_weight_constant_zero_symbol():
    w = parse_weight("hs", constant(0.0), GRID, strict=False)
    assert np.allclose(w.modulus.values, 1.0)


def test_hs_weight_half_modulus_squared():
    w = parse_weight("hs", half(), GRID, strict=False)
    t = GRID.signed_angles()
    assert np.allclose(w.density() + np.abs(np.cos(t / 2)), 1.0, atol=1e-13)
    _outer_normalization(w)


def test_hs_weight_extreme_divergent():
    # the recipe carries the verdict; parse_weight(strict=True) refuses it
    assert parse_weight("hs", extreme_not_exposed(), GRID, strict=False).log_divergent
    with pytest.raises(NotLogIntegrableError, match="hs: divergent log-integral"):
        parse_weight("hs", extreme_not_exposed(), GRID)


def test_hs_weight_nonstrict_keeps_modulus():
    phi = hs_extremal()
    w = parse_weight("hs", phi, GRID, strict=False)
    assert w.log_divergent
    with pytest.raises(NotLogIntegrableError):
        w.outer(0.5)
    co = phi.co(GRID.signed_angles())
    assert np.allclose(w.density(), co, rtol=1e-12)
    # the H2 norm of the modulus is perfectly finite
    assert 0.0 < np.mean(w.density()) < 1.0


# ---------------------------------------------------------------- power

_POWER_SYMBOLS = [lens(0.5), half(), beta_exp(0.5), extreme_not_exposed(), hs_extremal()]


@pytest.mark.parametrize("phi", _POWER_SYMBOLS, ids=repr)
def test_power_moduli_are_the_powers_of_the_co_modulus(phi):
    # |w*| = exp(K log co) against co^K, pointwise within 1e-12 relative
    # wherever co^K is a normal number
    g = make_grid(2**14)
    co = phi.co_modulus(g).values
    # the gauge g(co) = max(2, log(2 + log(1/co))) of the co-modulus itself
    with np.errstate(divide="ignore", over="ignore"):
        gauge = np.maximum(2.0, np.log(2.0 + np.log(1.0 / co)))
    for w, want in ((parse_weight("hs", phi, g, strict=False), co_power(co, 0.5)),
                    (power_weight(phi, g, 2.0), co_power(co, 2.0)),
                    (power_weight(phi, g, 0.7), co_power(co, 0.7)),
                    (power_weight(phi, g, default_gauge), co_power(co, gauge))):
        assert np.allclose(w.modulus.values, want, rtol=1e-12,
                           atol=np.finfo(float).tiny), w.name


def test_gauge_log_modulus_reads_the_co_modulus_near_the_contact_point():
    # extreme at 2^18: co = e^{-1/|t|} runs down to 0, and log|w*| =
    # g(co) log co to 1e-12 relative wherever co > 0, with co floored at
    # 1e-300 inside g; read through the modulus 1 - co, the gauge lost co
    # below 1e-16 and |w*| at t = 0.01 read 1.4e-284 for 2.0e-201
    g = make_grid(2**18)
    co = extreme_not_exposed().co_modulus(g).values
    w = power_weight(extreme_not_exposed(), g, default_gauge)
    pos = co > 0.0
    assert np.count_nonzero(pos) < co.size
    floored = np.maximum(co[pos], 1e-300)
    want = np.maximum(2.0, np.log(2.0 + np.log(1.0 / floored))) * np.log(co[pos])
    got = w.outer.log_modulus[pos]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    assert np.all(w.modulus.values[~pos] == 0.0)


def test_power_weight_zero_exponent_is_unit():
    w = power_weight(half(), GRID, 0.0)
    assert np.all(w.modulus.values == 1.0)


def test_power_weight_k2_pointwise_bound():
    # n^2 max_j (1-u)^2 u^n <= sup_{x in (0,1)} n^2 (1-x)^2 x^n <= 4
    phi = hs_extremal()
    w = power_weight(phi, GRID, 2.0)
    mod = 1.0 - phi.co(GRID.signed_angles())
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
    # a NaN gauge value too, which used to pass, and an infinite one, which
    # made inf * log 1 = NaN at a modulus of 0
    for bad in (np.nan, np.inf):
        with pytest.raises(WeightError, match="gauge values must be finite and >= 1"):
            power_weight(half(), GRID,
                         lambda t, bad=bad: np.where(np.arange(t.size) == 7, bad, 2.0))


@pytest.mark.parametrize("exponent", [np.nan, np.inf, -0.5])
def test_power_weight_refuses_a_nan_or_infinite_exponent(exponent):
    # a NaN exponent used to give an all-NaN modulus
    with pytest.raises(WeightError, match="power exponent"):
        power_weight(half(), GRID, exponent)


def test_parse_weight_names_a_nan_power_exponent():
    # not the "divergent log-integral" of the all-NaN modulus it used to build
    for strict in (True, False):
        with pytest.raises(WeightError, match="power exponent"):
            parse_weight("power:nan", half(), GRID, strict=strict)


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
        on_set = ls.level_index >= k_n
        if on_set.any():
            assert np.max(w.modulus.values[on_set]) <= 1.0 / n + 1e-12
    _outer_normalization(w)


@pytest.mark.parametrize("spec", ["half", "lens:0.5", "betaexp:2", "extreme"])
def test_compactify_schedule_is_the_level_by_level_search(spec):
    # the one search over the masses against the loop over n: the same
    # levels, series and weight, bit for bit
    phi = parse_symbol(spec)
    for log_n in range(10, 17):
        levels = level_sets(phi, make_grid(2**log_n))
        ref = compactify_schedule(levels.masses)
        if ref is None:
            with pytest.raises(WeightError, match="not compactifiable"):
                compactify_weight(levels)
            continue
        ks, terms, log_steps = ref
        w, sched = compactify_weight(levels)
        assert np.array_equal(sched.ks, ks)
        assert np.array_equal(sched.series.indices, np.arange(1, ks.size + 1))
        assert np.array_equal(sched.series.terms, terms)
        log_modulus = np.cumsum(log_steps)[levels.level_index]
        assert np.array_equal(w.outer.log_modulus, log_modulus)
        assert np.array_equal(w.modulus.values, np.exp(log_modulus))


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


def test_staircase_refuses_a_nan_delta():
    # it used to build an all-NaN modulus whose series read "converging"
    ls = level_sets(beta_exp(2.0), GRID)
    delta = stretched_staircase_delta(2.0, ls.k_max)
    delta[2] = np.nan
    with pytest.raises(WeightError, match="NaN"):
        staircase_weight(ls, delta)


def test_staircase_single_level():
    # delta_1 = 1/2, all others 1: |w*| = 1/2 on F_1, 1 elsewhere
    ls = level_sets(beta_exp(2.0), GRID)
    delta = np.concatenate([[0.5], np.ones(8)])
    w, _ = staircase_weight(ls, delta)
    on1 = ls.level_index >= 1
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

@pytest.mark.parametrize("theta", [0.0, 1.0, np.nan])
def test_lens_decompact_refuses_theta_as_lens_does(theta):
    with pytest.raises(ValueError, match=r"^lens parameter must be in \(0, 1\)"):
        lens_decompact_weight(theta, GRID)


@pytest.mark.parametrize("beta", [0.0, -1.0, 2.5, np.nan])
def test_staircase_delta_refuses_beta_outside_the_betaexp_range(beta):
    # beta = 0 used to give all-zero deltas
    with pytest.raises(WeightError, match=r"staircase beta must be in \(0, 2\]"):
        stretched_staircase_delta(beta, 9)


@pytest.mark.parametrize("k_max", [3.5, np.nan, 4.0, -1])
def test_staircase_delta_refuses_a_level_count_that_is_not_an_integer(k_max):
    # 3.5 used to return four deltas
    with pytest.raises(WeightError, match="staircase k_max must be an integer >= 0"):
        stretched_staircase_delta(2.0, k_max)
    assert np.array_equal(stretched_staircase_delta(2.0, np.int64(4)),
                          stretched_staircase_delta(2.0, 4))


def test_lens_decompact_exponent():
    w = lens_decompact_weight(0.5, GRID)
    lam = lens(0.5).trace(GRID).values
    assert np.allclose(w.modulus.values, np.abs(1 - lam) ** -0.5, rtol=1e-12)
    # the polar form exp(a log|b|) e^{i a arg b} is the principal power b^a
    assert np.allclose(w.trace.values, (1 - lam) ** -0.5, rtol=1e-12, atol=0.0)


def test_lens_decompact_h2_norm_stabilizes():
    norms = []
    for n in (2**12, 2**14, 2**16):
        w = lens_decompact_weight(0.5, make_grid(n))
        norms.append(np.sqrt(np.mean(w.density())))
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
    u = w.density()
    assert np.all(u >= 1.0)
    assert np.mean(u - 1.0) <= boxes.added_mass + 1e-12
    assert boxes.added_mass <= 1.0
    assert np.all(np.diff(boxes.ks) > 0)
    # nu(W(center, 2^-k)) >= 2^-k at every chosen box
    nu = pullback(phi.trace(g), u)
    centers = np.exp(2j * np.pi * boxes.box_index / (1 << boxes.ks))
    for k, center in zip(boxes.ks, centers):
        got = window_mass(nu, center, 2.0 ** -float(k))
        assert got >= 2.0 ** -float(k) - 1e-12
    _outer_normalization(w)


def test_box_weight_needs_an_atom_past_the_first_corona():
    # the table reaches the circle at angle 0 only, between the samples of
    # an 8-point grid, whose atoms all sit at |z| = 0.3, in corona 0
    phi = custom_outer([0.0, 0.05, np.pi, 2.0 * np.pi - 0.05], [1.0, 0.3, 0.3, 0.3])
    with pytest.raises(WeightError, match="norm below one: no corona holds an atom"):
        box_decompact_weight(phi, make_grid(8))


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
    with pytest.raises(WeightError, match="staircase:default needs a betaexp symbol"):
        parse_weight("staircase:default", lam, g)
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
        "hs": lambda: power_weight(phi, g, 0.5),
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
