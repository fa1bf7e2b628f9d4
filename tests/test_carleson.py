"""Pull-back measures, windows, boxes, profiles, box-counting sums."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.grid import make_grid
from hardylab.symbols import beta_exp, half, hs_extremal, lens
from hardylab.weights import lens_decompact_weight
from hardylab.carleson import (
    HEAVY_CENTERS,
    MAX_ROOT_CENTERS,
    PullbackMeasure,
    Series,
    _depth,
    annulus_mass,
    carleson_profile,
    dyadic_boxes,
    graded_boundary,
    luecking_sum,
    pullback,
    pullback_graded,
    simp_bound,
    window_mass,
)


def _uniform_circle_measure(n=2**10):
    g = make_grid(n)
    return pullback(g.samples(g.points), 1.0)


# ---------------------------------------------------------------- pullback

def test_pullback_total_mass():
    g = make_grid(512)
    tr = half().trace(g)
    mu = pullback(tr, 1.0)
    assert abs(mu.total_mass - 1.0) < 1e-12
    assert mu.size == 512


def test_pullback_constant_symbol():
    g = make_grid(64)
    mu = pullback(g.samples(np.full(64, 0.3 + 0.1j)), 1.0)
    assert np.all(mu.locations == 0.3 + 0.1j)


def test_pullback_density_mass_is_h2_norm():
    g = make_grid(2**12)
    phi = half()
    from hardylab.weights import hs_weight

    w = hs_weight(phi, g)
    mu = pullback(phi.trace(g), w.density())
    assert abs(mu.total_mass - w.h2_norm_sq()) < 1e-14


def test_pullback_rejects_negative_density():
    g = make_grid(64)
    with pytest.raises(ValueError):
        pullback(g.samples(g.points), np.full(64, -1.0))


def test_graded_boundary_mass_exact():
    angles, weights = graded_boundary((0.0,), octaves=20, per_octave=8)
    assert abs(weights.sum() - 1.0) < 1e-14
    angles, weights = graded_boundary((0.0, np.pi), octaves=16, per_octave=6)
    assert abs(weights.sum() - 1.0) < 1e-14


# ---------------------------------------------------------------- windows

def test_window_mass_whole_disk():
    mu = _uniform_circle_measure()
    assert abs(window_mass(mu, 1.0, 1.0) - mu.total_mass) < 1e-14


def test_window_mass_excludes_shallow_atom():
    mu = PullbackMeasure(np.array([0.9 + 0j]), np.array([1.0]))
    assert window_mass(mu, 1.0, 0.05) == 0.0


def test_window_mass_lens_scaling():
    # window masses at the contact point scale like h^{1/theta} = h^2
    mu = pullback_graded(lens(0.5))
    ns = np.arange(4, 13)
    masses = np.array([
        window_mass(mu, 1.0, 2.0**-n) for n in ns
    ])
    slope = np.polyfit(np.log(2.0**-ns), np.log(masses), 1)[0]
    assert abs(slope - 2.0) < 0.15


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_window_nesting(n):
    g = make_grid(2**10)
    mu = pullback(beta_exp(2.0).trace(g), 1.0)
    h = 2.0**-n
    big = window_mass(mu, 1.0, h)
    small = window_mass(mu, 1.0, h / 2)
    assert small <= big + 1e-15


# ---------------------------------------------------------------- profile

def test_profile_of_arc_measure():
    n = 2**12
    mu = _uniform_circle_measure(n)
    rep = carleson_profile(mu, 2, 8)
    assert np.all(np.abs(rep.rho - rep.h) <= 2.0 / n + 1e-15)


def test_profile_single_atom_at_origin():
    mu = PullbackMeasure(np.array([0j]), np.array([1.0]))
    rep = carleson_profile(mu, 1, 8)
    assert np.all(rep.rho == 0.0)


def test_profile_monotone():
    g = make_grid(2**13)
    mu = pullback(beta_exp(2.0).trace(g), 1.0)
    rep = carleson_profile(mu, 1, 11)
    assert np.all(np.diff(rep.rho) <= 1e-15)


def _brute_profile(mu, n_lo, n_hi):
    """Reference: per level, the atoms with depth <= h sorted by angle and
    the closed arc masses over the profile's center set, summed directly."""
    two_pi = 2.0 * np.pi
    # the heaviest atoms, ties going to the later atom
    order = np.lexsort((np.arange(mu.size), mu.masses))
    heavy = np.sort(mu.angles[order[-HEAVY_CENTERS:]])
    rho = []
    for n in range(n_lo, n_hi + 1):
        h = 2.0**-n
        sel = _depth(mu) <= h
        order = np.argsort(mu.angles[sel])
        a, m = mu.angles[sel][order], mu.masses[sel][order]
        n_roots = min(1 << (n + 2), MAX_ROOT_CENTERS)
        centers = np.concatenate([two_pi * np.arange(n_roots) / n_roots, heavy])
        best = 0.0
        for c in centers:
            lo, hi = c - np.pi * h, c + np.pi * h
            if lo < 0.0:
                lo, hi = lo + two_pi, hi + two_pi
            # an atom counts once, even on both ends of the full-circle arc
            inside = (((lo <= a) & (a <= hi))
                      | ((lo <= a + two_pi) & (a + two_pi <= hi))).astype(float)
            best = max(best, math.fsum(m * inside))
        rho.append(best)
    return np.array(rho)


def _profile_measures():
    """(name, measure, exact): masses on a 2^-10 lattice make every prefix
    sum exact, so the profile must equal the reference exactly."""
    rng = np.random.default_rng(3)
    k = 600

    def disk(r, t):
        return PullbackMeasure(r * np.exp(1j * t), rng.integers(1, 1024, k) / 1024)

    r = 1.0 - rng.random(k) ** 6
    t = 2 * np.pi * rng.random(k)
    yield "random", disk(r, t), True
    # sixteen directions, each at many depths
    t_tied = 2 * np.pi * rng.integers(0, 16, k) / 16
    yield "tied angles", disk(r, t_tied), True
    yield "boundary atoms", disk(np.where(rng.random(k) < 0.3, 1.0, r), t_tied), True
    yield "atom at 0", PullbackMeasure(np.array([0j]), np.array([1.0])), True
    yield "shallow only", disk(0.8 * rng.random(k), t), True
    yield "rounded masses", PullbackMeasure(r * np.exp(1j * t_tied), rng.random(k)), False
    yield "empty", PullbackMeasure(np.zeros(0, dtype=complex), np.zeros(0)), True
    # equal masses: by the tie rule the heavy centers are the last 64 atoms,
    # and only the direction of atom 560, the middle of a deep triple set
    # between two level-3 roots, catches the whole triple
    loc = 0.1 * np.exp(1j * t)
    triple = np.pi / 32 + 0.99 * np.pi / 8 * np.arange(-1, 2)
    loc[559:562] = 0.99 * np.exp(1j * triple)
    yield "tied masses", PullbackMeasure(loc, np.full(k, 1 / 1024)), True


@pytest.mark.parametrize("name, mu, exact", list(_profile_measures()))
def test_profile_matches_brute_force(name, mu, exact):
    rep = carleson_profile(mu, 0, 9)
    ref = _brute_profile(mu, 0, 9)
    if exact:
        assert np.array_equal(rep.rho, ref)
    else:
        # prefix sums over the doubled atom list, N ulp each way
        eps = np.finfo(float).eps
        assert np.all(np.abs(rep.rho - ref) <= 2 * mu.size * eps * mu.total_mass)
    if name == "shallow only":
        # depth >= 1/5: the levels from 3 on hold no atom
        assert np.all(rep.rho[3:] == 0.0) and rep.rho[2] > 0.0
    if name == "tied masses":
        assert rep.rho[3] == 3 / 1024
    if name == "atom at 0":
        # the level-0 window is the whole disk: the atom counts once
        assert rep.rho[0] == 1.0 and np.all(rep.rho[1:] == 0.0)


def test_profile_lens_decompact_not_vanishing():
    g = make_grid(2**12)
    w = lens_decompact_weight(0.5, g)
    lam = lens(0.5)
    density_fn = lambda t: np.abs(1.0 - lam.trace_of_angle(t)) ** -1.0
    nu = pullback_graded(lam, density_fn)
    rep = carleson_profile(nu, 4, 12)
    assert np.isfinite(rep.constant)
    assert rep.vanishing_score >= 0.05
    ratio_at_one = np.array([
        window_mass(nu, 1.0, h) / h for h in rep.h
    ])
    assert np.min(ratio_at_one) >= 0.05 * rep.constant


# ---------------------------------------------------------------- luecking

def test_luecking_single_atom_origin():
    mu = PullbackMeasure(np.array([0j]), np.array([1.0]))
    for p in (0.5, 1.0, 2.0, 4.0):
        rep = luecking_sum(mu, p, 10)
        assert rep.per_level[0] == 1.0
        assert rep.series.total == 1.0


def test_luecking_dilation_oracle():
    # phi(z) = z/2: uniform mass on |z| = 1/2 splits into the two level-1
    # boxes, each worth [2 * 1/2]^{p/2} = 1
    g = make_grid(2**10)
    mu = pullback(g.samples(g.points / 2), 1.0)
    for p in (0.5, 1.0, 2.0, 3.0):
        rep = luecking_sum(mu, p, 8)
        assert abs(rep.series.total - 2.0) < 1e-12
        assert rep.per_level[1] == rep.series.total


def test_luecking_convexity_per_level():
    # for p < 2: sum x^{p/2} >= (sum x)^{p/2} on every computed level
    g = make_grid(2**13)
    phi = hs_extremal()
    nu = pullback(phi.trace(g), phi.co_modulus_of_angle(g.signed_angles()))
    for p in (0.5, 1.0, 1.5):
        rep = luecking_sum(nu, p, 11)
        for n in rep.series.indices:
            level_total = 2.0 ** int(n) * annulus_mass(nu, 2.0 ** -int(n),
                                                       dyadic=True)
            assert rep.per_level[n] >= level_total ** (p / 2.0) - 1e-12


def test_luecking_p_monotone_when_normalized():
    g = make_grid(2**10)
    mu = pullback(g.samples(g.points / 2), 0.5)
    totals = [luecking_sum(mu, p, 6).series.total for p in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(totals) <= 1e-12)


def test_luecking_memory_follows_atoms_not_boxes():
    # level 24 tiles the corona with 2^24 boxes; three atoms occupy two
    r = 1.0 - 0.75 * 2.0**-24
    mu = PullbackMeasure(r * np.exp(1j * np.array([-1e-9, 1e-9, np.pi / 2])),
                         np.array([1e-3, 2e-3, 4e-3]))
    tracemalloc.start()
    try:
        rep = luecking_sum(mu, 1.0, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.sqrt(2.0**24 * 3e-3) + np.sqrt(2.0**24 * 4e-3)
    assert abs(rep.per_level[24] - expected) <= 1e-12 * expected
    assert rep.series.total == rep.per_level[24]
    assert peak < 2**20


def test_luecking_rejects_bad_p():
    mu = PullbackMeasure(np.array([0j]), np.array([1.0]))
    with pytest.raises(ValueError):
        luecking_sum(mu, 0.0, 4)


def test_luecking_verdicts_on_half():
    # phi = (1+z)/2 is not Hilbert-Schmidt: the p = 2 level sums grow
    g = make_grid(2**14)
    mu = pullback(half().trace(g), 1.0)
    assert luecking_sum(mu, 2.0, 12).verdict == "diverging"
    # fewer than eight levels never give a verdict
    for n_max in (3, 6):
        assert luecking_sum(mu, 2.0, n_max).verdict == "inconclusive"


def test_series_verdict_closed_forms():
    k = np.arange(1, 41, dtype=float)
    # the harmonic series diverges, however small its last term is
    assert Series(k, 1.0 / k).verdict != "converging"
    assert Series(k, 1.0 / k**2).verdict == "converging"
    assert Series(k, 2.0**-k).verdict == "converging"
    assert Series(k, k**-0.5).verdict == "diverging"
    finite = np.zeros(40)
    finite[:3] = (1.0, 0.5, 0.25)
    assert Series(k, finite).verdict == "converging"


def test_series_tail_exponent_is_the_reason():
    k = np.arange(1, 41, dtype=float)
    assert abs(Series(k, 1.0 / k**2).tail_exponent - 2.0) <= 1e-9
    assert abs(Series(k, k**-0.5).tail_exponent - 0.5) <= 1e-9
    finite = np.zeros(40)
    finite[:3] = (1.0, 0.5, 0.25)
    assert Series(k, finite).tail_exponent is None
    assert Series(k, finite).verdict == "converging"
    series = Series(k, 1.0 / k**2)
    assert np.array_equal(series.partial_sums, np.cumsum(1.0 / k**2))
    with pytest.raises(ValueError):
        Series(k, -1.0 / k)


# ---------------------------------------------------------------- annuli

def test_annulus_excludes_boundary_atoms():
    mu = _uniform_circle_measure()
    assert annulus_mass(mu, 1.0) == 0.0  # all atoms on |z| = 1
    locs = np.array([0.5, 1.0 + 0j])
    mu2 = PullbackMeasure(locs, np.array([0.25, 0.75]))
    assert annulus_mass(mu2, 1.0) == 0.25


def test_annulus_beta_rate():
    g = make_grid(2**16)
    mu = pullback(beta_exp(2.0).trace(g), 1.0)
    ns = np.arange(4, 13)
    masses = np.array([annulus_mass(mu, 2.0**-n) for n in ns])
    slope = np.polyfit(np.log(2.0**-ns), np.log(masses), 1)[0]
    assert abs(slope - 0.5) < 0.1


def test_annulus_hs_extremal_band():
    # m_phi(dyadic annulus at h) * log(1/h) * (log log(1/h))^2 stays in a
    # factor-3 band
    g = make_grid(2**16)
    mu = pullback(hs_extremal().trace(g), 1.0)
    products = []
    for n in range(6, 15):
        h = 2.0**-n
        mass = annulus_mass(mu, h, dyadic=True)
        products.append(mass * np.log(1 / h) * np.log(np.log(1 / h)) ** 2)
    products = np.array(products)
    assert products.max() / products.min() < 3.0


def test_box_partition_exactness():
    # the 2^n aligned boxes of corona n hold its atoms in their angular
    # cells, and their masses sum to the dyadic annulus, atom by atom
    cases = []
    g = make_grid(2**12)
    cases.append(pullback(half().trace(g), 1.0))
    phi = hs_extremal()
    cases.append(pullback(phi.trace(g), phi.co_modulus_of_angle(
        g.signed_angles())))
    cases.append(pullback_graded(lens(0.5)))
    for mu in cases:
        level, box = dyadic_boxes(mu, 10)
        for n in range(0, 11):
            h = 2.0**-n
            sel = level == n
            masses = np.bincount(box[sel], weights=mu.masses[sel],
                                 minlength=2**n)
            assert masses.size == 2**n
            offset = np.angle(mu.locations[sel]
                              * np.exp(-2j * np.pi * box[sel] / 2**n))
            assert np.all(np.abs(offset) <= np.pi * h * (1.0 + 1e-12))
            ann = annulus_mass(mu, h, dyadic=True)
            assert abs(masses.sum() - ann) <= 1e-12 * max(ann, 1e-30)


def test_dilation_edge_atoms_stay_in_corona_one():
    # phi(z) = z/2 puts every atom on |z| = 1/2, many of them at 1/2 - ulp:
    # the dyadic annulus, the level-1 boxes and the level-1 Carleson
    # windows all count them on the closed side of depth 1/2
    g = make_grid(2**10)
    mu = pullback(g.samples(g.points / 2), 1.0)
    assert abs(annulus_mass(mu, 0.5, dyadic=True) - 1.0) < 1e-14
    level, box = dyadic_boxes(mu, 8)
    assert np.all(level == 1)
    masses = np.bincount(box, weights=mu.masses, minlength=2)
    assert masses.size == 2 and np.all(np.abs(masses - 0.5) < 1e-14)
    # every half circle of atoms: 512 of the 1024, or 513 with both ends
    rho = carleson_profile(mu, 1, 4).rho[0]
    assert 0.5 <= rho <= 513 / 1024


def test_windows_closed_at_the_depth_edge():
    # the guard puts |z| = 1/2 - 2 ulp at depth exactly 1/2, on the closed
    # edge of the size-1/2 window and of its dyadic annulus
    mu = PullbackMeasure(np.array([0.4999999999999998 + 0j]), np.array([1.0]))
    assert window_mass(mu, 1.0, 0.5) == 1.0
    assert annulus_mass(mu, 0.5, dyadic=True) == 1.0


def test_corona_levels_match_dyadic_annuli_at_the_edges():
    # atoms within a few ulp of every dyadic circle |z| = 1 - 2^-n: each
    # corona holds exactly the atoms of the dyadic annulus of size 2^-n
    n = np.repeat(np.arange(1, 45), 9)
    k = np.tile(np.arange(-4, 5), 44)
    r = (1.0 - 2.0 ** -n.astype(float)) * (1.0 + k * 2.0**-52)
    mu = PullbackMeasure(r * np.exp(1j * k), np.ones(r.size))
    level, _ = dyadic_boxes(mu, 50)
    assert np.all(level >= 0)
    for m in range(51):
        assert np.sum(level == m) == annulus_mass(mu, 2.0**-m, dyadic=True)


# ---------------------------------------------------------------- simp

def test_simp_bound_zero_measure():
    mu = PullbackMeasure(np.zeros(1, complex), np.zeros(1))
    rep = carleson_profile(mu, 3, 10)
    assert abs(simp_bound(5, rep) - np.exp(-5 * 2.0**-3)) < 1e-14


def test_simp_bound_arc_measure_no_decay():
    mu = _uniform_circle_measure(2**12)
    rep = carleson_profile(mu, 2, 10)
    for n in (4, 64, 1024):
        assert simp_bound(n, rep) >= np.sqrt(rep.ratio.min()) - 0.05


def test_simp_bound_decreases_for_compact_case():
    # a dyadic staircase crushes the window ratios fast enough for the
    # bound to drop by well over 10x between n = 16 and n = 256
    from hardylab.symbols import level_sets
    from hardylab.weights import staircase_weight

    g = make_grid(2**13)
    phi = beta_exp(2.0)
    ls = level_sets(phi, g, 11)
    w, _ = staircase_weight(ls, 2.0 ** -np.arange(1, 12))
    nu = pullback(phi.trace(g), w.density())
    rep = carleson_profile(nu, 2, 11)
    assert simp_bound(256, rep) * 10 <= simp_bound(16, rep)
