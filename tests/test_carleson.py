"""Pull-back measures, windows, boxes, profiles, box-counting sums."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import carleson, weights
from hardylab.grid import TWO_PI, make_grid
from hardylab.symbols import beta_exp, half, hs_extremal, lens, level_sets, parse_symbol
from hardylab.weights import (box_decompact_weight, lens_decompact_weight, parse_weight,
                              unit_weight)
from hardylab.carleson import (
    DEEPEST_LEVEL,
    PullbackMeasure,
    Series,
    _window_max,
    annulus_mass,
    carleson_profile,
    dyadic_boxes,
    graded_boundary,
    luecking_sum,
    pullback,
    pullback_graded,
)

from brute_force import (arc_profile, box_keys, box_masses, dyadic_annulus_mass, full_sweep,
                         graded_cells, window_mass)


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


def test_measure_angles_are_the_angle_mod_two_pi():
    # one masked shift of 2 pi where np.angle is negative reads as
    # np.angle(z) % (2 pi): at +-pi, at +-0.0, at tiny negative angles,
    # whose shift rounds to 2 pi itself, and on conjugate pairs
    z = np.array([complex(-0.5, 0.0), complex(-0.5, -0.0), complex(0.5, 0.0),
                  complex(0.5, -0.0), complex(-0.0, -0.0), complex(0.9, -5e-324),
                  complex(0.9, -1e-300), complex(0.9, -1e-17), complex(1.0, -2e-16)])
    pairs = 0.7 * np.exp(1j * np.linspace(0.1, 3.1, 31))
    z = np.concatenate([z, pairs, np.conj(pairs)])
    mu = PullbackMeasure(z, np.ones(z.size))
    assert np.array_equal(mu.angles, np.angle(z) % TWO_PI)
    assert np.all((mu.angles >= 0.0) & (mu.angles <= TWO_PI))


def test_pullback_density_mass_is_h2_norm():
    g = make_grid(2**12)
    phi = half()
    from hardylab.weights import parse_weight

    w = parse_weight("hs", phi, g, strict=False)
    mu = pullback(phi.trace(g), w.density())
    assert abs(mu.total_mass - np.mean(w.density())) < 1e-14


def test_pullback_rejects_negative_density():
    g = make_grid(64)
    with pytest.raises(ValueError):
        pullback(g.samples(g.points), np.full(64, -1.0))


@pytest.mark.parametrize("locations,masses,match", [
    ([0.5, 0.2j, np.nan], [0.1, np.nan, 0.3], "masses"),
    ([0.5, 0.2j, 0.1], [0.1, np.nan, 0.3], "masses"),
    ([0.5, 0.2j, np.nan], [0.1, 0.2, 0.3], "locations"),
    ([0.5, complex(np.nan, 0.1), 0.1], [0.1, 0.2, 0.3], "locations"),
    ([0.5, np.inf, 0.1], [0.1, 0.2, 0.3], "locations"),
    ([0.5, 0.2j], [np.inf, 0.3], "masses"),
])
def test_measure_refuses_nan_atoms(locations, masses, match):
    # a NaN atom used to be accepted: total mass nan, an empty kernel
    # spectrum and a profile that read the other atoms only
    with pytest.raises(ValueError, match=match):
        PullbackMeasure(locations, masses)


def test_measure_refuses_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        PullbackMeasure([0.5, 0.2j], [0.1, 0.2, 0.3])


def test_pullback_refuses_nan_density():
    g = make_grid(64)
    for bad in (np.nan, np.inf, -1.0):
        density = np.ones(64)
        density[5] = bad
        with pytest.raises(ValueError, match="masses"):
            pullback(g.samples(0.5 * g.points), density)
    with pytest.raises(ValueError):  # one sample short of the grid
        pullback(g.samples(0.5 * g.points), np.ones(63))


def test_pullback_graded_refuses_nan_density():
    for bad in (np.nan, np.inf, -1.0):
        def density(t):
            return np.where(np.arange(t.size) == 3, bad, 1.0)

        with pytest.raises(ValueError, match="masses"):
            pullback_graded(lens(0.5), density_fn=density, octaves=8,
                            per_octave=4)


def test_pullback_graded_refuses_an_outer_type_symbol():
    with pytest.raises(NotImplementedError, match="no closed-form trace"):
        pullback_graded(beta_exp(0.5), octaves=4, per_octave=2)


def test_graded_boundary_mass_exact():
    angles, weights = graded_boundary((0.0,), octaves=20, per_octave=8)
    assert abs(weights.sum() - 1.0) < 1e-14
    angles, weights = graded_boundary((0.0, np.pi), octaves=16, per_octave=6)
    assert abs(weights.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("singular_angles", [(0.0,), (0.0, np.pi), (2.0, 5.0),
                                             (4.0, 0.0, 1.0)],
                         ids=["one", "two", "unequal", "three"])
@pytest.mark.parametrize("octaves", [0, 20])
@pytest.mark.parametrize("per_octave", [1, 6, 8])
def test_graded_boundary_matches_linspace_cells(singular_angles, octaves, per_octave):
    # the closed form against the cells built octave by octave with linspace
    angles, weights = graded_boundary(singular_angles, octaves, per_octave)
    want_angles, want_weights = graded_cells(singular_angles, octaves, per_octave)
    assert np.allclose(angles, want_angles, rtol=0.0, atol=1e-15)
    assert np.allclose(weights, want_weights, rtol=1e-14, atol=0.0)
    assert abs(weights.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("singular_angles", [(2.0, 5.0), (4.0, 0.0, 1.0), (0.0, 0.1, 0.3, 3.0)])
def test_graded_boundary_tiles_each_side_to_half_its_gap(singular_angles):
    # the + side of each angle reaches half the gap after it, the - side
    # half the gap before it: the cells of each side tile (0, gap/2], so
    # the weights sum to 1 however unequal the gaps
    octaves, per_octave = 32, 8
    angles, weights = graded_boundary(singular_angles, octaves, per_octave)
    assert abs(weights.sum() - 1.0) <= 1e-14
    sing = np.sort(np.asarray(singular_angles) % TWO_PI)
    gaps = np.diff(sing, append=sing[0] + TWO_PI)
    side = octaves * per_octave + 1
    offsets = angles.reshape(sing.size, 2, side) - sing[:, None, None]
    widths = TWO_PI * weights.reshape(sing.size, 2, side)
    for i in range(sing.size):
        for j, (sgn, gap) in enumerate(((1.0, gaps[i]), (-1.0, gaps[i - 1]))):
            order = np.argsort(sgn * offsets[i, j])
            mid, width = sgn * offsets[i, j][order], widths[i, j][order]
            lo, hi = mid - width / 2.0, mid + width / 2.0
            assert np.all(mid > 0.0)
            assert abs(lo[0]) <= 2e-15 and abs(hi[-1] - gap / 2.0) <= 1e-14
            # each cell's center is an angle, rounded to ulp(2 pi) = 8.9e-16
            assert np.allclose(hi[:-1], lo[1:], rtol=0.0, atol=2e-15)
            assert abs(math.fsum(width) - gap / 2.0) <= 1e-14


@pytest.mark.parametrize("singular_angles", [(0.0, 0.0), (0.0, TWO_PI), (1.0, 4.0, 1.0)])
def test_graded_boundary_refuses_coincident_angles(singular_angles):
    # no gap is left to grade: the cells used to carry total mass 0
    with pytest.raises(ValueError, match="distinct singular angles"):
        graded_boundary(singular_angles, 4, 2)


@pytest.mark.parametrize("octaves, per_octave", [(-1, 24), (4, 0), (4, -2),
                                                  (2.5, 24), (4, np.nan)])
def test_graded_grading_refuses_empty_octaves(octaves, per_octave):
    # octaves = -1 used to return total mass 2, per_octave = 0 mass 1/16,
    # octaves = 2.5 graded 3 octaves and a NaN per_octave failed in arange
    with pytest.raises(ValueError, match="octaves"):
        graded_boundary((0.0,), octaves, per_octave)
    with pytest.raises(ValueError, match="octaves"):
        pullback_graded(lens(0.5), octaves=octaves, per_octave=per_octave)


def test_graded_boundary_needs_a_singular_angle():
    with pytest.raises(ValueError, match="at least one singular angle"):
        graded_boundary((), 4, 2)


def test_graded_boundary_without_octaves_is_the_core_atoms():
    _, masses = graded_boundary((0.0,), octaves=0, per_octave=24)
    assert masses.tolist() == [0.5, 0.5]
    assert pullback_graded(lens(0.5), octaves=0).total_mass == 1.0


def test_depth_is_read_only_and_guarded():
    z = np.concatenate([0.5 * np.exp(1j * np.linspace(0.0, 6.0, 25)),
                        [0.999j, 1.0 + 0j, np.nextafter(1.0, 2.0),
                         complex(0.0, 1.0 - 2.0**-53), 1.0 - 4.0 * 2.0**-53]])
    mu = PullbackMeasure(z, np.ones(z.size))
    r = np.abs(z)
    snapped = r > 1.0 - 4e-16
    assert snapped.sum() == 3
    assert np.all(mu.depth[snapped] == 0.0)
    assert np.array_equal(mu.depth[~snapped], (1.0 - r[~snapped]) * (1.0 - 4e-16))
    assert not mu.depth.flags.writeable
    with pytest.raises(ValueError):
        mu.depth[0] = 0.25


# ---------------------------------------------------------------- windows

def test_window_mass_whole_disk():
    # the level-0 arc is the whole circle: every atom counts once
    mu = _uniform_circle_measure()
    assert abs(carleson_profile(mu, 0, 1).rho[0] - mu.total_mass) < 1e-14


def test_window_mass_excludes_shallow_atom():
    # depth 0.1: inside the windows of size 1/8, outside those of 1/16 on
    mu = PullbackMeasure(np.array([0.9 + 0j]), np.array([1.0]))
    assert carleson_profile(mu, 3, 5).rho.tolist() == [1.0, 0.0, 0.0]


def test_window_mass_lens_scaling():
    # window masses at the contact point scale like h^{1/theta} = h^2, and
    # so does the heaviest window
    mu = pullback_graded(lens(0.5))
    ns = np.arange(4, 13)
    rho = carleson_profile(mu, 4, 12).rho
    at_one = np.array([window_mass(mu, 1.0, 2.0**-n) for n in ns])
    for masses in (rho, at_one):
        slope = np.polyfit(np.log(2.0**-ns), np.log(masses), 1)[0]
        assert abs(slope - 2.0) < 0.15


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_window_nesting(n):
    # an arc of half the length at depth <= h/2 lies in one of length 2 pi h
    g = make_grid(2**10)
    mu = pullback(beta_exp(2.0).trace(g), 1.0)
    big, small = carleson_profile(mu, n, n + 1).rho
    assert 0.0 < small <= big


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
    assert np.all(np.diff(rep.rho) <= 0)


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
    # equal masses, and a deep triple 0.99 pi/8 apart: the arc of length
    # pi/4 from its first atom holds it all
    loc = 0.1 * np.exp(1j * t)
    triple = np.pi / 32 + 0.99 * np.pi / 8 * np.arange(-1, 2)
    loc[559:562] = 0.99 * np.exp(1j * triple)
    yield "tied masses", PullbackMeasure(loc, np.full(k, 1 / 1024)), True


def _assert_matches_arc_profile(rho, mu, n_lo, n_hi, exact):
    ref = arc_profile(mu, n_lo, n_hi)
    if exact:
        assert np.array_equal(rho, ref)
    else:
        # the heaviest window is picked by prefix differences, which are
        # off by up to K ulp of the total each way
        eps = np.finfo(float).eps
        assert np.all(np.abs(rho - ref) <= 2 * mu.size * eps * mu.total_mass)


@pytest.mark.parametrize("name, mu, exact", list(_profile_measures()))
def test_profile_matches_brute_force(name, mu, exact):
    rep = carleson_profile(mu, 0, 9)
    _assert_matches_arc_profile(rep.rho, mu, 0, 9, exact)
    if name == "shallow only":
        # depth >= 1/5: the levels from 3 on hold no atom
        assert np.all(rep.rho[3:] == 0.0) and rep.rho[2] > 0.0
    if name == "tied masses":
        assert rep.rho[3] == 3 / 1024
    if name == "atom at 0":
        # the level-0 window is the whole disk: the atom counts once
        assert rep.rho[0] == 1.0 and np.all(rep.rho[1:] == 0.0)


_EDGE_ANGLES = (0.0, np.nextafter(TWO_PI, 0.0), np.pi, np.nextafter(np.pi, 0.0))


_ATOM = st.tuples(
    st.one_of(st.sampled_from(_EDGE_ANGLES),
              st.floats(0.0, TWO_PI, exclude_max=True)),
    st.one_of(st.sampled_from((0.0, 0.5, 1.0 - 2.0**-7, 1.0)),
              st.floats(0.0, 1.0)),
    st.integers(1, 1023))


@given(st.one_of(st.lists(_ATOM, max_size=40),
                 st.lists(_ATOM, min_size=64, max_size=128)))
@settings(max_examples=200, deadline=None)
def test_profile_is_the_sup_over_arcs(atoms):
    # atoms at angle 0 and just below 2 pi, on the circle, at the origin,
    # with tied angles (the edge list repeats), or none at all; lattice
    # masses make every sum exact.  The sweep is read both in full and
    # pruned at every size: lists of 64 or more atoms split it into 8 or
    # more segments of 8 or more atoms.
    t, r, m = (np.array(v, dtype=float) for v in zip(*atoms)) if atoms else \
        (np.zeros(0),) * 3
    mu = PullbackMeasure(r * np.exp(1j * t), m / 1024)
    ref = arc_profile(mu, 0, 12)
    assert np.array_equal(carleson_profile(mu, 0, 12).rho, ref)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(carleson, "PRUNED_SWEEP_MIN", 0)
        assert np.array_equal(carleson_profile(mu, 0, 12).rho, ref)


def _sparse_measure(k=300, deepest=22):
    """Atoms with depths spread over levels 0..deepest, random masses."""
    rng = np.random.default_rng(11)
    depth = 2.0 ** -rng.uniform(0, deepest, k)
    t = 2 * np.pi * rng.random(k)
    return PullbackMeasure((1 - depth) * np.exp(1j * t), rng.random(k))


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_profile_matches_brute_force_on_lens_measures(theta):
    mu = pullback_graded(lens(theta), per_octave=8)
    _assert_matches_arc_profile(carleson_profile(mu, 1, 16).rho, mu, 1, 16, False)


def _pruned_sweep_measures(lattice):
    """(name, measure) with K >= PRUNED_SWEEP_MIN = 4096 atoms, so that the
    window sweep is pruned, over at least 64 segments of 64 atoms; masses on
    a 2^-10 lattice when ``lattice``, which makes every sum exact."""
    rng = np.random.default_rng(17)

    def masses(k):
        return rng.integers(1, 1024, k) / 1024 if lattice else rng.random(k)

    g = make_grid(2**12)
    # half pulls the circle onto a cusp at 1: the mass concentrates at angle
    # 0, so the heaviest windows of the deep levels wrap past 2 pi
    yield "half", PullbackMeasure(half().trace(g).values, masses(g.size))
    # equal masses on a ring at depth 2^-20: the windows of a level tie
    ring = np.full(g.size, 1 / 1024 if lattice else 0.1)
    yield "ring", PullbackMeasure((1 - 2.0**-20) * g.points, ring)
    # half turned so that its cusp sits 0.01 below 2 pi
    yield "turned half", PullbackMeasure(np.exp(-0.01j) * half().trace(g).values,
                                         masses(g.size))
    # 4096 + 37 atoms at depth 2^-20: the last of the segments of 64 holds
    # 37, a cluster of atoms 16 times heavier 0.01 below 2 pi
    t = np.concatenate([np.sort(rng.random(4096)) * (TWO_PI - 0.1),
                        TWO_PI - 0.01 + 2e-4 * np.arange(37)])
    m = masses(t.size)
    m[-37:] *= 16
    yield "short last segment", PullbackMeasure((1 - 2.0**-20) * np.exp(1j * t), m)


@pytest.mark.parametrize("name, mu", list(_pruned_sweep_measures(True)))
def test_pruned_sweep_matches_brute_force(name, mu):
    assert mu.size >= carleson.PRUNED_SWEEP_MIN
    _assert_matches_arc_profile(carleson_profile(mu, 6, 12).rho, mu, 6, 12, True)


def _sorted_levels(mu, n_lo, n_hi):
    """(h, angles, masses) of the atoms of depth <= h sorted by angle, for
    h = 2^-n, n = n_lo..n_hi."""
    order = np.argsort(mu.angles, kind="stable")
    ang, mas, depth = mu.angles[order], mu.masses[order], mu.depth[order]
    for n in range(n_lo, n_hi + 1):
        keep = depth <= 2.0**-n
        yield 2.0**-n, ang[keep], mas[keep]


@pytest.mark.parametrize("name, mu", list(_pruned_sweep_measures(False)))
def test_pruned_sweep_picks_the_first_heaviest_window(name, mu, monkeypatch):
    # with rounded masses, windows that tie in exact arithmetic differ in
    # the last bits, and the window summed again decides the last bits of
    # rho: the pruned sweep, here at every level whatever its size, must
    # pick the full sweep's first argmax
    monkeypatch.setattr(carleson, "PRUNED_SWEEP_MIN", 0)
    starts = []
    for h, ang, mas in _sorted_levels(mu, 0, 12):
        mass, start = full_sweep(ang, mas, h)
        assert _window_max(ang, mas, h) == mass
        starts.append((start, ang.size, ang[start] + TWO_PI * h >= TWO_PI))
    if name in ("half", "turned half"):
        assert any(wraps for *_, wraps in starts)
    if name == "short last segment":
        # the heaviest window starts among the last 37 atoms at some level
        assert any(start >= 4096 for start, k, _ in starts if k == 4133)


def test_profile_matches_brute_force_on_a_sparse_measure():
    mu = _sparse_measure()
    rho = carleson_profile(mu, 1, 20).rho
    _assert_matches_arc_profile(rho, mu, 1, 20, False)
    assert rho[-1] > 0.0


def test_profile_reads_window_edges_at_every_level():
    # deep unit atoms a few ulp around the far edge a + 2 pi h of arcs from
    # atoms at both ends of the circle and in between, past 2 pi included:
    # the profile decides each edge as the brute force does
    for n in range(1, DEEPEST_LEVEL + 1):
        h = 2.0**-n
        starts = np.array([0.0, 1.0, np.pi, TWO_PI - 0.5 * TWO_PI * h,
                           np.nextafter(TWO_PI, 0.0)])
        angles = [starts]
        for a in starts:
            edge = np.float64(a + TWO_PI * h)
            angles.append((edge.view(np.int64) + np.arange(-3, 4)).view(np.float64))
        t = np.concatenate(angles) % TWO_PI
        mu = PullbackMeasure((1.0 - 2.0**-50) * np.exp(1j * t), np.ones(t.size))
        rho = carleson_profile(mu, n - 1, n).rho
        assert np.array_equal(rho, arc_profile(mu, n - 1, n)), n


def test_profile_refuses_levels_beyond_the_deepest():
    mu = _sparse_measure()
    assert carleson_profile(mu, 0, DEEPEST_LEVEL).rho.size == DEEPEST_LEVEL + 1
    with pytest.raises(ValueError):
        carleson_profile(mu, 0, DEEPEST_LEVEL + 1)


@pytest.mark.parametrize("n_lo, n_hi", [(0.5, 3), (0, 3.5), (np.nan, 3), (0, np.nan),
                                        (1.0, 3)])
def test_profile_refuses_fractional_levels(n_lo, n_hi):
    # (0, 3.5) used to return the profile at h = 2^-0.5, 2^-1.5, ...
    with pytest.raises(ValueError, match=f"n_lo={n_lo!r}, n_hi={n_hi!r}"):
        carleson_profile(_sparse_measure(), n_lo, n_hi)


def test_profile_takes_numpy_integer_levels():
    mu = _sparse_measure()
    got = carleson_profile(mu, np.int64(1), np.int64(9))
    want = carleson_profile(mu, 1, 9)
    assert np.array_equal(got.h, want.h) and np.array_equal(got.rho, want.rho)


def test_profile_sees_a_pair_between_level_18_roots():
    # two half-mass atoms at depth 2^-19, 0.1 pi 2^-18 either side of the
    # point e halfway between two of the 2^18 level-16 roots: the arcs of
    # levels 16 to 19 from the first atom hold both; the 64 heavier atoms
    # at depth 0.95 lie outside every window of these levels
    e = 2 * np.pi * 12345 / 2**18 + np.pi * 2.0**-18
    pair = (1 - 2.0**-19) * np.exp(1j * (e + np.array([-1, 1]) * 0.1 * np.pi * 2.0**-18))
    shallow = 0.05 * np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    mu = PullbackMeasure(np.concatenate([pair, shallow]),
                         np.concatenate([[0.5, 0.5], np.ones(64)]))
    rep = carleson_profile(mu, 16, 19)
    assert np.array_equal(rep.rho, [1.0, 1.0, 1.0, 1.0])


def _half_compactify(n, rotation=1.0):
    """The pull-back measure of half with the compactify weight on 2^n
    points, rotated by ``rotation``."""
    phi, g = half(), make_grid(2**n)
    w = parse_weight("compactify", phi, g, strict=True)
    return pullback(g.samples(rotation * phi.trace(g).values), w.density())


def test_profile_is_rotation_invariant():
    # the supremum over all arcs does not depend on where angle 0 sits;
    # rotating the atoms moves their angles and depths by a few ulp only
    rho = [carleson_profile(_half_compactify(12, np.exp(1j * a)), 1, 12).rho
           for a in (0.0, 0.1234, 2.5)]
    for other in rho[1:]:
        assert np.all(np.abs(other - rho[0]) <= 1e-11 * rho[0])


def test_profile_reaches_the_level_3_supremum():
    # level 3 of half/compactify on 2^19 points: the heaviest closed arc,
    # found by searching every atom's arc end in the doubled angle list,
    # summed directly at depth <= 1/8
    mu = _half_compactify(19)
    h = 2.0**-3
    rho = carleson_profile(mu, 3, 4).rho[0]
    kept = mu.depth <= h
    ang, mas = mu.angles[kept], mu.masses[kept]
    order = np.argsort(ang)
    a = ang[order]
    prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([mas[order]] * 2))])
    right = np.searchsorted(np.concatenate([a, a + TWO_PI]), a + TWO_PI * h,
                            side="right")
    start = a[np.argmax(prefix[right] - prefix[:a.size])]
    offset = (ang - start) % TWO_PI
    direct = math.fsum(mas[offset <= TWO_PI * h])
    assert abs(rho - direct) <= 1e-12 * direct


def _benchmark_measures():
    """The nine boundary recipes of the benchmark at N = 2^12, rotated, and
    the graded lens measures with the unit and the HS density."""
    rng = np.random.default_rng(0)
    recipes = [("betaexp:0.5", "hs", True), ("betaexp:2", "staircase:default", True),
               ("lens:0.5", "lensdecomp", True), ("lens:0.5", "boxdecomp", True),
               ("hsx", "hs", False), ("extreme", "power:2", False),
               ("extreme", "gauge", False), ("half", "compactify", True),
               ("half", "unit", True)]
    g = make_grid(2**12)
    for spec, recipe, strict in recipes:
        phi = parse_symbol(spec)
        w = parse_weight(recipe, phi, g, strict=strict)
        for rot in (1.0, np.exp(2j * np.pi * rng.random())):
            yield f"{spec}/{recipe}", pullback(
                g.samples(rot * phi.trace(g).values), w.density())
    for theta in (0.3, 0.5, 0.7):
        phi = parse_symbol(f"lens:{theta:g}")
        for density_fn in (None, phi.co):
            yield f"lens:{theta:g}", pullback_graded(phi, density_fn, per_octave=8)


@pytest.mark.parametrize("name, mu", list(_benchmark_measures()))
def test_profile_monotone_and_bounded_without_slack(name, mu):
    rho = carleson_profile(mu, 1, 16).rho
    assert np.all(np.diff(rho) <= 0)
    assert rho.max() <= mu.total_mass * (1 + 1e-9)


def test_profile_lens_decompact_not_vanishing():
    g = make_grid(2**12)
    w = lens_decompact_weight(0.5, g)
    lam = lens(0.5)
    density_fn = lambda t: np.abs(1.0 - lam.boundary(t)) ** -1.0
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
    nu = pullback(phi.trace(g), phi.co(g.signed_angles()))
    for p in (0.5, 1.0, 1.5):
        rep = luecking_sum(nu, p, 11)
        for n in rep.series.indices:
            level_total = 2.0 ** int(n) * dyadic_annulus_mass(nu, 2.0 ** -int(n))
            assert rep.per_level[n] >= level_total ** (p / 2.0) - 1e-12


def test_luecking_p_monotone_when_normalized():
    g = make_grid(2**10)
    mu = pullback(g.samples(g.points / 2), 0.5)
    totals = [luecking_sum(mu, p, 6).series.total for p in (0.5, 1.0, 2.0, 4.0)]
    assert np.all(np.diff(totals) <= 1e-12)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_luecking_memory_follows_atoms_not_boxes():
    # level 24 tiles the corona with 2^24 boxes; three atoms occupy two
    r = 1.0 - 0.75 * 2.0**-24
    mu = PullbackMeasure(r * np.exp(1j * np.array([-1e-9, 1e-9, np.pi / 2])),
                         np.array([1e-3, 2e-3, 4e-3]))
    rep, peak = _traced_peak(luecking_sum, mu, 1.0, 24)
    expected = np.sqrt(2.0**24 * 3e-3) + np.sqrt(2.0**24 * 4e-3)
    assert abs(rep.per_level[24] - expected) <= 1e-12 * expected
    assert rep.series.total == rep.per_level[24]
    assert peak < 2**20


def test_measure_layer_holds_no_duplicate_arrays():
    # a 2^16-point half pull-back with the unit weight: the measure views
    # the trace and the transient peaks stay a few float arrays of length N
    g = make_grid(2**16)
    trace = half().trace(g)
    w = unit_weight(g)
    density = w.density()
    n_floats = 8 * g.size
    mu, peak = _traced_peak(pullback, trace, density)
    assert peak < 4.5 * n_floats
    # the unit density stays one zero-stride constant, and a constant
    # density is divided once: masses, depths and angles are the arrays
    assert density.strides == (0,)
    _, peak = _traced_peak(pullback, trace, 1.0)
    assert peak < 3.5 * n_floats
    assert np.shares_memory(mu.locations, trace.values)
    assert not mu.locations.flags.writeable
    for constant in (w.modulus.values, w.trace.values, w.outer.log_modulus):
        assert constant.strides == (0,)
    assert level_sets(half(), g).level_index.dtype == np.int8
    _, peak = _traced_peak(luecking_sum, mu, 2.0, 14)
    assert peak < 4 * n_floats


def _lattice_mass():
    return st.integers(0, 8).map(lambda k: k / 64.0)


@st.composite
def _box_atoms(draw, n_max, dense):
    """Atoms in coronas 0..n_max, some within ulps of a box edge or of the
    closed edge of their corona, plus atoms on the circle, past corona n_max
    and within ulps of the circle, with masses on the lattice 2^-6 Z.
    Dense: at least 2^(n_max+1) atoms in boxes, so no more keys than atoms.
    Sparse: at most 12, one of them in corona 4 or deeper."""
    size = 1 << (n_max + 2)
    kept = draw(st.integers(2 << n_max, size - 6) if dense else st.integers(1, 12))
    z, m = [], []
    for i in range(kept):
        n = draw(st.integers(0 if dense or i else 4, n_max))
        j = draw(st.integers(0, (1 << n) - 1))
        # a box edge (j + 1/2) or a point inside the box, maybe an ulp off
        t = TWO_PI * (j + draw(st.sampled_from([0.5, 0.0, 0.3]))) / (1 << n)
        t = np.nextafter(t, t + draw(st.sampled_from([-1.0, 0.0, 1.0])))
        # the closed edge 2^-n of the corona, give or take an ulp, its
        # middle, or just inside its open edge
        c = draw(st.sampled_from([1.0, 0.75, 0.5 + 2.0**-20] if i else [0.75]))
        r = 1.0 - c * 2.0**-n
        r += draw(st.integers(-2, 2)) * 2.0**-53 if c == 1.0 else 0.0
        z.append(r * np.exp(1j * t))
        m.append(draw(_lattice_mass()))
    for _ in range(draw(st.integers(0, 6))):
        r = 1.0 - draw(st.sampled_from([0.75 * 2.0**-draw(st.integers(n_max + 1, 50)),
                                        draw(st.integers(0, 8)) * 2.0**-53]))
        z.append(r * np.exp(1j * draw(st.floats(0.0, TWO_PI))))
        m.append(draw(_lattice_mass()))
    order = draw(st.permutations(range(len(z))))
    z, m = np.array(z)[order], np.array(m)[order]
    pad = size - z.size
    return PullbackMeasure(np.concatenate([z, np.exp(1j * np.arange(pad))]),
                           np.concatenate([m, np.full(pad, 1.0 / 64.0)]))


@pytest.mark.parametrize("n_max, dense", [(3, True), (8, False)],
                         ids=["dense", "sparse"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_box_grouping_matches_brute_force(n_max, dense, data):
    # both grouping modes against the per-level fsum reference: every box
    # mass, the Luecking level sums and the heaviest box of each corona,
    # exactly on lattice masses
    mu = data.draw(_box_atoms(n_max, dense))
    key = dyadic_boxes(mu, n_max)
    assert (key.max() < np.count_nonzero(key >= 0)) == dense
    ref = {box: mass for box, mass in box_masses(mu, n_max).items() if mass > 0}
    keys, masses, edges = carleson._box_masses(key, mu.masses, n_max)
    level, j = _corona_and_box(keys)
    assert dict(zip(zip(level.tolist(), j.tolist()), masses.tolist())) == ref
    # the corona table: the boxes of corona n are keys[edges[n]:edges[n + 1]]
    assert edges[0] == 0 and edges[-1] == keys.size
    assert np.array_equal(np.repeat(np.arange(n_max + 1), np.diff(edges)), level)
    for p, rtol in ((2.0, 0.0), (0.7, 1e-14)):
        want = [math.fsum((2.0**n * mass) ** (p / 2.0)
                          for (k, _), mass in ref.items() if k == n)
                for n in range(n_max + 1)]
        got = luecking_sum(mu, p, n_max).per_level
        assert np.allclose(got, want, rtol=rtol, atol=0.0)
    heaviest = {}
    for (k, i), mass in sorted(ref.items()):
        if k and mass > heaviest.get(k, (0.0, -1))[0]:
            heaviest[k] = (mass, i)
    if not heaviest:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "pullback", lambda trace, density: mu)
        w, boxes = box_decompact_weight(half(), make_grid(mu.size))
    assert boxes.ks.tolist() == sorted(heaviest)
    assert boxes.box_masses.tolist() == [heaviest[k][0] for k in boxes.ks]
    assert boxes.box_index.tolist() == [heaviest[k][1] for k in boxes.ks]
    added = math.fsum(mu.masses * (w.density() - 1.0))
    assert added == pytest.approx(boxes.added_mass, rel=1e-12)


def _box_key_measures():
    """The uniform pull-backs of three closed forms, the six graded lens
    measures of the kernel route, rotated, and a sparse measure."""
    for spec in ("half", "lens:0.5", "betaexp:2"):
        for e in (12, 14, 16):
            yield pullback(parse_symbol(spec).trace(make_grid(1 << e)), 1.0)
    rng = np.random.default_rng(5)
    for theta, hs, per_octave in ((0.3, False, 8), (0.5, False, 8), (0.7, False, 8),
                                  (0.3, True, 8), (0.7, True, 8), (0.5, True, 12)):
        phi = lens(theta)
        mu = pullback_graded(phi, phi.co if hs else None, per_octave=per_octave)
        rot = np.exp(2j * np.pi * rng.random())
        yield PullbackMeasure(rot * mu.locations, mu.masses)
    yield _sparse_measure()


def test_box_keys_match_the_gathered_tables():
    # 2^n / (2 pi) by ldexp and 2^n - 1 by a shift, bit for bit the keys of
    # the per-level tables: scaling by 2^n is exact
    for mu in _box_key_measures():
        for n_max in (12, 24, 51):
            assert np.array_equal(dyadic_boxes(mu, n_max), box_keys(mu, n_max))


def test_luecking_levels_past_the_deepest_corona_are_zero():
    # atoms within 16 ulp of the circle are snapped onto it or land in
    # coronas 49-51, so no heap key needs a level past 51
    k = np.arange(1, 17)
    z = np.concatenate([(1.0 - k * 2.0**-53) * np.exp(1j * k),
                        [0.5, 0.9j, 0.999 + 0j]])
    mu = PullbackMeasure(z, np.arange(1.0, z.size + 1))
    level, _ = _corona_and_box(dyadic_boxes(mu, 70))
    assert set(level[:16].tolist()) == {-1, 49, 50, 51}
    deep = luecking_sum(mu, 0.7, 70).per_level
    assert deep.tolist() == luecking_sum(mu, 0.7, 51).per_level.tolist() + [0.0] * 19
    assert np.all(deep[49:52] > 0)


@pytest.mark.parametrize("n_max", [-1, -2, 2.5, np.nan])
def test_luecking_refuses_a_negative_or_fractional_level(n_max):
    # -1 used to return an empty report, -2 and 2.5 to fail inside numpy
    mu = PullbackMeasure(np.array([0.5j]), np.array([1.0]))
    with pytest.raises(ValueError, match="n_max must be an integer >= 0"):
        luecking_sum(mu, 2.0, n_max)


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


def test_series_without_four_positive_tail_terms_is_inconclusive():
    # a positive last term but three positive terms in the tail n >= 20
    k = np.arange(1, 41, dtype=float)
    terms = np.where(k < 20, 1.0 / k**2, 0.0)
    terms[-3:] = 1e-3
    series = Series(k, terms)
    assert series.tail_exponent is None and series.verdict == "inconclusive"
    empty = Series(np.arange(0), np.zeros(0))
    assert empty.tail_exponent is None and empty.verdict == "converging"


def test_series_tail_exponent_is_the_reason():
    k = np.arange(1, 41, dtype=float)
    assert abs(Series(k, 1.0 / k**2).tail_exponent - 2.0) <= 1e-9
    assert abs(Series(k, k**-0.5).tail_exponent - 0.5) <= 1e-9
    finite = np.zeros(40)
    finite[:3] = (1.0, 0.5, 0.25)
    assert Series(k, finite).tail_exponent is None
    assert Series(k, finite).verdict == "converging"
    series = Series(k, 1.0 / k**2)
    assert np.array_equal(np.cumsum(series.terms), np.cumsum(1.0 / k**2))
    with pytest.raises(ValueError):
        Series(k, -1.0 / k)
    with pytest.raises(ValueError, match="NaN"):
        Series(k, np.where(k == 3, np.nan, 1.0 / k**2))


# ---------------------------------------------------------------- annuli

def test_annulus_excludes_boundary_atoms():
    mu = _uniform_circle_measure()
    assert annulus_mass(mu, 1.0) == 0.0  # all atoms on |z| = 1
    # |z| = 1 + ulp is snapped onto the circle in the measure's own copy
    outside = np.nextafter(1.0, 2.0) * 1j
    locs = np.array([0.5, 1.0 + 0j, outside])
    mu2 = PullbackMeasure(locs, np.array([0.25, 0.75, 0.5]))
    assert annulus_mass(mu2, 1.0) == 0.25
    assert mu2.locations[2] == 1j and mu2.depth[2] == 0.0
    assert locs[2] == outside and not np.shares_memory(mu2.locations, locs)


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
        mass = dyadic_annulus_mass(mu, h)
        products.append(mass * np.log(1 / h) * np.log(np.log(1 / h)) ** 2)
    products = np.array(products)
    assert products.max() / products.min() < 3.0


def _corona_and_box(key):
    """Corona n and box j of heap keys 2^n - 1 + j; both -1 for the key -1."""
    level = np.frexp(key + 1.0)[1] - 1
    return level, key + 1 - (1 << np.maximum(level, 0))


def test_box_partition_exactness():
    # the 2^n aligned boxes of corona n hold its atoms in their angular
    # cells, and their masses sum to the dyadic annulus, atom by atom
    cases = []
    g = make_grid(2**12)
    cases.append(pullback(half().trace(g), 1.0))
    phi = hs_extremal()
    cases.append(pullback(phi.trace(g), phi.co(
        g.signed_angles())))
    cases.append(pullback_graded(lens(0.5)))
    for mu in cases:
        level, box = _corona_and_box(dyadic_boxes(mu, 10))
        for n in range(0, 11):
            h = 2.0**-n
            sel = level == n
            masses = np.bincount(box[sel], weights=mu.masses[sel],
                                 minlength=2**n)
            assert masses.size == 2**n
            offset = np.angle(mu.locations[sel]
                              * np.exp(-2j * np.pi * box[sel] / 2**n))
            assert np.all(np.abs(offset) <= np.pi * h * (1.0 + 1e-12))
            ann = dyadic_annulus_mass(mu, h)
            assert abs(masses.sum() - ann) <= 1e-12 * max(ann, 1e-30)


def test_dilation_edge_atoms_stay_in_corona_one():
    # phi(z) = z/2 puts every atom on |z| = 1/2, many of them at 1/2 - ulp:
    # the dyadic annulus, the level-1 boxes and the level-1 Carleson
    # windows all count them on the closed side of depth 1/2
    g = make_grid(2**10)
    mu = pullback(g.samples(g.points / 2), 1.0)
    assert abs(dyadic_annulus_mass(mu, 0.5) - 1.0) < 1e-14
    level, box = _corona_and_box(dyadic_boxes(mu, 8))
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
    assert carleson_profile(mu, 1, 2).rho.tolist() == [1.0, 0.0]
    assert dyadic_annulus_mass(mu, 0.5) == 1.0


def test_corona_levels_match_dyadic_annuli_at_the_edges():
    # atoms within a few ulp of every dyadic circle |z| = 1 - 2^-n: each
    # corona holds exactly the atoms of the dyadic annulus of size 2^-n
    n = np.repeat(np.arange(1, 45), 9)
    k = np.tile(np.arange(-4, 5), 44)
    r = (1.0 - 2.0 ** -n.astype(float)) * (1.0 + k * 2.0**-52)
    mu = PullbackMeasure(r * np.exp(1j * k), np.ones(r.size))
    level, _ = _corona_and_box(dyadic_boxes(mu, 50))
    assert np.all(level >= 0)
    for m in range(51):
        assert np.sum(level == m) == dyadic_annulus_mass(mu, 2.0**-m)


@pytest.mark.parametrize("h", [0.0, -0.5, 1.5, np.nan])
def test_annulus_mass_refuses_a_size_outside_the_unit_interval(h):
    with pytest.raises(ValueError, match=r"annulus size must be in \(0, 1\]"):
        annulus_mass(_uniform_circle_measure(64), h)
