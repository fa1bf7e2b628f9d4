"""Direct references for the window queries of ``hardylab.carleson`` and
for the buffers ``hardylab.operators`` saves.

Each window query tests every atom against a window and sums the atoms
inside with ``math.fsum``, so its only rounding is the final one;
:func:`full_sweep` instead rounds as the library does, to pin which window
the pruned sweep picks, :func:`box_masses` places an atom in its box as
the library rounds it, :func:`box_keys` reads the heap keys from per-level
tables gathered by level, and :func:`graded_cells` builds the graded arc
cells octave by octave with ``np.linspace``.  The operator references keep
the plain forms the library replaced: one N-point complex FFT per trace
(:func:`fft_head`), N-length arrays for every factor of a moment integrand
(:func:`moment_integral`) and a list of pivot rows for the kernel route
(:func:`pivot_row_spectrum`), whose diagonal is read from |z|
(:func:`kernel_diagonal`).  The symbol and weight references keep the
closed forms the library now reads from one datum: outer log-moduli in the
angle (:func:`beta_exp_log_modulus`, :func:`table_log_modulus`), a
table's co-modulus through a periodic extension built by hand
(:func:`table_co_modulus`), the power
weights as one power of the co-modulus (:func:`co_power`) and the
compactify schedule found level by level (:func:`compactify_schedule`).
"""

import math

import numpy as np

from hardylab.grid import IntegralResult, coefficients_from_fft, refined_mean
from hardylab.operators import FIT_FLOOR, KERNEL_RELATIVE_FLOOR

TWO_PI = 2.0 * np.pi


def window_mass(mu, center, h):
    """Mass of the closed Carleson window of size h at ``center`` on the
    circle: depth <= h and |arg(z conj(center))| <= pi h."""
    c = complex(center)
    offset = np.angle(mu.locations * np.conj(c / abs(c)))
    inside = (mu.depth <= h) & (np.abs(offset) <= np.pi * h)
    return math.fsum(mu.masses[inside])


def dyadic_annulus_mass(mu, h):
    """Mass of the dyadic half h/2 < depth <= h of the annulus of size h."""
    d = mu.depth
    return math.fsum(mu.masses[(d > h / 2.0) & (d <= h)])


def arc_profile(mu, n_lo, n_hi):
    """Carleson profile by brute force: per level h = 2^-n, the largest mass
    of depth <= h on a closed arc [a, a + 2 pi h], over every atom's angle
    a as the left edge.  The part of an arc past 2 pi holds the atoms with
    angle <= a + 2 pi h - 2 pi, short of a, so that an arc holds at most
    one turn."""
    depth, angles = mu.depth, mu.angles
    rho = []
    for n in range(n_lo, n_hi + 1):
        h = 2.0**-n
        kept = depth <= h
        ang, mas = angles[kept], mu.masses[kept]
        best = 0.0
        for a in ang:
            end = a + TWO_PI * h
            inside = ((a <= ang) & (ang <= end)) | ((ang < a) & (ang <= end - TWO_PI))
            best = max(best, math.fsum(mas[inside]))
        rho.append(best)
    return np.array(rho)


def full_sweep(ang, mas, h):
    """(mass, start) of the first heaviest closed arc [a, a + 2 pi h] over
    atoms sorted by angle, every window read from the prefix sums as the
    library reads them, with no pruning: the mass is that window summed
    again pairwise, and start is its first atom."""
    k = ang.size
    prefix = np.concatenate(([0.0], np.cumsum(mas)))
    ends = ang + TWO_PI * h
    wraps = ends >= TWO_PI
    ends[wraps] -= TWO_PI
    right = np.searchsorted(ang, ends, side="right")
    right[wraps] = np.minimum(right[wraps], np.arange(k)[wraps])
    top = prefix[right]
    top[wraps] += prefix[k]
    i = int(np.argmax(top - prefix[:-1]))
    if wraps[i]:
        return float(mas[i:].sum() + mas[:right[i]].sum()), i
    return float(mas[i:right[i]].sum()), i


def box_masses(mu, n_max):
    """Mass of every box that holds an atom, as {(corona n, box j): mass}
    over coronas 0..n_max, level by level.

    The corona compares each depth with the sizes 2^-n, the box rounds
    x = angle 2^n / (2 pi) up from x - 1/2 as the library does, mod 2^n,
    and each box's masses are summed by ``math.fsum``.
    """
    groups = {}
    for n in range(n_max + 1):
        h = 2.0**-n
        for d, a, m in zip(mu.depth, mu.angles, mu.masses):
            if h / 2.0 < d <= h:
                j = math.ceil(float(a) * (2.0**n / TWO_PI) - 0.5) % 2**n
                groups.setdefault((n, j), []).append(m)
    return {box: math.fsum(m) for box, m in groups.items()}


def box_keys(mu, n_max):
    """Heap keys 2^n - 1 + j of the atoms' boxes (-1 outside coronas
    0..n_max), with 2^n / (2 pi) and 2^n - 1 gathered by level from tables
    over the levels held."""
    d = mu.depth
    m, e = np.frexp(d)
    level = (m == 0.5).astype(np.int64) - e
    level[(d <= 0.0) | (level > n_max)] = -1
    n = np.arange(int(level.max(initial=0)) + 1)
    lv = np.maximum(level, 0)
    x = (2.0**n / TWO_PI)[lv] * mu.angles
    first = ((1 << n) - 1)[lv]
    key = (np.ceil(x - 0.5).astype(np.int64) & first) + first
    key[level < 0] = -1
    return key


def graded_cells(singular_angles, octaves, per_octave):
    """(angles, arc measures) of the graded cells, octave by octave: each
    octave's edges by ``np.linspace``, its cells' midpoints as the angles
    and its edge differences as the arc lengths, then one core atom per side
    for the innermost interval.  The + side of each angle reaches half the
    gap after it, the - side half the gap before it."""
    sing = sorted(a % TWO_PI for a in singular_angles)
    gaps = np.diff(sing + [sing[0] + TWO_PI])
    angles, weights = [], []
    for i, base in enumerate(sing):
        for sgn, gap in ((1.0, gaps[i]), (-1.0, gaps[i - 1])):
            t0 = float(gap) / 2.0
            for k in range(octaves):
                hi = t0 * 2.0**-k
                edges = np.linspace(hi / 2.0, hi, per_octave + 1)
                angles.append(base + sgn * 0.5 * (edges[1:] + edges[:-1]))
                weights.append(np.diff(edges) / TWO_PI)
            core = t0 * 2.0**-octaves
            angles.append(np.array([base + sgn * core / 2.0]))
            weights.append(np.array([core / TWO_PI]))
    return np.concatenate(angles), np.concatenate(weights)


def beta_exp_log_modulus(beta, t):
    """log|phi*| = -|sin(t/2)|^beta of ``beta_exp(beta)``, in closed form."""
    return -np.abs(np.sin(np.asarray(t) / 2.0)) ** beta


def table_log_modulus(angles, modulus, t):
    """log m of the periodic linear interpolation m of an (angle, modulus)
    table, read at the angles t."""
    return np.log(np.interp(np.asarray(t) % TWO_PI, np.asarray(angles) % TWO_PI,
                            modulus, period=TWO_PI))


def table_co_modulus(angles, modulus, t):
    """1 - m at the angles t, m the periodic linear interpolation of an
    (angle, modulus) table built by hand: the angles reduced mod 2 pi and
    sorted, one entry carried past each end, and ``np.interp`` with no
    period."""
    a = np.asarray(angles, dtype=float) % TWO_PI
    order = np.argsort(a)
    a, m = a[order], np.asarray(modulus, dtype=float)[order]
    a_ext = np.concatenate(([a[-1] - TWO_PI], a, [a[0] + TWO_PI]))
    m_ext = np.concatenate(([m[-1]], m, [m[0]]))
    return 1.0 - np.interp(np.asarray(t, dtype=float) % TWO_PI, a_ext, m_ext)


def co_power(co, expo):
    """|w*| = co^expo, the power weights' modulus as one power."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(co) ** expo


def kernel_diagonal(mu):
    """1 - |z|^2 of the interior atoms, as (1 - |z|)(1 + |z|) from |z|."""
    r = np.abs(mu.locations[mu.depth > 0.0])
    return (1.0 - r) * (1.0 + r)


def compactify_schedule(masses, terms=64):
    """(ks, series terms, log steps) of the compactifying weight, one level
    at a time: k_n is the first k >= 1 with c_k <= 2^-n, for n = 1, 2, ...
    while one exists; None when there is none for n = 1."""
    ks, series, log_steps = [], [], np.zeros(len(masses))
    for n in range(1, terms + 1):
        ok = np.flatnonzero(masses[1:] <= 2.0**-n) + 1
        if len(ok) == 0:
            break
        k_n = int(ok[0])
        ks.append(k_n)
        series.append(float(masses[k_n]) * np.log(n))
        log_steps[k_n] -= np.log(n)
    if not ks:
        return None
    return np.array(ks, dtype=np.int64), np.array(series), log_steps


def fft_head(values, rows):
    """First ``rows`` Taylor coefficients and the share of energy at the
    negative frequencies k = N/2 + 1 .. N - 1, from one complex FFT."""
    n = len(values)
    spectrum = np.fft.fft(values)
    negative = spectrum[n // 2 + 1:]
    total = np.vdot(spectrum, spectrum).real
    share = np.vdot(negative, negative).real / total if total > 0 else 0.0
    return coefficients_from_fft(spectrum, rows - 1, n), share


def moment_integral(wvalues, phivalues, alpha):
    """Quadrature of |w|^2 (1 - |phi|^2)^-alpha with every factor an
    N-length array, and the divergence rule of ``refined_mean``."""
    dens = np.abs(np.array(wvalues)) ** 2
    base = 1.0 - np.abs(np.asarray(phivalues)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = dens / base**alpha
    integrand[~(base > 0.0)] = np.inf
    bad = ~np.isfinite(integrand)
    if np.any(bad):
        if np.any(dens[bad] > 0.0):
            return IntegralResult(float("inf"), True)
        integrand[bad] = 0.0
    return refined_mean(integrand)


def pivot_row_spectrum(mu):
    """Singular values of the kernel-route factor with its pivot rows kept
    in a list and stacked by ``np.array``, the interior atoms as given."""
    interior = mu.depth > 0.0
    z = mu.locations[interior]
    co = kernel_diagonal(mu)
    g = np.sqrt(mu.masses[interior]).astype(complex)
    d = mu.masses[interior] / co
    top = float(d.max()) if d.size else 0.0
    stop = max(FIT_FLOOR, np.sqrt(top) * KERNEL_RELATIVE_FLOOR) ** 2
    rows = []
    while d.sum() > stop:
        p = int(np.argmax(d))
        a = z[p]
        kernel = 1.0 / (1.0 - z * np.conj(a))
        rows.append(g * np.conj(g[p]) * kernel / np.sqrt(d[p]))
        g = g * (z - a) * kernel
        d = (g.real**2 + g.imag**2) / co
    return np.linalg.svd(np.array(rows), compute_uv=False) if rows else np.zeros(0)
