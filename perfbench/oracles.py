"""Reference values computed apart from hardylab.

Every function here is written from the mathematics (closed forms, series
with closed-form coefficients, Gauss-Legendre quadrature) using numpy only;
none of them calls the library.
"""

from __future__ import annotations

from math import comb, gamma, log

import numpy as np


def _lens_s(theta: float, t: np.ndarray) -> np.ndarray:
    # on the circle (1 - xi)/(1 + xi) = -i tan(t/2), t in (-pi, pi]
    return np.abs(np.tan(t / 2.0)) ** theta * np.exp(-0.5j * np.pi * theta * np.sign(t))


def lens_point(theta: float, t: np.ndarray) -> np.ndarray:
    """Boundary value of the lens map at e^{it}: (1 - s)/(1 + s) with
    s = |tan(t/2)|^theta exp(-i theta pi/2 sign t)."""
    s = _lens_s(theta, t)
    return (1.0 - s) / (1.0 + s)


def co_modulus(spec: str, t: np.ndarray) -> np.ndarray:
    """1 - |phi*(e^{it})| for a catalog symbol, without cancellation."""
    name, _, arg = spec.partition(":")
    with np.errstate(divide="ignore", over="ignore"):
        if name == "half":
            return 2.0 * np.sin(t / 4.0) ** 2  # 1 - cos(t/2)
        if name == "betaexp":
            return -np.expm1(-np.abs(np.sin(t / 2.0)) ** float(arg))
        if name == "extreme":
            return np.exp(-1.0 / np.abs(t))
        if name == "hsx":
            return np.exp(-np.exp(1.0 / np.abs(t)))
        if name == "lens":
            s = _lens_s(float(arg), t)
            # 1 - |lambda|^2 = 4 Re s / |1 + s|^2
            one_minus_sq = 4.0 * s.real / np.abs(1.0 + s) ** 2
            return one_minus_sq / (1.0 + np.sqrt(1.0 - one_minus_sq))
    raise ValueError(f"no closed form for {spec!r}")


def _gauss_legendre(f, panels: np.ndarray, order: int = 20) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in zip(panels[:-1], panels[1:]):
        total += 0.5 * (b - a) * float(np.sum(w * f(0.5 * (b - a) * x + 0.5 * (b + a))))
    return total


def log_modulus_integral(spec: str) -> float:
    """Integral of log|phi*| over the circle (normalized measure).

    By Jensen's formula this is log|phi(0)| for an outer symbol and
    log|phi'(0)| for the lens maps, whose only zero is a simple one at 0
    with lambda'(0) = theta.  The two outer symbols without a closed form
    are integrated by Gauss-Legendre on panels graded toward t = 0.
    """
    name, _, arg = spec.partition(":")
    if name == "half":
        return -log(2.0)
    if name == "lens":
        return log(float(arg))
    if name == "betaexp":
        return -fourier_abs_sin_power(float(arg), 1)[0]
    panels = np.concatenate([[0.0], np.pi * 2.0 ** -np.arange(40.0)[::-1]])
    return 2.0 * _gauss_legendre(
        lambda t: np.log1p(-co_modulus(spec, t)), panels) / (2.0 * np.pi)


def fourier_abs_sin_power(beta: float, count: int) -> np.ndarray:
    """Fourier coefficients a_k, k < count, of |sin(t/2)|^beta.

    a_k = (-1)^k Gamma(beta+1) / (2^beta Gamma(1+beta/2+k) Gamma(1+beta/2-k)),
    generated by the ratio a_{k+1}/a_k = (k - beta/2)/(k + 1 + beta/2).
    """
    a0 = gamma(beta + 1.0) / (2.0**beta * gamma(1.0 + beta / 2.0) ** 2)
    k = np.arange(count - 1, dtype=float)
    return a0 * np.concatenate([[1.0], np.cumprod((k - beta / 2.0)
                                                  / (k + 1.0 + beta / 2.0))])


def beta_exp_on_circle(beta: float, r: float, theta0: float, m: int) -> np.ndarray:
    """exp(-U) at z_j = r e^{i(theta0 + 2 pi j/m)}, U the Herglotz map of
    |sin(t/2)|^beta: U(z) = a_0 + 2 sum_k a_k z^k.

    The power series is summed until r^K < e^{-60}; terms are folded mod m
    so one length-m FFT evaluates all m points.
    """
    count = m * int(np.ceil(60.0 / (1.0 - r) / m))
    k = np.arange(count)
    terms = 2.0 * fourier_abs_sin_power(beta, count) * r**k * np.exp(1j * k * theta0)
    terms[0] /= 2.0
    return np.exp(-m * np.fft.ifft(terms.reshape(-1, m).sum(axis=0)))


def half_entries(rows: int, cols: int) -> np.ndarray:
    """Matrix of f -> f((1+z)/2): entry (m, n) = C(n, m)/2^n."""
    out = np.zeros((rows + 1, cols + 1))
    for n in range(cols + 1):
        for m in range(min(n, rows) + 1):
            out[m, n] = comb(n, m) / 2**n
    return out


def comb_central(n: int) -> float:
    """||((1+z)/2)^n||^2 in H^2: sum_m C(n, m)^2 / 4^n = C(2n, n) / 4^n."""
    return comb(2 * n, n) / 4**n


def exp_shift_entries(rows: int, cols: int) -> np.ndarray:
    """Matrix of f -> f(exp((z-1)/2)), the symbol betaexp:2.

    (phi)^n = e^{-n/2} exp(n z/2), so entry (m, n) = e^{-n/2} (n/2)^m / m!.
    """
    n = np.arange(cols + 1, dtype=float)[None, :]
    m = np.arange(rows + 1)[:, None]
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, rows + 1)))])
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = -n / 2.0 + m * np.log(n / 2.0) - log_fact[:, None]
    out = np.exp(logs)
    out[0, 0] = 1.0
    return np.where(np.isfinite(out), out, 0.0)


def luecking_p2_levels(locations: np.ndarray, masses: np.ndarray,
                       n_max: int) -> np.ndarray:
    """Level sums of the p = 2 box count: 2^n times the mass of the corona
    2^{-n-1} < 1 - |z| <= 2^{-n}; with p = 2 the box split drops out.

    The lower radius edge is closed up to input rounding: an atom placed at
    |z| = 1/2 may arrive as 1/2 - ulp and still belongs to corona 1, so the
    depth is shrunk by a few ulp before it is compared.
    """
    depth = (1.0 - np.abs(locations)) * (1.0 - 4e-16)
    out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        sel = (depth > 2.0 ** (-n - 1)) & (depth <= 2.0**-n)
        out[n] = 2.0**n * float(masses[sel].sum())
    return out
