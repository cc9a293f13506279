"""The deformed exponential and the closed-form kernels built from it.

The deformed exponential replaces n! by the generalized factorial:

    e(z; mu) = sum_m z^m / gamma_mu(m),

an entire function equal to exp at mu = 0.  Its restriction to the
imaginary axis splits into even and odd parts c(x; mu) - i s(x; mu)
= e(-ix; mu), the deformed cosine/sine pair that drives the Fourier
theory.  Also here: the product kernel of the Mehler type summation and
the heat kernel, both of which are elementary expressions in e(.; mu).

Series evaluation is by term recursion term_{m+1} = term_m * z / (m + 1 +
2 mu theta(m+1)).  Two numerical regimes need care:

* real z << 0: the alternating series cancels catastrophically, so for
  z < -30 the even/odd split is summed at |z| (all terms positive) and
  combined with a single subtraction, which pins the absolute error near
  eps * e(|z|; mu);
* imaginary axis, |x| > 30: the series is hopeless in float64, so for
  mu > 0 the values come from the averaging-measure integral
  e(-ix; mu) = integral of exp(-ixt) over the (-1,1) measure with
  density proportional to (1-t)^(mu-1) (1+t)^mu, evaluated by the
  matching Gauss rule (mu = 0 is exactly cos/sin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_mu, gamma_half, gamma_step

__all__ = [
    "EvalOptions",
    "ConvergenceError",
    "e_mu",
    "c_s_mu",
    "mehler_rhs",
    "heat_kernel",
]


@dataclass(frozen=True)
class EvalOptions:
    """Series evaluation controls."""

    rel_tol: float = 1e-14
    max_terms: int = 500


DEFAULT_OPTIONS = EvalOptions()


class ConvergenceError(RuntimeError):
    """Raised when the series cannot reach the requested tolerance."""


def _series_scalar(mu: float, z, opts: EvalOptions):
    term = 1.0 + 0.0 * z  # matches the type of z (float or complex)
    acc = term
    small_streak = 0
    for m in range(1, opts.max_terms + 1):
        term = term * z / gamma_step(mu, m)
        acc += term
        if abs(term) <= opts.rel_tol * (abs(acc) + 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return acc
        else:
            small_streak = 0
    raise ConvergenceError(
        f"series for the deformed exponential did not settle in {opts.max_terms} terms "
        f"(|z| = {abs(z):.3g}); the argument is too large for direct summation"
    )


def _series_array(mu: float, z: np.ndarray, opts: EvalOptions) -> np.ndarray:
    term = np.ones_like(z)
    acc = term.copy()
    streak = 0
    for m in range(1, opts.max_terms + 1):
        term = term * z / gamma_step(mu, m)
        acc += term
        if np.all(np.abs(term) <= opts.rel_tol * (np.abs(acc) + 1e-300)):
            streak += 1
            if streak >= 2:
                return acc
        else:
            streak = 0
    raise ConvergenceError(
        f"series for the deformed exponential did not settle in {opts.max_terms} terms "
        f"(max |z| = {np.max(np.abs(z)):.3g})"
    )


def _parity_split(mu: float, x: float, opts: EvalOptions):
    """Even and odd part sums at x >= 0; every term is positive."""
    even = odd = 0.0
    term = 1.0
    m = 0
    while m < opts.max_terms:
        if m % 2 == 0:
            even += term
        else:
            odd += term
        nxt = term * x / gamma_step(mu, m + 1)
        if nxt <= opts.rel_tol * (even + odd) and m > x:
            return even, odd
        term = nxt
        m += 1
    raise ConvergenceError(f"parity-split series did not settle (x = {x:.3g})")


def e_mu(mu, z, options: EvalOptions | None = None):
    """Deformed exponential e(z; mu); z may be real, complex, or an ndarray.

    Scalar real arguments below -30 go through the even/odd split; the
    absolute error there is of order eps * e(|z|; mu), which is the best a
    fixed-precision summation of this sign pattern can do.
    """
    value = as_mu(mu).require_numeric()
    opts = options or DEFAULT_OPTIONS
    if isinstance(z, np.ndarray):
        dtype = complex if np.iscomplexobj(z) else float
        return _series_array(value, z.astype(dtype), opts)
    if isinstance(z, complex):
        return complex(_series_scalar(value, z, opts))
    z = float(z)
    if z < -30.0:
        even, odd = _parity_split(value, -z, opts)
        return even - odd
    return float(_series_scalar(value, z, opts))


def c_s_mu(mu, x: float, options: EvalOptions | None = None, quad_n: int = 192):
    """Deformed cosine/sine pair (c, s) with c - i s = e(-ix; mu), x real.

    The oscillatory series loses absolute accuracy like eps * e^|x|, so it
    is only used while that stays near machine precision (|x| <= 12) when
    a stable route exists: mu = 0 is exactly (cos, sin), mu > 0 goes
    through the averaging-measure integral.  For -1/2 < mu < 0 there is
    no such route; the series is accepted up to |x| = 30 (absolute error
    up to ~1e-4 at the far end) and refused beyond.
    """
    value = as_mu(mu).require_numeric()
    opts = options or DEFAULT_OPTIONS
    x = float(x)
    limit = 30.0 if value < 0.0 else 12.0
    if abs(x) <= limit:
        v = _series_scalar(value, -1j * x, opts)
        return v.real, -v.imag
    if value == 0.0:
        return math.cos(x), math.sin(x)
    if value > 0.0:
        from .quadrature import gauss_alpha_mu

        rule = gauss_alpha_mu(value, quad_n)
        v = np.sum(rule.weights * np.exp(-1j * x * rule.nodes))
        return float(v.real), float(-v.imag)
    raise ConvergenceError(
        "no accurate large-argument route for -1/2 < mu < 0; keep |x| <= 30"
    )


def mehler_rhs(mu, x: float, y: float, z):
    """Closed form of the bilinear eigenfunction sum sum_n phi_n(x) phi_n(y) z^n:

        (1 - z^2)^(-mu - 1/2) / Gamma(mu + 1/2)
        * exp(-(x^2 + y^2)(1 + z^2) / (2 (1 - z^2)))
        * e(2 x y z / (1 - z^2); mu),

    valid for |z| < 1 (z may be complex).
    """
    value = as_mu(mu).require_numeric()
    if abs(z) >= 1:
        raise ValueError("the bilinear kernel needs |z| < 1")
    one_minus = 1.0 - z * z
    pref = one_minus ** (-value - 0.5) / gamma_half(value)
    gauss = np.exp(-0.5 * (x * x + y * y) * (1.0 + z * z) / one_minus)
    val = pref * gauss * e_mu(value, 2.0 * x * y * z / one_minus)
    return val if isinstance(z, complex) else float(val.real if isinstance(val, complex) else val)


def heat_kernel(mu, x: float, y: float, t: float) -> float:
    """Positive heat kernel for the deformed Laplacian at time t > 0:

        (4 t)^(-mu - 1/2) / Gamma(mu + 1/2)
        * exp(-(x^2 + y^2) / (4 t)) * e(x y / (2 t); mu).

    Reduces at mu = 0 to the classical Gauss-Weierstrass kernel.
    Extremely small t with |x y| large can overflow the e(.; mu) factor
    before the Gaussian tames it; keep x y / (2 t) below ~700.
    """
    value = as_mu(mu).require_numeric()
    if not t > 0:
        raise ValueError("the heat kernel needs t > 0")
    pref = (4.0 * t) ** (-value - 0.5) / gamma_half(value)
    return pref * math.exp(-(x * x + y * y) / (4.0 * t)) * e_mu(value, x * y / (2.0 * t))
