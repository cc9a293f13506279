"""Deformed Hermite polynomials and the reflection-corrected derivative.

The family H_n(x; mu) is orthogonal for the weight |x|^(2 mu) e^(-x^2) and
is given explicitly by

    H_n(x; mu) = n! sum_{k <= n/2} (-1)^k (2 x)^(n-2k) / (k! gamma_mu(n-2k)).

The derivative that makes the family behave classically is the
reflection-corrected operator

    (D p)(x) = p'(x) + mu (p(x) - p(-x)) / x,

which on monomials acts as x^n -> (gamma_mu(n)/gamma_mu(n-1)) x^(n-1).
Two implementations of D are kept on purpose: the monomial rule (fast
path) and the derivative-plus-reflection definition (independent route
used by the exact verifier).

All constructors here are field-generic: with a rational mu and
``exact=True`` they emit Fraction coefficients, otherwise float64.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .core import _as_grid, as_mu, gamma_exact_table, gamma_step, gamma_table, mu_binomial
from .poly import BivariatePoly, DensePoly

__all__ = [
    "hermite_coeffs",
    "hermite_eval",
    "dunkl_apply",
    "dunkl_definition",
    "raise_apply",
    "inversion_weights",
    "inversion_expand",
    "binomial_poly",
    "heat_poly",
]


def factorials(n: int, exact: bool) -> list:
    """0!, 1!, ..., n! as ints (exact) or floats."""
    out = [1 if exact else 1.0]
    for k in range(1, n + 1):
        out.append(out[-1] * k)
    return out


def _finite_poly(coeffs: list, exact: bool, what: str) -> DensePoly:
    if not exact and not all(math.isfinite(c) for c in coeffs):
        raise OverflowError(f"{what} overflows float64; use exact=True with a rational mu")
    return DensePoly.from_coeffs(coeffs)


def hermite_coeffs(mu, n: int, *, exact: bool = False) -> DensePoly:
    """Coefficient vector of H_n(x; mu) from the explicit sum.

    The float path raises OverflowError from n = 151 on.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    param = as_mu(mu)
    fact = factorials(n, exact)
    if exact:
        gam = gamma_exact_table(param, n)
        two = 2
    else:
        param.require_numeric()
        gam = gamma_table(param.value, n).values
        two = 2.0
    coeffs = [0 * two] * (n + 1)
    sign = 1
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n // 2 + 1):
            m = n - 2 * k
            coeffs[m] = sign * fact[n] * two**m / (fact[k] * gam[m])
            sign = -sign
    return _finite_poly(coeffs, exact, f"H_{n}")


def hermite_eval(mu, n: int, x):
    """Evaluate H_n(x; mu) by the three-term recursion; x: scalar or array of any shape.

    H_{n+1} = (n+1)/(n+1+2 mu theta(n+1)) * (2 x H_n - 2 n H_{n-1}).
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    value = as_mu(mu).require_numeric()
    x, shaped = _as_grid(x)
    h_prev = np.ones_like(x)
    if n == 0:
        return shaped(h_prev)
    h_cur = 2.0 * x / gamma_step(value, 1)
    for k in range(1, n):
        h_next = (k + 1) / gamma_step(value, k + 1) * (2.0 * x * h_cur - 2.0 * k * h_prev)
        h_prev, h_cur = h_cur, h_next
    return shaped(h_cur)


def _mu_like(mu, p: DensePoly):
    """mu in the same field as p's coefficients."""
    param = as_mu(mu)
    if p.exact:
        return param.require_exact()
    return param.require_numeric()


def dunkl_apply(mu, p: DensePoly) -> DensePoly:
    """Reflection-corrected derivative via the monomial rule.

    x^k -> (k + 2 mu theta(k)) x^(k-1), extended linearly.
    """
    if p.is_zero():
        return p
    m = _mu_like(mu, p)
    out = [0] * max(p.degree, 0)
    for k, c in enumerate(p.coeffs):
        if k == 0 or c == 0:
            continue
        out[k - 1] = c * gamma_step(m, k)
    return DensePoly.from_coeffs(out)


def dunkl_definition(mu, p: DensePoly) -> DensePoly:
    """Same operator from its definition: p'(x) + mu (p(x) - p(-x)) / x.

    The reflection difference kills even monomials, so its division by x is
    exact on polynomials.  Built from the derivative, the reflection and the
    division by x, never from the monomial rule: kept as an independent
    route for the exact verifier; agrees with dunkl_apply identically.
    """
    if p.is_zero():
        return p
    m = _mu_like(mu, p)
    if not p.exact and not all(cmath.isfinite(c) for c in p.coeffs):
        # inf - inf in the reflection difference would be a silent nan
        raise ValueError("dunkl_definition needs finite coefficients")
    return p.derivative() + (p - p.reflect()).div_x().scale(m)


def raise_apply(mu, p: DensePoly) -> DensePoly:
    """Raising operator 2 x p - (D p); sends H_n to a positive multiple of H_{n+1}."""
    return p.shift_up(1).scale(2) - dunkl_apply(mu, p)


def inversion_weights(n: int, *, exact: bool = False) -> list:
    """Weights c_k with (2x)^n / gamma_mu(n) = sum_k c_k H_{n-2k}(x; mu).

    c_k = 1 / (k! (n-2k)!), independent of mu.
    """
    if n < 0:
        raise ValueError("monomial degree must be nonnegative")
    fact = factorials(n, exact)
    one = Fraction(1) if exact else 1.0
    return [one / (fact[k] * fact[n - 2 * k]) for k in range(n // 2 + 1)]


def inversion_expand(mu, n: int, *, exact: bool = False) -> DensePoly:
    """Reassemble (2x)^n / gamma_mu(n) from the Hermite family."""
    weights = inversion_weights(n, exact=exact)
    acc = DensePoly.zero()
    for k, w in enumerate(weights):
        acc = acc + hermite_coeffs(mu, n - 2 * k, exact=exact).scale(w)
    return acc


def binomial_poly(mu, n: int, *, exact: bool = False) -> BivariatePoly:
    """Deformed binomial polynomial p_n(x, y) = sum_j binom_mu(n, j) x^j y^(n-j).

    p_n(x, y) is what the generalized translation does to x^n.
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    param = as_mu(mu)
    if exact:
        gam = gamma_exact_table(param, n)
        return BivariatePoly.from_dict({(j, n - j): gam[n] / (gam[j] * gam[n - j]) for j in range(n + 1)})
    value = param.require_numeric()
    return BivariatePoly.from_dict({(j, n - j): mu_binomial(value, n, j) for j in range(n + 1)})


def heat_poly(mu, n: int, t, *, exact: bool = False) -> DensePoly:
    """Heat-flow image of x^n after time t under d/dt = D^2:

    gamma_mu(n) sum_k x^(n-2k) t^k / (k! gamma_mu(n-2k)).

    At mu = 0 these are the classical heat polynomials (x^2 + 2t, ...).
    The float path raises OverflowError once gamma_mu(n) does (n ~ 170).
    """
    if n < 0:
        raise ValueError("monomial degree must be nonnegative")
    param = as_mu(mu)
    fact = factorials(n, exact)
    if exact:
        gam = gamma_exact_table(param, n)
        t = Fraction(t)
    else:
        param.require_numeric()
        gam = gamma_table(param.value, n).values
        t = float(t)
    coeffs = [0 * gam[0]] * (n + 1)
    tk = t**0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n // 2 + 1):
            m = n - 2 * k
            coeffs[m] = gam[n] * tk / (fact[k] * gam[m])
            tk = tk * t
    return _finite_poly(coeffs, exact, f"heat_poly of degree {n}")
