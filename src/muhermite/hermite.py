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

All constructors here are field-generic, and the field follows the
inputs (``core._exact``): a rational mu (an int, a numpy integer or a
Fraction), and for heat_poly a rational t too, gives Fraction
coefficients, and a float anywhere gives float64.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .core import _as_grid, _count, _exact, _fraction, _mu, _rational, gamma_exact_table, gamma_step, gamma_table, mu_binomial
from .poly import BivariatePoly, DensePoly

__all__ = [
    "hermite_coeffs",
    "hermite_eval",
    "dunkl_apply",
    "dunkl_definition",
    "inversion_weights",
    "binomial_poly",
    "heat_poly",
]


def _factorials(mu, n: int, exact: bool, what: str) -> tuple:
    """n as an int, 0!, ..., n! and gamma_mu(0), ..., gamma_mu(n) as ints and Fractions (exact) or floats.

    ``what`` names the degree n in the error for a bad n.
    """
    n = _count(n, f"{what} degree")
    fact = [1 if exact else 1.0]
    for k in range(1, n + 1):
        fact.append(fact[-1] * k)
    if exact:
        return n, fact, gamma_exact_table(mu, n)
    return n, fact, gamma_table(mu, n).values


def _finite_poly(coeffs: list, exact: bool, what: str) -> DensePoly:
    if not exact and not all(math.isfinite(c) for c in coeffs):
        raise OverflowError(f"{what} overflows float64; pass mu as a Fraction")
    return DensePoly(coeffs)


def hermite_coeffs(mu, n: int) -> DensePoly:
    """Coefficient vector of H_n(x; mu) from the explicit sum; exact for a rational mu.

    The float path raises OverflowError from n = 151 on.
    """
    exact = _exact(mu)
    n, fact, gam = _factorials(mu, n, exact, "polynomial")
    two = 2 if exact else 2.0
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
    Raises OverflowError where a value leaves the float range.
    """
    n = _count(n, "polynomial degree")
    value = _mu(mu)
    x, shaped = _as_grid(x)
    two_x = 2.0 * x
    with np.errstate(over="ignore", invalid="ignore"):
        for h in _hermite_steps(value, n, lambda v: two_x * v, np.ones_like(x)):
            pass
    if not np.isfinite(h).all():
        raise OverflowError(f"H_{n}(x; mu) overflows float64 on this grid")
    return shaped(h)


def _hermite_steps(value: float, n: int, times_two_x, h):
    """H_0 h, ..., H_n h by hermite_eval's recursion, the package's one copy of it;
    times_two_x(v) gives 2 x v, for x a grid or a matrix acting on vectors."""
    h_prev = h
    yield h_prev
    if n == 0:
        return
    h_cur = times_two_x(h_prev) / gamma_step(value, 1)
    yield h_cur
    for k in range(1, n):
        h_next = (k + 1) / gamma_step(value, k + 1) * (times_two_x(h_cur) - 2.0 * k * h_prev)
        h_prev, h_cur = h_cur, h_next
        yield h_cur


def _mu_like(mu, p: DensePoly):
    """mu in the field core._exact gives mu and p: a checked Fraction when mu is rational and p
    exact (its coefficients rational, ints included), else a Python float."""
    return _rational(mu) if p.exact and _exact(mu) else _mu(mu)


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
    return DensePoly(out)


def dunkl_definition(mu, p: DensePoly) -> DensePoly:
    """Same operator from its definition: p'(x) + mu (p(x) - p(-x)) / x.

    The reflection difference kills even monomials, so its division by x is
    exact on polynomials.  Built from the derivative, the reflection and the
    division by x, never from the monomial rule: kept as an independent
    route for the exact verifier; agrees with dunkl_apply identically.
    x^(k-1) gets (b k c_k + a (c_k - r_k)) / b, r_k p(-x)'s coefficient: with
    mu = a / b and p exact in integers over b times p's denominator, else on
    p's floats with a = mu, b = 1; at mu = 0 it is p'.
    """
    if p.is_zero():
        return p
    m = _mu_like(mu, p)
    exact = type(m) is Fraction
    a, b = (m.numerator, m.denominator) if exact else (m, 1)
    if not exact:
        p = DensePoly(p._values())
        if not all(cmath.isfinite(c) for c in p.nums):
            # inf - inf in the reflection difference would be a silent nan
            raise ValueError("dunkl_definition needs finite coefficients")
    if not a:
        return p.derivative()
    nums = p.nums
    out = [k * b * c + a * (c - r) if c else c for k, c, r in zip(range(1, len(nums)), nums[1:], p.reflect().nums[1:])]
    return DensePoly._result(out, b * p.den, exact)


def inversion_weights(n: int) -> list:
    """Weights c_k with (2x)^n / gamma_mu(n) = sum_k c_k H_{n-2k}(x; mu), as Fractions.

    c_k = 1 / (k! (n-2k)!), independent of mu.
    """
    n = _count(n, "monomial degree")
    return [Fraction(1, math.factorial(k) * math.factorial(n - 2 * k)) for k in range(n // 2 + 1)]


def binomial_poly(mu, n: int) -> BivariatePoly:
    """Deformed binomial polynomial p_n(x, y) = sum_j binom_mu(n, j) x^j y^(n-j); exact for a rational mu.

    p_n(x, y) is what the generalized translation does to x^n.
    """
    n = _count(n, "polynomial degree")
    if _exact(mu):
        # gam = u / v: gam[n] / (gam[j] gam[n - j]) = u_n v_j v_{n-j} / (v_n u_j u_{n-j}), over their lcm
        gam = gamma_exact_table(mu, n)[: n + 1]
        u, v = [g.numerator for g in gam], [g.denominator for g in gam]
        dens = [v[n] * u[j] * u[n - j] for j in range(n + 1)]
        den = math.lcm(*dens)
        nums = {(j, n - j): u[n] * v[j] * v[n - j] * (den // d) for j, d in enumerate(dens)}
        return BivariatePoly._result(nums, den, True)
    return BivariatePoly(((j, n - j), mu_binomial(mu, n, j)) for j in range(n + 1))


def heat_poly(mu, n: int, t) -> DensePoly:
    """Heat-flow image of x^n after time t under d/dt = D^2, exact for a rational mu and t:

    gamma_mu(n) sum_k x^(n-2k) t^k / (k! gamma_mu(n-2k)).

    At mu = 0 these are the classical heat polynomials (x^2 + 2t, ...).
    The float path raises OverflowError once gamma_mu(n) does (n ~ 170).
    """
    exact = _exact(mu, t)
    if not exact and not math.isfinite(t):
        raise ValueError(f"heat_poly needs a finite time t, got {t}")
    n, fact, gam = _factorials(mu, n, exact, "monomial")
    t = _fraction(t) if exact else float(t)
    coeffs = [0 * gam[0]] * (n + 1)
    tk = t**0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n // 2 + 1):
            m = n - 2 * k
            coeffs[m] = gam[n] * tk / (fact[k] * gam[m])
            tk = tk * t
    return _finite_poly(coeffs, exact, f"heat_poly of degree {n}")
