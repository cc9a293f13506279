"""Deformed Hermite polynomials and the reflection-corrected derivative.

The family H_n(x; mu) is orthogonal for the weight |x|^(2 mu) e^(-x^2) and
is given explicitly by

    H_n(x; mu) = n! sum_{k <= n/2} (-1)^k (2 x)^(n-2k) / (k! gamma_mu(n-2k)).

It is x^n's heat flow (heat_poly) run back a quarter unit and rescaled,
heat_poly(mu, n, -1/4) = gamma_mu(n) / (2^n n!) H_n(x; mu), so one even sum
builds both, exactly as integers over one lcm (as binomial_poly does).

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
import numbers
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


def _even_sum(mu, n: int, t, hermite: bool) -> DensePoly:
    """lead sum_{k <= n/2} t^k x^(n-2k) / (k! gamma_mu(n-2k)): H_n with lead = n! 2^n and t = -1/4
    (hermite), else heat_poly with lead = gamma_mu(n).  Term k is lead p_k / q_k, p_k = a^k v_m and
    q_k = b^k k! u_m (m = n - 2k), from gamma_mu(m) = u_m / v_m and t = a / b.  Exact, the integers
    lead p_k go over the lcm of the q_k and are reduced once; in floats (v_m = b = 1) term k is
    lead t^k / (k! gamma_mu(m)) in that order, with k!, t^k and n! 2^n running products (the last
    a product of 2k, which reaches inf where 2.0 ** n would raise)."""
    exact = _exact(mu, t)
    n = _count(n, "polynomial degree" if hermite else "monomial degree")
    one = 1 if exact else 1.0
    fact = [one]
    for k in range(1, n // 2 + 1):
        fact.append(fact[-1] * k)
    # gamma_mu(n), gamma_mu(n - 2), ..., the denominators of terms 0, 1, ...
    if exact:
        gam = [(g.numerator, g.denominator) for g in gamma_exact_table(mu, n)[n::-2]]
        a, b = _fraction(t).as_integer_ratio()
    else:
        gam = [(g, 1.0) for g in gamma_table(mu, n).values[n::-2]]
        a, b = float(t), 1.0
    lead, lead_den = (math.prod(range(2, 2 * n + 1, 2), start=one), 1) if hermite else gam[0]
    terms = []
    ak = bk = one
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (u, v) in enumerate(gam):
            terms.append((lead * ak * v, bk * fact[k] * u))
            ak, bk = ak * a, bk * b
        coeffs = [0 * lead] * (n + 1)
        if exact:
            den = math.lcm(*(q for _, q in terms))
            coeffs[n::-2] = [p * (den // q) for p, q in terms]
            return DensePoly._result(coeffs, lead_den * den, True)
        coeffs[n::-2] = [p / q for p, q in terms]
    # a denominator past the float range would read its term as 0
    if not all(math.isfinite(c) for c in coeffs + [q for _, q in terms]):
        what = f"H_{n}" if hermite else f"heat_poly of degree {n}"
        raise OverflowError(f"{what} overflows float64; pass mu as a Fraction")
    return DensePoly._result(coeffs, 1, False)


def hermite_coeffs(mu, n: int) -> DensePoly:
    """Coefficient vector of H_n(x; mu) from the explicit sum; exact for a rational mu.

    The float path raises OverflowError from n = 151 on, or earlier where
    gamma_mu(n) overflows (n = 148 at mu = 100).
    """
    return _even_sum(mu, n, Fraction(-1, 4), True)


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
    if not _exact(mu, t):
        if not isinstance(t, numbers.Real):
            raise TypeError(f"heat_poly's time t must be a real number, got {t!r}")
        if not math.isfinite(t):
            raise ValueError(f"heat_poly needs a finite time t, got {t}")
    return _even_sum(mu, n, t, False)
