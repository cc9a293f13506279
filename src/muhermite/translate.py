"""Generalized translation: series on polynomials, two integral forms, spectral form.

The translation operator is e(y D; mu) with D the Dunkl derivative: a
terminating series on polynomials, and for mu > 0 an integral average
over a two-point kernel.  Three realizations are kept separate and
cross-checked:

  * translate_poly   -- sum_j (y^j / gamma_mu(j)) D^j p, exact on polynomials,
  * translate_alpha  -- the average against the probability measure
                        alpha_mu on (-1, 1), evaluated at the displaced
                        radii +-omega(t) = +-sqrt(x^2 + 2xyt + y^2),
  * translate_xi     -- the density form: an integral over the set
                        Xi(x,y) of xi that make a triangle with |x|, |y|,
                        with density (2 Delta / |xy|)^(2 mu) / B(1/2, mu)
                        (Delta = Heron area) and kernel sgn(xy xi)/(x+y-xi).

The xi form evaluates kernel, density, and Jacobian factor by factor
from the geometry; only the node parameterization xi = +-omega(t) is
shared with the alpha form, so agreement between the two is a genuine
cross-check, including the endpoint behavior (x+y-xi)^(mu-1).

Translation does not preserve positivity: 1 +- (x+y)/omega takes
negative values.  The suite exhibits a nonnegative profile with a
negative translate; see the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import _as_grid, as_mu, beta_function, gamma_mu, gamma_mu_exact
from .efun import c_s_mu, e_mu
from .hermite import dunkl_apply
from .poly import DensePoly
from .quadrature import gauss_alpha_mu, jacobi_rule
from .transform import _momentum_svd

__all__ = [
    "heron_psi",
    "heron_delta",
    "xi_support",
    "translate_poly",
    "translate_alpha",
    "translate_xi",
    "translate_gaussian_closed",
    "translate_odd_gaussian_closed",
    "translate_spectral_matrix",
]


def heron_psi(x: float, y: float, xi: float) -> float:
    """((x+y)^2 - xi^2)(xi^2 - (x-y)^2) / 16; positive iff |x|,|y|,|xi| form a triangle."""
    return ((x + y) ** 2 - xi * xi) * (xi * xi - (x - y) ** 2) / 16.0


def heron_delta(x: float, y: float, xi: float) -> float:
    """Area of the triangle with side lengths |x|, |y|, |xi|; 0 if none exists."""
    psi = heron_psi(x, y, xi)
    return math.sqrt(psi) if psi > 0.0 else 0.0


def xi_support(x: float, y: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two open intervals {xi : heron_psi(x,y,xi) > 0}, as ((lo,hi), (lo,hi))."""
    inner = abs(abs(x) - abs(y))
    outer = abs(x) + abs(y)
    return ((-outer, -inner), (inner, outer))


def translate_poly(mu, p: DensePoly, y) -> DensePoly:
    """Translation of a polynomial: the terminating series sum_j (y^j/gamma(j)) D^j p.

    Field-generic: with Fraction coefficients, a Fraction (or int) shift,
    and an exact mu the result is exact.
    """
    param = as_mu(mu)
    exact = (
        param.exact is not None
        and isinstance(y, (int, Fraction))
        and p.exact
    )
    out = p
    d = p
    ypow = y
    for j in range(1, p.degree + 1):
        d = dunkl_apply(param, d)
        if d.is_zero():
            break
        gj = gamma_mu_exact(param.exact, j) if exact else gamma_mu(param.require_numeric(), j)
        out = out + d.scale(ypow / gj)
        ypow = ypow * y
    return out


def _omega(x: float, y: float, t: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + y * y + 2.0 * x * y * t)


def translate_alpha(mu, phi, x: float, y: float, *, quad_n: int = 80):
    """Translation of a bounded function by averaging over alpha_mu (mu > 0):

        1/2 int (1 + (x+y)/omega(t)) phi(omega(t)) dalpha(t)
      + 1/2 int (1 - (x+y)/omega(t)) phi(-omega(t)) dalpha(t).
    """
    value = as_mu(mu).require_positive()
    rule = gauss_alpha_mu(value, quad_n)
    om = _omega(x, y, rule.nodes)
    s = x + y
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(om > 0.0, s / np.where(om > 0.0, om, 1.0), 0.0)
    plus = np.asarray(phi(om))
    minus = np.asarray(phi(-om))
    half = 0.5 * (rule.weights * ((1.0 + ratio) * plus + (1.0 - ratio) * minus)).sum()
    return complex(half) if np.iscomplexobj(plus) else float(half)


def translate_xi(mu, phi, x: float, y: float, *, quad_n: int = 80):
    """Translation via the Heron-density integral over Xi(x,y) (mu > 0, xy != 0):

        int_Xi sgn(xy xi)/(x+y-xi) phi(xi) (2 Delta/|xy|)^(2mu) / B(1/2,mu) dxi.

    Both branches xi = +-omega(t) are integrated with a Gauss-Jacobi rule
    in t; kernel, density, Jacobian, and the rule's weight compensation
    are evaluated as separate factors.  Tracking each branch's traversal
    direction against the set's ascending orientation, the Jacobian
    factor is |xy|/omega for every branch and either sign of xy.
    """
    value = as_mu(mu).require_positive()
    if x == 0.0 or y == 0.0:
        raise ValueError("the density form needs x != 0 and y != 0; use translate_alpha")
    rule = jacobi_rule(value - 1.0, value, quad_n)
    t = rule.nodes
    om = _omega(x, y, t)
    # Converts sums against the rule's (1-t)^(mu-1) (1+t)^mu weight into
    # plain dt integration of the assembled integrand.
    comp = (1.0 - t) ** (1.0 - value) * (1.0 + t) ** (-value)
    bnorm = beta_function(0.5, value)
    total = 0.0
    is_complex = False
    for sign in (1.0, -1.0):
        xi = sign * om
        psi = np.maximum(heron_psi(x, y, xi), 0.0)
        density = (2.0 * np.sqrt(psi) / abs(x * y)) ** (2.0 * value)
        kernel = np.sign(x * y) * sign / (x + y - xi)
        jac = abs(x * y) / om
        vals = np.asarray(phi(xi))
        is_complex = is_complex or np.iscomplexobj(vals)
        total = total + (rule.weights * comp * kernel * density * jac * vals).sum()
    total = total / bnorm
    return complex(total) if is_complex else float(total)


def translate_gaussian_closed(mu, lam: float, x, y: float):
    """Closed form of the translate of e^(-lam xi^2):

        e^(-lam (x^2 + y^2)) e(-2 lam x y; mu).

    x: scalar or array of any shape.
    """
    value = as_mu(mu).require_numeric()
    if not lam > 0:
        raise ValueError("the Gaussian rate lam must be positive")
    xa, shaped = _as_grid(x)
    return shaped(np.exp(-lam * (xa**2 + y * y)) * e_mu(value, -2.0 * lam * xa * y))


def translate_odd_gaussian_closed(mu, lam: float, x, y: float):
    """Closed form of the translate of xi e^(-lam xi^2):

        (x + y) e^(-lam (x^2 + y^2)) e(-2 lam x y; mu).

    x: scalar or array of any shape.
    """
    xa, shaped = _as_grid(x)
    return shaped((xa + y) * translate_gaussian_closed(mu, lam, xa, y))


def translate_spectral_matrix(mu, y: float, size: int) -> np.ndarray:
    """e(i y P; mu) on the truncated eigenfunction basis (complex dtype).

    With P's even-row block -i U diag(s) V^T, its blocks are U c(y s) U^T,
    V c(y s) V^T, U s(y s) V^T and minus that transposed.  A contraction for
    mu >= 0; ValueError once |y| max(s) > 1e4 for mu != 0 (see c_s_mu).
    Truncation corrupts edge columns: use on expansions that decay well
    inside the block.
    """
    value = as_mu(mu).require_numeric()
    u, s, v = _momentum_svd(value, size)
    c, sn = c_s_mu(value, y * s)
    k = len(v)
    out = np.zeros((size, size), dtype=complex)
    out[0::2, 0::2] = (u * c) @ u.T
    out[1::2, 1::2] = (v * c[:k]) @ v.T
    out[0::2, 1::2] = (u[:, :k] * sn[:k]) @ v.T
    out[1::2, 0::2] = -out[0::2, 1::2].T
    return out
