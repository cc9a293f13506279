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

import cmath
from functools import lru_cache

import numpy as np

from .core import MU_CACHE_SIZE, _as_grid, _exact, _fraction, _mu, _rational, _real, gamma_exact_table, gamma_mu
from .efun import c_s_mu, e_mu
from .hermite import dunkl_apply
from .poly import DensePoly, _combination
from .quadrature import _check_size, gauss_alpha_mu
from .transform import _momentum_svd, _spectral_function

__all__ = [
    "heron_psi",
    "translate_poly",
    "translate_alpha",
    "translate_xi",
    "translate_gaussian_closed",
    "translate_odd_gaussian_closed",
    "translate_spectral_matrix",
]


def heron_psi(x, y, xi):
    """((x+y)^2 - xi^2)(xi^2 - (x-y)^2) / 16; positive iff |x|,|y|,|xi| form a triangle.

    Elementwise: floats give a float, arrays (broadcast together) an array.
    It checks nothing; translate_xi checks the points it passes.
    """
    return ((x + y) ** 2 - xi * xi) * (xi * xi - (x - y) ** 2) / 16.0


def translate_poly(mu, p: DensePoly, y) -> DensePoly:
    """Translation of a polynomial: the terminating series sum_j (y^j/gamma(j)) D^j p.

    Field-generic, as core._exact rules: with Fraction coefficients and a
    rational mu and shift the result is exact.  A float or complex y must be finite.
    """
    if not _exact(y) and not cmath.isfinite(y):
        raise ValueError(f"translate_poly needs a finite shift y, got {y}")
    exact = _exact(mu, y) and p.exact
    if exact:
        mu, y = _rational(mu), _fraction(y)
        gam = gamma_exact_table(mu, p.degree)
        terms = [(1, p)]
    else:
        _mu(mu)  # a constant p never reaches the checks of dunkl_apply and gamma_mu
        p = DensePoly(p._values())
    out = p
    d = p
    ypow = y
    for j in range(1, p.degree + 1):
        d = dunkl_apply(mu, d)
        if d.is_zero():
            break
        if exact:
            terms.append((ypow / gam[j], d))
        else:
            out = out + d.scale(ypow / gamma_mu(mu, j))
        ypow = ypow * y
    return _combination(terms) if exact else out


def _omega(x: float, y: float, t: np.ndarray) -> np.ndarray:
    return np.sqrt(x * x + y * y + 2.0 * x * y * t)


def translate_alpha(mu, phi, x: float, y: float, *, quad_n: int = 80):
    """Translation of a bounded function by averaging over alpha_mu (mu > 0):

        1/2 int (1 + (x+y)/omega(t)) phi(omega(t)) dalpha(t)
      + 1/2 int (1 - (x+y)/omega(t)) phi(-omega(t)) dalpha(t).

    Past max(|x|, |y|) = 1e150, where x^2 + y^2 nears the float range, and below 1e-150,
    where it underflows and the result drifts to phi's average at 0, it raises ValueError;
    x = y = 0 gives phi(0).
    """
    x, y = _real(x, "the point x"), _real(y, "the shift y")
    if abs(x) > 1e150 or abs(y) > 1e150:
        raise ValueError(f"translate_alpha needs max(|x|,|y|) <= 1e150, got {x!r}, {y!r}")
    if 0.0 < max(abs(x), abs(y)) < 1e-150:
        raise ValueError(f"translate_alpha needs max(|x|,|y|) >= 1e-150 unless x = y = 0, got {x!r}, {y!r}")
    value = _mu(mu, 0.0)
    rule = gauss_alpha_mu(value, quad_n)
    om = _omega(x, y, rule.nodes)
    s = x + y
    ratio = np.divide(s, om, out=np.zeros_like(om), where=om > 0.0)
    plus = np.asarray(phi(om))
    minus = np.asarray(phi(-om))
    half = 0.5 * (rule.weights * ((1.0 + ratio) * plus + (1.0 - ratio) * minus)).sum()
    return complex(half) if np.iscomplexobj(plus) else float(half)


@lru_cache(maxsize=MU_CACHE_SIZE)
def _xi_plan(value: float, quad_n: int):
    # (1-t)^(1-mu) (1+t)^(-mu) converts sums against the averaging measure into dt
    # integration of the assembled integrand over B(1/2, mu), the measure's mass.
    # Past mu ~ 2.9e3 at 80 nodes (580 at 256) the factor leaves the float range at the
    # outer nodes (inf times an underflowed 0), though its product with the density does not.
    rule = gauss_alpha_mu(value, quad_n)
    t = rule.nodes
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = rule.weights * ((1.0 - t) ** (1.0 - value) * (1.0 + t) ** (-value))
    if not np.all(np.isfinite(weighted)):
        raise OverflowError(
            f"translate_xi's compensated weights at mu = {value:g} are past the float range; translate_alpha serves this mu"
        )
    weighted.setflags(write=False)
    return t, weighted


def translate_xi(mu, phi, x: float, y: float, *, quad_n: int = 80):
    """Translation via the Heron-density integral over Xi(x,y) (mu > 0, xy != 0):

        int_Xi sgn(xy xi)/(x+y-xi) phi(xi) (2 Delta/|xy|)^(2mu) / B(1/2,mu) dxi.

    Both branches xi = +-omega(t) are integrated in t with gauss_alpha_mu, whose unit-mass
    weights carry the 1/B(1/2,mu): their Jacobi mass 2^(2mu) B(mu, mu+1) is B(1/2, mu) by
    Legendre's duplication formula (DLMF 5.5.5).  Kernel, density, Jacobian, and the rule's
    weight compensation are separate factors.  Tracking each branch's traversal direction
    against the set's ascending orientation, the Jacobian factor is |xy|/omega for every
    branch and either sign of xy.

    Density and Jacobian read xi only through xi^2, so the branches share them bit for bit.
    Nodes and compensated weights are built once per checked (mu, quad_n) and
    kept (MU_CACHE_SIZE entries); a warm call returns a cold call's floats.  Where those
    weights leave the float range (mu past about 2.9e3 at 80 nodes) it raises OverflowError.

    Needle triangles cost digits.  At the default 80 nodes the relative error against
    translate_alpha passes 1e-10 near min(|x|,|y|) / max(|x|,|y|) = 1.1e-3 at mu = 0.3 (of
    0.3, 0.5, 2 and 10, the worst); at 256 nodes it is 2.1e-10 already at the ratio 2e-3.
    Below mu = 0.3 the endpoint factor (x+y-xi)^(mu-1) costs digits at every ratio: at the
    ratio 2e-3 the error stays below 1e-9 at mu = 0.1 and 3e-9 at mu = 0.05, and at 1e-2
    below 1e-10 and 5e-10 respectively.  Below the ratio 2e-3, x = 0 or y = 0 included,
    it raises ValueError; translate_alpha serves those points.

    The density reads (xy)^2, which leaves the normal floats outside 1e-145 <= |xy| <= 1e145
    (the result drifts, then reads 0 or nan); there it raises ValueError as well.
    """
    x, y = _real(x, "the point x"), _real(y, "the shift y")
    value = _mu(mu, 0.0)
    if not min(abs(x), abs(y)) >= 2e-3 * max(abs(x), abs(y)) > 0.0:
        raise ValueError(f"translate_xi needs min(|x|,|y|) >= 2e-3 max(|x|,|y|), got {x!r}, {y!r}; use translate_alpha")
    if not 1e-145 <= abs(x * y) <= 1e145:
        raise ValueError(f"translate_xi needs 1e-145 <= |xy| <= 1e145, got {x!r}, {y!r}; use translate_alpha")
    t, weighted = _xi_plan(value, _check_size(quad_n))
    om = _omega(x, y, t)
    psi = np.maximum(heron_psi(x, y, om), 0.0)
    density = (2.0 * np.sqrt(psi) / abs(x * y)) ** (2.0 * value)
    jac = abs(x * y) / om
    total = 0.0
    is_complex = False
    for sign in (1.0, -1.0):
        xi = sign * om
        kernel = np.sign(x * y) * sign / (x + y - xi)
        vals = np.asarray(phi(xi))
        is_complex = is_complex or np.iscomplexobj(vals)
        total = total + (weighted * kernel * density * jac * vals).sum()
    return complex(total) if is_complex else float(total)


def translate_gaussian_closed(mu, lam: float, x, y: float):
    """Closed form of the translate of e^(-lam xi^2):

        e^(-lam (x^2 + y^2)) e(-2 lam x y; mu).

    x: scalar or array of any shape.
    """
    value = _mu(mu)
    lam, y = _real(lam, "the Gaussian rate lam", 0.0, False), _real(y, "the shift y")
    xa, shaped = _as_grid(x)
    return shaped(np.exp(-lam * (xa**2 + y * y)) * e_mu(value, -2.0 * lam * xa * y))


def translate_odd_gaussian_closed(mu, lam: float, x, y: float):
    """Closed form of the translate of xi e^(-lam xi^2):

        (x + y) e^(-lam (x^2 + y^2)) e(-2 lam x y; mu).

    x: scalar or array of any shape.
    """
    xa, shaped = _as_grid(x)
    return shaped(translate_gaussian_closed(mu, lam, xa, y) * (xa + _real(y, "the shift y")))


def translate_spectral_matrix(mu, y: float, size: int) -> np.ndarray:
    """e(i y P; mu) on the truncated eigenfunction basis (complex dtype).

    With P's even-row block -i U diag(s) V^T, its blocks are U c(y s) U^T,
    V c(y s) V^T, U s(y s) V^T and minus that transposed.  A contraction for
    mu >= 0; ValueError once |y| max(s) > 1e4 for mu != 0 (see c_s_mu).
    Truncation corrupts edge columns: use on expansions that decay well
    inside the block.
    """
    value = _mu(mu)
    u, s, v = _momentum_svd(value, size)
    return _spectral_function(u, v, *c_s_mu(value, _real(y, "the shift y") * s))
