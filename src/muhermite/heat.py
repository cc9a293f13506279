"""The deformed heat semigroup: kernel, closed forms, spectral matrix, PDE checks.

Three independent realizations of T(t) = exp(t D^2), with D the Dunkl
derivative, are kept first-class and cross-checked:

  * kernel quadrature     -- integrate the positive kernel against f,
  * Gaussian closed form  -- the semigroup maps the two-parameter family
                             e^(-alpha x^2) e(2 z x; mu) onto itself,
  * spectral              -- exp(-t P^2) as a matrix on the eigenfunction
                             basis, P the momentum matrix, formed from
                             one real SVD of P's even-to-odd block, which
                             diagonalizes P^2 on each parity block.

Time convention trap: the closed-form map is classically stated in a
time variable equal to 4x the semigroup time.  Every public operation
here takes semigroup time t (the t of exp(t D^2)); the substitution
happens internally, once, in heat_gaussian_params.

On polynomials the semigroup is the finite sum exp(t D^2) x^n
(hermite.heat_poly); its t-derivative equals D^2 applied to it, exactly,
which the rational-arithmetic identity suite certifies.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import _array_memo, _as_grid, _finite_exp, _memo_key, _mu, _real, gamma_half
from .efun import _radius, _table, _term_count, e_mu
from .quadrature import _scaled_rule
from .transform import _momentum_svd, _spectral_function

__all__ = [
    "heat_gaussian_params",
    "heat_gaussian",
    "heat_odd_gaussian",
    "heat_apply_kernel",
    "heat_pde_residual",
    "heat_spectral_matrix",
]


def heat_gaussian_params(mu, alpha, z, t: float):
    """Parameters of T(t) applied to e^(-alpha x^2) e(2 z x; mu).

    Returns (pref, alpha', z') with

        u = 1 + 4 alpha t,   pref = u^(-mu-1/2) exp(4 t z^2 / u),
        alpha' = alpha / u,  z' = z / u,

    so the image is pref * e^(-alpha' x^2) e(2 z' x; mu).  alpha and z
    may be complex and must be finite, Re alpha > 0; t is semigroup time,
    finite and >= 0.  OverflowError where pref leaves the float range.
    """
    value = _mu(mu)
    if not (cmath.isfinite(alpha) and alpha.real > 0 and cmath.isfinite(z)):
        raise ValueError(f"alpha must be finite with Re alpha > 0, and z must be finite; got alpha = {alpha}, z = {z}")
    t = _real(t, "semigroup time t", 0.0)
    u = 1.0 + 4.0 * alpha * t  # Re u >= 1
    power = 4.0 * t * z * z / u
    pref = u ** (-value - 0.5) * _finite_exp(power, "the heat prefactor exp(4 t z^2 / u)")
    return pref, alpha / u, z / u


def heat_gaussian(mu, alpha, z, t: float, x):
    """T(t) of e^(-alpha x^2) e(2 z x; mu) at x; x: scalar or array of any shape."""
    value = _mu(mu)
    pref, ap, zp = heat_gaussian_params(value, alpha, z, t)
    xa, shaped = _as_grid(x)
    return shaped(pref * np.exp(-ap * xa * xa) * e_mu(value, 2.0 * zp * xa))


def heat_odd_gaussian(mu, alpha: float, t: float, x):
    """T(t) of the odd Gaussian x e^(-alpha x^2):

        x (1 + 4 alpha t)^(-mu - 3/2) e^(-alpha x^2 / (1 + 4 alpha t)).

    Obtained from heat_gaussian by differentiating in z at z = 0, whose
    alpha and t checks it shares.  x: scalar or array of any shape.
    """
    value = _mu(mu)
    heat_gaussian_params(value, alpha, 0.0, t)
    u = 1.0 + 4.0 * alpha * t
    xa, shaped = _as_grid(x)
    return shaped(xa * u ** (-value - 1.5) * np.exp(-alpha * xa * xa / u))


def _heat_kernel(value: float, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """e(x_i y_j / 2t; mu) for flat x and y, with e_mu's term count and range checks.

    At mu != 0 no product x_i y_j is formed: the m-th term is A[m, i] B[m, j],
    A[m] = x^m / gamma_mu(m) and B[m] = w^m (w = y / 2t), each table one
    cumulative product of its ratio rows, and the matrix is A^T B.  Row m of A
    carries an exact 2^s_m and row m of B 2^-s_m, with s_m from the gamma_mu
    table's log values putting the largest entry of both rows near the square
    root of the term at the radius, (max|x| max|w|)^m / gamma_mu(m); so neither
    table leaves float64 where the terms do not.
    """
    if value == 0.0:
        return e_mu(value, np.outer(x, y) / (2.0 * t))
    w = y / (2.0 * t)
    x_top, y_top, w_top = (float(np.max(np.abs(v), initial=0.0)) for v in (x, y, w))
    # max |x_i y_j| / 2t, as e_mu reads it off np.outer(x, y) / 2t: rounding is monotone
    r = _radius(x_top * y_top / (2.0 * t))
    n = _term_count(value, r)
    if n == 0 or w_top == 0.0:
        return np.ones((x.size, y.size))
    table = _table(value, r)
    m = np.arange(n + 1)
    s = np.rint((m * (math.log(w_top) - math.log(x_top)) + table.log_values[: n + 1]) / (2.0 * math.log(2.0)))
    scale = np.ldexp(1.0, -np.diff(s).astype(int))[:, None]  # 2^(s_{m-1} - s_m)
    a = np.empty((n + 1, x.size))
    b = np.empty((n + 1, y.size))
    a[0] = b[0] = 1.0
    np.divide(x, table.steps[:n, None] * scale, out=a[1:])
    np.multiply(w, scale, out=b[1:])
    np.multiply.accumulate(a, axis=0, out=a)
    np.multiply.accumulate(b, axis=0, out=b)
    return a.T @ b


def heat_apply_kernel(mu, f, t: float, x, *, sigma: float = 0.0, quad_n: int = 96):
    """T(t) f at x by quadrature of the positive kernel; x: scalar or array of any shape.

    ``sigma`` is f's Gaussian envelope rate, as in fourier_quadrature: f
    decays like e^(-sigma y^2) times at most polynomial growth.  The rule
    is matched to the product of that envelope and the kernel's Gaussian
    e^(-y^2/4t), with nodes y = u / sqrt(sigma + 1/4t), leaving

        (T(t) f)(x) = Gamma(mu+1/2)^(-1) (1 + 4 sigma t)^(-mu-1/2) e^(-x^2/4t)
                      * sum_i w_i e(x y_i / 2t; mu) f(y_i) e^(sigma y_i^2).

    With sigma = 0 (the default) only the kernel's envelope is matched, and
    a faster-decaying f is left to the rule's polynomial part: for
    f = e^(-y^2) that is 6.4e-2 off, relative to the peak, at t = 10 and
    mu = 1/2.  Pass f's rate there.

    Raises ValueError where the integrand's peak passes the rule's reach.
    In u the peak sits at |x| sqrt(sigma + 1/4t) / (1 + 4 sigma t), and the
    reach is the largest node minus 4 (about 9.1 at 96 nodes); at sigma = 0
    the peak is y = |x|.  Gaussians lose 1e-10 at u 2.2-3.7 below it.

    The matrix e(x y_i / 2t; mu) does not depend on f; it is built once per
    (scaled-rule plan, x, t), at mu != 0 as one product of two factor tables
    (see _heat_kernel), and kept in a byte-bounded memo (see README).
    """
    value = _mu(mu)
    t = _real(t, "semigroup time t", 0.0, False)
    xa, shaped = _as_grid(x)
    rate = 0.25 / t
    y, wg, _, plan = _scaled_rule(value, f, sigma, rate, quad_n)
    stretch = 1.0 + 4.0 * sigma * t
    reach = plan.top - 4.0
    peak = np.max(np.abs(xa), initial=0.0) * math.sqrt(sigma + rate) / stretch
    if not peak <= reach:
        raise ValueError(
            f"max |x| must keep the integrand's peak within the {quad_n}-node rule's reach "
            f"{reach:.4g} in u, not {peak:.4g} (t = {t:g}, sigma = {sigma:g})"
        )
    # The Jacobian (sigma + 1/4t)^(-mu-1/2) times the kernel's (4t)^(-mu-1/2)
    # is stretch^(-mu-1/2), exactly 1 at sigma = 0.
    kern = _array_memo((plan.key, _memo_key(xa), t), _heat_kernel, value, xa, y, t)
    vals = np.exp(-xa * xa / (4.0 * t)) / gamma_half(value) * stretch ** (-value - 0.5) * (kern @ wg)
    return shaped(vals)


def heat_pde_residual(mu, family: str, t: float, x: float) -> float:
    """Finite-difference defect of the radial heat equation on a closed-form flow.

    family 'even' (heat_gaussian at z = 0): psi_t = psi_xx + (2 mu / x) psi_x
    family 'odd' (heat_odd_gaussian)      : psi_t = psi_xx + (2 mu / x) psi_x - (2 mu / x^2) psi

    Both flows start from rate alpha = 1.  Central differences with step
    h = 1e-4 in both variables; needs t > h and |x| >= 0.1 (the 1/x terms
    are genuinely singular at the origin).
    """
    value = _mu(mu)
    t, x = _real(t, "semigroup time t", 0.0), _real(x, "the point x")
    h = 1e-4
    if family == "even":
        psi = lambda x, t: heat_gaussian(value, 1.0, 0.0, t, x)
    elif family == "odd":
        psi = lambda x, t: heat_odd_gaussian(value, 1.0, t, x)
    else:
        raise ValueError("family must be 'even' or 'odd'")
    if abs(x) < 0.1:
        raise ValueError("residual check excludes |x| < 0.1 near the 1/x singularity")
    if not t > h:
        raise ValueError("need t > h for the centered time difference")
    left, mid, right = psi(np.array([x - h, x, x + h]), t)
    pt = (psi(x, t + h) - psi(x, t - h)) / (2.0 * h)
    px = (right - left) / (2.0 * h)
    pxx = (right - 2.0 * mid + left) / (h * h)
    rhs = pxx + (2.0 * value / x) * px
    if family == "odd":
        rhs -= (2.0 * value / (x * x)) * mid
    return float(abs(pt - rhs))


def heat_spectral_matrix(mu, t: float, size: int) -> np.ndarray:
    """exp(-t P^2) on the truncated eigenfunction basis (real symmetric).

    Truncating P corrupts the last rows of P^2; trust only coefficients
    well inside the block, or inputs whose expansion has decayed by then.
    """
    value = _mu(mu)
    t = _real(t, "semigroup time t", 0.0)
    u, s, v = _momentum_svd(value, size)
    return _spectral_function(u, v, np.exp(-t * s * s))
