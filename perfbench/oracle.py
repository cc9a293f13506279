"""Closed forms the benchmark checks muhermite against.

Nothing here imports muhermite.  Every value comes from scipy.special
(Bessel functions, Laguerre and Jacobi polynomials and their Gauss
rules) or from elementary functions, so an error in the program cannot
cancel itself in the check.  Conventions follow the program's: the
weight is |x|^(2 mu) e^(-x^2) dx, phi_n is the orthonormal eigenfunction
with positive leading coefficient, and the transform is normalized so
that F phi_n = (-i)^n phi_n.

Run ``python3 perfbench/oracle.py`` to execute the self-check, which
compares every closed form at mu = 0 with exp, cos/sin and the
classical Hermite functions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special


def rel_sup(got, want) -> float:
    """max |got - want| / max |want|: the sup-norm relative error."""
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


def log_gamma_mu(mu: float, n: np.ndarray) -> np.ndarray:
    """log of the generalized factorial from Gamma functions:

    gamma_mu(2m) = 4^m m! Gamma(m+mu+1/2) / Gamma(mu+1/2),
    gamma_mu(2m+1) = 2 4^m m! Gamma(m+mu+3/2) / Gamma(mu+1/2).
    """
    n = np.asarray(n)
    m = n // 2
    odd = n % 2
    return (
        n * math.log(2.0)
        + special.gammaln(m + 1)
        + special.gammaln(m + mu + 0.5 + odd)
        - special.gammaln(mu + 0.5)
    )


def moment(mu: float, r: int) -> float:
    """Integral of x^(2r) against |x|^(2 mu) e^(-x^2): Gamma(mu + r + 1/2)."""
    return math.gamma(mu + r + 0.5)


def e_real(mu: float, x) -> np.ndarray:
    """e(x; mu) for real x through modified Bessel functions:

    Gamma(mu+1/2) (|x|/2)^(1/2-mu) (I_{mu-1/2}(|x|) + sgn(x) I_{mu+1/2}(|x|)).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.abs(x)
    out = np.ones_like(x)
    nz = a > 0
    scale = math.gamma(mu + 0.5) * (a[nz] / 2.0) ** (0.5 - mu) * np.exp(a[nz])
    out[nz] = scale * (special.ive(mu - 0.5, a[nz]) + np.sign(x[nz]) * special.ive(mu + 0.5, a[nz]))
    return out


def e_imag(mu: float, x) -> np.ndarray:
    """e(-ix; mu) = c(x) - i s(x) for real x through Bessel functions of the first kind."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.abs(x)
    c = np.ones_like(x)
    s = np.zeros_like(x)
    nz = a > 0
    scale = math.gamma(mu + 0.5) * (a[nz] / 2.0) ** (0.5 - mu)
    c[nz] = scale * special.jv(mu - 0.5, a[nz])
    s[nz] = np.sign(x[nz]) * scale * special.jv(mu + 0.5, a[nz])
    return c - 1j * s


def eigenfunctions(mu: float, n_max: int, x) -> np.ndarray:
    """phi_0..phi_{n_max} at x, rows by index, through generalized Laguerre polynomials:

    phi_2m     = (-1)^m sqrt(m!/Gamma(m+mu+1/2)) L_m^(mu-1/2)(x^2) e^(-x^2/2),
    phi_{2m+1} = (-1)^m sqrt(m!/Gamma(m+mu+3/2)) x L_m^(mu+1/2)(x^2) e^(-x^2/2).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, x.size))
    env = np.exp(-0.5 * x * x)
    for n in range(n_max + 1):
        m, odd = divmod(n, 2)
        alpha = mu - 0.5 + odd
        norm = (-1.0) ** m * math.exp(0.5 * (special.gammaln(m + 1) - special.gammaln(m + alpha + 1)))
        out[n] = norm * special.eval_genlaguerre(m, alpha, x * x) * env * (x if odd else 1.0)
    return out


def _newton(x, p, dp, steps: int = 2):
    """Polish the roots x of p; returns the roots and dp at them."""
    for _ in range(steps):
        x = x - p(x) / dp(x)
    return x, dp(x)


def laguerre_rule(m: int, alpha: float):
    """Gauss rule for s^alpha e^(-s) ds on (0, inf).

    scipy's nodes are polished by Newton steps and the weights taken from
    Gamma(m+alpha+1) / (m! s (d/ds L_m^alpha(s))^2), which is several times
    more accurate than eigenvector weights.
    """
    s, _ = special.roots_genlaguerre(m, alpha)
    s, d = _newton(
        s, lambda v: special.eval_genlaguerre(m, alpha, v), lambda v: -special.eval_genlaguerre(m - 1, alpha + 1, v)
    )
    return s, np.exp(special.gammaln(m + alpha + 1) - special.gammaln(m + 1)) / (s * d * d)


def hermite_rule(mu: float, n: int):
    """Gauss rule for |x|^(2 mu) e^(-x^2) dx from the generalized Laguerre rule in s = x^2.

    Even n = 2m: nodes +-sqrt(s_k), s_k the roots of L_m^(mu-1/2), weights w_k / 2.
    Odd n = 2m+1: nodes 0 and +-sqrt(s_k), s_k the roots of L_m^(mu+1/2), weights
    w_k / (2 s_k), and Gamma(mu+1/2) - sum w_k / s_k at the origin.
    """
    m, odd = divmod(n, 2)
    if m == 0:
        return np.zeros(1), np.array([math.gamma(mu + 0.5)])
    s, w = laguerre_rule(m, mu - 0.5 + odd)
    if odd:
        w = w / s
        centre = [math.gamma(mu + 0.5) - float(np.sum(w))]
    else:
        centre = []
    r = np.sqrt(s)
    nodes = np.concatenate([-r[::-1], [0.0] * odd, r])
    weights = np.concatenate([0.5 * w[::-1], centre, 0.5 * w])
    return nodes, weights


def jacobi_rule(a: float, b: float, n: int):
    """Gauss rule for (1-t)^a (1+t)^b dt on (-1, 1), polished as laguerre_rule is.

    Weights 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n! (1-t^2) P'(t)^2).
    """
    t, _ = special.roots_jacobi(n, a, b)
    t, d = _newton(
        t,
        lambda v: special.eval_jacobi(n, a, b, v),
        lambda v: 0.5 * (n + a + b + 1) * special.eval_jacobi(n - 1, a + 1, b + 1, v),
    )
    log_c = (
        (a + b + 1) * math.log(2.0)
        + special.gammaln(n + a + 1)
        + special.gammaln(n + b + 1)
        - special.gammaln(n + a + b + 1)
        - special.gammaln(n + 1)
    )
    return t, np.exp(log_c) / ((1.0 - t * t) * d * d)


def alpha_rule(mu: float, n: int):
    """Gauss rule for the unit-mass averaging measure, density proportional to (1-t)^(mu-1) (1+t)^mu.

    The mass of (1-t)^(mu-1) (1+t)^mu is 2^(2 mu) B(mu, mu+1).
    """
    nodes, weights = jacobi_rule(mu - 1.0, mu, n)
    log_mass = 2.0 * mu * math.log(2.0) + special.betaln(mu, mu + 1.0)
    return nodes, weights * math.exp(-log_mass)


def gaussian_transform(mu: float, lam: float, x) -> np.ndarray:
    """Transform of e^(-lam t^2): (2 lam)^(-mu-1/2) e^(-x^2/(4 lam))."""
    x = np.asarray(x, dtype=float)
    return (2.0 * lam) ** (-mu - 0.5) * np.exp(-x * x / (4.0 * lam))


def coefficients(mu: float, f, n_max: int, size: int = 96) -> np.ndarray:
    """<f, phi_n> for n <= n_max, f of the form polynomial times e^(-t^2/2).

    The rule integrates polynomial e^(-t^2) exactly through degree 2 size - 1.
    """
    nodes, weights = hermite_rule(mu, size)
    vals = np.asarray(f(nodes)) * np.exp(nodes * nodes)
    return (eigenfunctions(mu, n_max, nodes) * (weights * vals)).sum(axis=1)


def transform_by_eigen(mu: float, coeffs, x) -> np.ndarray:
    """F of sum c_n phi_n at x, using F phi_n = (-i)^n phi_n."""
    coeffs = np.asarray(coeffs)
    phases = (-1j) ** np.arange(coeffs.size)
    return (phases * coeffs) @ eigenfunctions(mu, coeffs.size - 1, x)


def heat_gaussian(mu: float, alpha: float, t: float, x) -> np.ndarray:
    """exp(t D^2) e^(-alpha x^2) = u^(-mu-1/2) e^(-alpha x^2 / u), u = 1 + 4 alpha t."""
    x = np.asarray(x, dtype=float)
    u = 1.0 + 4.0 * alpha * t
    return u ** (-mu - 0.5) * np.exp(-alpha * x * x / u)


def translate_gaussian(mu: float, lam: float, x: float, y: float) -> float:
    """Translate of e^(-lam xi^2) by y, at x: e^(-lam (x^2 + y^2)) e(-2 lam x y; mu)."""
    return float(math.exp(-lam * (x * x + y * y)) * e_real(mu, -2.0 * lam * x * y)[0])


def position_matrix(mu: float, size: int) -> np.ndarray:
    """<phi_m, x phi_n> for m, n < size, by the oracle's own Gauss rule."""
    nodes, weights = hermite_rule(mu, size + 8)
    table = eigenfunctions(mu, size - 1, nodes) * np.exp(0.5 * nodes * nodes)
    return (table * (weights * nodes)) @ table.T


def self_check() -> dict:
    """Worst error of each closed form at mu = 0 against its classical counterpart."""
    x = np.linspace(-6.0, 6.0, 121)
    out = {
        "e_real_vs_exp": rel_sup(e_real(0.0, x), np.exp(x)),
        "e_imag_vs_cos_sin": rel_sup(e_imag(0.0, x), np.cos(x) - 1j * np.sin(x)),
    }
    classical = np.array(
        [
            special.eval_hermite(n, x) * np.exp(-0.5 * x * x)
            / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
            for n in range(21)
        ]
    )
    out["eigenfunctions_vs_hermite"] = rel_sup(eigenfunctions(0.0, 20, x), classical)
    worst = 0.0
    for n in (31, 32):
        nodes, weights = hermite_rule(0.0, n)
        h_nodes, h_weights = special.roots_hermite(n)
        worst = max(worst, rel_sup(nodes, h_nodes), rel_sup(weights, h_weights))
        for r in range(n):
            worst = max(worst, abs(np.dot(weights, nodes ** (2 * r)) / moment(0.0, r) - 1.0))
    out["hermite_rule_vs_classical"] = worst
    # Classical transform (2 pi)^(-1/2) int e^(-ixt) f(t) dt by Gauss-Hermite in s = t sqrt(lam).
    s, w = special.roots_hermite(80)
    worst = 0.0
    for lam in (0.5, 1.3):
        kernel = np.exp(-1j * np.outer(x, s) / math.sqrt(lam))
        numeric = kernel @ w / math.sqrt(2.0 * math.pi * lam)
        worst = max(worst, rel_sup(gaussian_transform(0.0, lam, x), numeric))
    phi = eigenfunctions(0.0, 8, s)
    for n in range(9):
        numeric = np.exp(-1j * np.outer(x, s)) @ (w * phi[n] * np.exp(s * s)) / math.sqrt(2.0 * math.pi)
        worst = max(worst, rel_sup(transform_by_eigen(0.0, np.eye(9)[n], x), numeric))
    out["transform_vs_classical"] = worst
    # Classical heat flow, the Gauss-Weierstrass convolution by the trapezoid
    # rule, which converges geometrically for Gaussian integrands.
    y, dy = np.linspace(-30.0, 30.0, 6001, retstep=True)
    worst = 0.0
    for alpha, t in ((0.7, 0.1), (1.0, 0.5), (1.3, 2.0)):
        kernel = np.exp(-((x[:, None] - y[None, :]) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        numeric = kernel @ np.exp(-alpha * y * y) * dy
        worst = max(worst, rel_sup(heat_gaussian(0.0, alpha, t, x), numeric))
    out["heat_vs_classical"] = worst
    return out


SELF_CHECK_TOLERANCE = 1e-12


if __name__ == "__main__":
    report = self_check()
    for name, err in report.items():
        print(f"{name:28s} {err:.2e}")
    raise SystemExit(0 if max(report.values()) < SELF_CHECK_TOLERANCE else 1)
