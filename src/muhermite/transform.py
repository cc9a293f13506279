"""Eigenfunction basis, spectral expansions, and the deformed Fourier transform.

The orthonormal basis of L^2(|x|^(2 mu) dx) is

    phi_n(x) = sqrt(gamma_mu(n) / Gamma(mu + 1/2)) / (2^(n/2) n!)
               * e^(-x^2/2) H_n(x; mu),

satisfying the normalized recurrence x phi_n = sqrt(b_{n+1}) phi_{n+1}
+ sqrt(b_n) phi_{n-1} with b_k = (k + 2 mu theta(k)) / 2.  The deformed
Fourier transform

    (F f)(x) = (2^(mu+1/2) Gamma(mu+1/2))^(-1)
               * integral e(-ixt; mu) f(t) |t|^(2 mu) dt

is diagonal on this basis with eigenvalues (-i)^n, so it has two
realizations kept deliberately separate: multiplication by (-i)^n on
expansion coefficients (exact), and direct quadrature of the integral
(a genuine discretization).  Tests drive one against the other.

Quadrature-backed operations require the caller to state a Gaussian
envelope rate sigma, meaning f(t) = g(t) e^(-sigma t^2) with g of at
most polynomial growth.  One substitution, t -> t / sqrt(sigma + c) with
c = 1/2 for expand and 0 for the norm and the transform, written once in
``quadrature._scaled_rule``, then matches the rule's e^(-t^2) weight
analytically, so no oscillatory or unbounded factor is ever integrated
blindly.  The matrices those routes multiply f's samples by (the kernel,
the basis tables) do not depend on f; each is built once per distinct
argument list and kept in ``core._array_memo``, while f is sampled on
every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _array_memo, _as_grid, as_mu, gamma_half, gamma_mu, gamma_step, log_gamma_mu
from .efun import c_s_mu, e_mu
from .hermite import hermite_coeffs, hermite_eval
from .poly import DensePoly
from .quadrature import _recurrence_table, _scaled_rule

__all__ = [
    "SpectralVector",
    "phi_eval",
    "phi_poly_table",
    "phi_poly_coeffs",
    "expand",
    "synthesize",
    "l2mu_norm",
    "fourier_spectral",
    "fourier_eigenvalue_pair",
    "fourier_quadrature",
    "transform_of_gaussian",
    "transform_of_monomial_gaussian",
    "transform_of_efun_gaussian",
    "transform_of_hermite_gaussian",
    "operator_matrix",
]


@dataclass(frozen=True)
class SpectralVector:
    """Expansion coefficients against the phi basis for one mu."""

    mu: float
    coeffs: np.ndarray
    parseval_defect: float | None = None

    def __post_init__(self) -> None:
        self.coeffs.setflags(write=False)

    def __len__(self) -> int:
        return len(self.coeffs)


def phi_poly_table(mu, n_max: int, x) -> np.ndarray:
    """Polynomial factors phi_n(x) e^(x^2/2), n = 0..n_max, all x at once.

    x is read as every grid is (core._as_grid), so a non-finite entry raises
    ValueError; the table has shape (n_max + 1, *x.shape), row n in x's shape.
    """
    value = as_mu(mu).require_numeric()
    xa, _ = _as_grid(x)
    off = np.sqrt(gamma_step(value, np.arange(1, n_max + 1)) / 2.0)
    return _recurrence_table(np.zeros(n_max), off, gamma_half(value), xa).reshape((n_max + 1,) + np.shape(x))


def phi_eval(mu, n: int, x):
    """Eigenfunction phi_n at x; x: scalar or array of any shape."""
    xa, shaped = _as_grid(x)
    return shaped(phi_poly_table(mu, n, xa)[n] * np.exp(-0.5 * xa * xa))


def phi_poly_coeffs(mu, n: int) -> DensePoly:
    """phi_n's polynomial factor as an explicit coefficient vector."""
    value = as_mu(mu).require_numeric()
    log_norm = (
        0.5 * log_gamma_mu(value, n)
        - 0.5 * math.log(gamma_half(value))
        - 0.5 * n * math.log(2.0)
        - math.lgamma(n + 1)
    )
    return hermite_coeffs(value, n).scale(math.exp(log_norm))


def expand(
    mu,
    f,
    n_max: int,
    *,
    sigma: float = 0.5,
    quad_n: int | None = None,
) -> SpectralVector:
    """Coefficients c_n = <f, phi_n> for n <= n_max, by Gauss quadrature.

    ``sigma`` is f's Gaussian envelope rate (default 1/2, the rate of
    the basis functions themselves).  The Parseval defect
    ||f||^2 - sum |c_n|^2 is recorded on the result; it measures how
    much of f lives above index n_max.
    """
    value = as_mu(mu).require_numeric()
    if quad_n is None:
        quad_n = max(2 * (n_max + 1), n_max + 32)
    if quad_n < n_max + 8:
        raise ValueError("quadrature size too small for the requested n_max")
    # The basis functions carry e^(-t^2/2), so the rule is matched to rate 1/2.
    t, wg, jac = _scaled_rule(value, f, sigma, 0.5, quad_n)
    coeffs = jac * (_array_memo(phi_poly_table, value, n_max, t) * wg).sum(axis=1)
    norm_sq = l2mu_norm(f, sigma=sigma, mu=value, quad_n=quad_n) ** 2
    defect = float(norm_sq - np.sum(np.abs(coeffs) ** 2))
    return SpectralVector(mu=value, coeffs=coeffs, parseval_defect=defect)


def synthesize(vec: SpectralVector, x):
    """Pointwise sum c_n phi_n(x); x: scalar or array of any shape."""
    xa, shaped = _as_grid(x)
    table = _array_memo(phi_poly_table, vec.mu, len(vec) - 1, xa)
    return shaped((vec.coeffs[:, None] * table).sum(axis=0) * np.exp(-0.5 * xa * xa))


def l2mu_norm(f, *, sigma: float, mu, quad_n: int = 96) -> float:
    """Weighted L^2 norm of f, which must decay like e^(-sigma x^2)."""
    value = as_mu(mu).require_numeric()
    _, wg, jac = _scaled_rule(value, lambda t: np.abs(np.asarray(f(t))) ** 2, 2.0 * sigma, 0.0, quad_n)
    return math.sqrt(jac * float(wg.sum()))


def fourier_eigenvalue_pair(n: int, re, im):
    """(-i)^n * (re + i im) as an exact (re, im) pair; field-generic."""
    k = n % 4
    if k == 0:
        return re, im
    if k == 1:
        return im, -re
    if k == 2:
        return -re, -im
    return -im, re


def fourier_spectral(vec: SpectralVector) -> SpectralVector:
    """The transform on coefficients: c_n -> (-i)^n c_n.  Exact."""
    n = np.arange(len(vec))
    return SpectralVector(
        mu=vec.mu,
        coeffs=vec.coeffs.astype(complex) * (-1j) ** n,
        parseval_defect=vec.parseval_defect,
    )


def _kernel_matrix(value: float, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """e(-i x_a t_i; mu) = c(x_a t_i; mu) - i s(x_a t_i; mu) as a matrix.

    t must be the nodes of a mirrored rule, t[n-1-i] == -t[i] bitwise, as
    gauss_hermite_mu's nodes over a positive scale are.  Since c is even and
    s odd, the column at -t is the conjugate of the column at t, so c_s_mu
    runs on the half t[n//2:] and the rest is mirrored.  That is exact:
    x t only changes sign, and c_s_mu returns c(-z) = c(z) and s(-z) =
    -s(z) bitwise.  A non-finite x raises ValueError (see c_s_mu).
    """
    h = len(t) // 2
    c, s = c_s_mu(value, np.outer(x, t[h:]))
    half = np.empty(c.shape, dtype=complex)
    half.real, half.imag = c, -s
    return np.concatenate((half[:, ::-1][:, :h].conj(), half), axis=1)


def fourier_quadrature(
    mu,
    f,
    x,
    *,
    sigma: float,
    quad_n: int = 96,
    inverse: bool = False,
):
    """Transform of f at x by direct quadrature; x: scalar or array of any shape.

    ``sigma`` is f's Gaussian envelope rate and must be supplied: the
    substitution t -> t / sqrt(sigma) maps the integral onto the fixed
    e^(-t^2) rule.  ``inverse`` flips the kernel to e(+ixt; mu), which
    realizes the inverse (conjugate) transform.  Returns complex values.

    The rule resolves the kernel's oscillation e^(-i omega u) in the rule's
    variable u only up to a reach in omega = max|x| / sqrt(sigma), and
    past it ValueError is raised, as for a non-finite x.  The reach is
    2 sqrt(2n) - 2 sqrt(ln 1e11) + 8.5 / sqrt(n) for n = quad_n: the node
    spacing near 0 is about pi / sqrt(2n), and a Gaussian aliased at that
    spacing is 1e-11 off at omega = 2 sqrt(2n) - 2 sqrt(ln 1e11); the last
    term is fitted.  On Gaussian inputs the error, relative to the peak,
    passes 1e-13 below the reach and 1e-10 only above it for 8 <= n <= 256 and
    -1/2 < mu <= 3 (18.51 at n = 96, between 18.21 and 18.65); for larger mu
    both crossings move up and the reach is cautious.  It is cautious below
    8 nodes too, and at 4 or fewer, where it is negative, only x = 0 passes.
    """
    value = as_mu(mu).require_numeric()
    xa, shaped = _as_grid(x)
    t, wg, jac = _scaled_rule(value, f, sigma, 0.0, quad_n)
    reach = 2.0 * math.sqrt(2.0 * quad_n) - 2.0 * math.sqrt(11.0 * math.log(10.0)) + 8.5 / math.sqrt(quad_n)
    omega = np.max(np.abs(xa), initial=0.0) / math.sqrt(sigma)
    if not omega <= max(reach, 0.0):
        raise ValueError(
            f"max |x| / sqrt(sigma) must be within the {quad_n}-node rule's reach {reach:.4g}, "
            f"not {omega:.6g}"
        )
    kernel = _array_memo(_kernel_matrix, value, -xa if inverse else xa, t)
    vals = jac / (2.0 ** (value + 0.5) * gamma_half(value)) * (kernel @ wg)
    return shaped(vals)


# Closed forms of the transform on Gaussian-type inputs, prefactor included,
# so each compares directly with fourier_quadrature on the matching input;
# 2^(-mu-1/2) is the prefactor 1 / (2^(mu+1/2) Gamma(mu+1/2)) times Gamma(mu+1/2).
# In each, x: scalar or array of any shape.


def transform_of_gaussian(mu, lam: float, x):
    """Transform of e^(-lam t^2):  pref * Gamma(mu+1/2) lam^(-mu-1/2) e^(-x^2/(4 lam))."""
    value = as_mu(mu).require_numeric()
    if not lam > 0:
        raise ValueError("the Gaussian rate lam must be positive")
    x, shaped = _as_grid(x)
    return shaped(2.0 ** (-value - 0.5) * lam ** (-value - 0.5) * np.exp(-x * x / (4.0 * lam)))


def transform_of_monomial_gaussian(mu, n: int, lam: float, x):
    """Transform of t^n e^(-lam t^2):

    pref * (-i/2)^n Gamma(mu+1/2) lam^(-(n+1)/2-mu) (gamma_mu(n)/n!)
         * e^(-x^2/(4 lam)) H_n(x / (2 sqrt(lam)); mu).
    """
    value = as_mu(mu).require_numeric()
    if not lam > 0:
        raise ValueError("the Gaussian rate lam must be positive")
    x, shaped = _as_grid(x)
    amp = 2.0 ** (-value - 0.5) * lam ** (-0.5 * n - 0.5 - value) * gamma_mu(value, n) / math.factorial(n) / 2.0**n
    h = hermite_eval(value, n, x / (2.0 * math.sqrt(lam)))
    return shaped((-1j) ** n * amp * np.exp(-x * x / (4.0 * lam)) * h)


def transform_of_efun_gaussian(mu, lam: float, y: float, x):
    """Transform of e(iyt; mu) e^(-lam t^2):

    pref * Gamma(mu+1/2) lam^(-mu-1/2) e^(-(x^2+y^2)/(4 lam)) e(xy/(2 lam); mu).
    """
    value = as_mu(mu).require_numeric()
    if not lam > 0:
        raise ValueError("the Gaussian rate lam must be positive")
    x, shaped = _as_grid(x)
    amp = 2.0 ** (-value - 0.5) * lam ** (-value - 0.5)
    return shaped(amp * np.exp(-(x * x + y * y) / (4.0 * lam)) * e_mu(value, x * y / (2.0 * lam)))


def transform_of_hermite_gaussian(mu, n: int, beta: float, lam: float, x):
    """Transform of H_n(beta t; mu) e^(-lam^2 t^2), valid for beta^2 > lam^2 > 0:

    pref * (-i)^n Gamma(mu+1/2) lam^(-2 mu - 1) ((beta/lam)^2 - 1)^(n/2)
         * e^(-x^2/(4 lam^2)) H_n(beta x / (2 lam sqrt(beta^2 - lam^2)); mu).

    At beta = 1, lam^2 = 1/2 this reduces to (-i)^n e^(-x^2/2) H_n(x; mu):
    the eigenfunction relation.
    """
    value = as_mu(mu).require_numeric()
    if not (beta * beta > lam * lam > 0):
        raise ValueError("needs beta^2 > lam^2 > 0")
    x, shaped = _as_grid(x)
    ratio2 = (beta / lam) ** 2 - 1.0
    amp = 2.0 ** (-value - 0.5) * lam ** (-2.0 * value - 1.0) * ratio2 ** (0.5 * n)
    arg = beta * x / (2.0 * lam * math.sqrt(beta * beta - lam * lam))
    return shaped((-1j) ** n * amp * np.exp(-x * x / (4.0 * lam * lam)) * hermite_eval(value, n, arg))


def operator_matrix(mu, kind: str, size: int) -> np.ndarray:
    """Truncated matrix of one canonical operator on the phi basis, read-only.

    kinds: 'A' (lowering), 'Adag' (raising), 'Q' (position), 'P'
    (momentum), 'H' (hamiltonian, diagonal n + mu + 1/2), 'J' (parity,
    diagonal (-1)^n), 'F' (transform, diagonal (-i)^n).
    """
    value = as_mu(mu).require_numeric()
    if size < 2:
        raise ValueError("operator matrices need size >= 2")
    # A phi_n = sqrt(gamma(n)/gamma(n-1)) phi_{n-1} = sqrt(n + 2 mu theta(n)) phi_{n-1}
    lower = np.sqrt(gamma_step(value, np.arange(1, size)))
    if kind == "A":
        m = np.diag(lower, k=1).astype(complex)
    elif kind == "Adag":
        m = np.diag(lower, k=-1).astype(complex)
    elif kind == "Q":
        m = ((np.diag(lower, k=1) + np.diag(lower, k=-1)) / math.sqrt(2.0)).astype(complex)
    elif kind == "P":
        m = (np.diag(lower, k=1) - np.diag(lower, k=-1)).astype(complex) / (1j * math.sqrt(2.0))
    elif kind == "H":
        m = np.diag(np.arange(size) + value + 0.5).astype(complex)
    elif kind == "J":
        m = np.diag((-1.0) ** np.arange(size)).astype(complex)
    elif kind == "F":
        m = np.diag((-1j) ** np.arange(size))
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    m.setflags(write=False)
    return m


def _momentum_svd(value: float, size: int):
    """(U, s, V) with P's even-row, odd-column block -i R, R = U diag(s) V^T real.

    P couples only opposite parities, so this one SVD gives every function
    of P.  For odd size R has an extra row; s is zero-padded to its length.
    """
    r = (1j * operator_matrix(value, "P", size)[0::2, 1::2]).real
    u, s, vt = np.linalg.svd(r)
    return u, np.pad(s, (0, r.shape[0] - len(s))), vt.T
