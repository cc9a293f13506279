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
argument list and kept in ``core._array_memo``, keyed by the scaled
rule's plan key where it is built on the scaled nodes, while f is sampled
on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _array_memo, _as_grid, _count, _memo_key, _mu, _real, gamma_half, gamma_mu, gamma_step
from .efun import c_s_mu, e_mu
from .hermite import hermite_eval
from .quadrature import _check_size, _recurrence_table, _scaled_rule

__all__ = [
    "SpectralVector",
    "phi_eval",
    "phi_poly_table",
    "expand",
    "synthesize",
    "l2mu_norm",
    "fourier_spectral",
    "fourier_quadrature",
    "transform_of_gaussian",
    "transform_of_monomial_gaussian",
    "transform_of_efun_gaussian",
    "transform_of_hermite_gaussian",
    "operator_matrix",
]

# (-i)^n is _MINUS_I_POWERS[n % 4], exactly; (-1j) ** n drifts from n = 100.
_MINUS_I_POWERS = np.array((1, -1j, -1, 1j))


@dataclass(frozen=True)
class SpectralVector:
    """Expansion coefficients against the phi basis for one mu; ``coeffs`` is a read-only copy."""

    mu: float
    coeffs: np.ndarray
    parseval_defect: float | None = None

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs)  # the caller's array stays writable
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


def _phi_rows(value: float, n_max: int, x: np.ndarray, order: int = 0) -> np.ndarray:
    """phi_n e^(x^2/2), n <= n_max, at a flat x; order > 0 as in ``_recurrence_table``."""
    off = np.sqrt(gamma_step(value, np.arange(1, n_max + 1)) / 2.0)
    return _recurrence_table(np.zeros(n_max), off, gamma_half(value), x, order)


def phi_poly_table(mu, n_max: int, x) -> np.ndarray:
    """Polynomial factors phi_n(x) e^(x^2/2), n = 0..n_max, all x at once.

    x is read as every grid is (core._as_grid), so a non-finite entry raises
    ValueError; the table has shape (n_max + 1, *x.shape), row n in x's shape.
    Where an entry itself leaves float64 (at mu = 1/2 and x = 40, from n = 567)
    it raises OverflowError naming the lowest such n and its x.
    """
    n_max = _count(n_max, "basis index")
    value = _mu(mu)
    xa, _ = _as_grid(x)
    with np.errstate(over="ignore", invalid="ignore"):
        table = _phi_rows(value, n_max, xa)
    if not np.isfinite(table).all():
        n, i = np.argwhere(~np.isfinite(table))[0]
        raise OverflowError(f"phi_n(x) e^(x^2/2) leaves float64 at n = {n}, x = {float(xa[i])!r} (mu = {value:g})")
    return table.reshape((n_max + 1,) + np.shape(x))


def phi_eval(mu, n: int, x):
    """Eigenfunction phi_n at x; x: scalar or array of any shape.

    OverflowError where phi_poly_table's entry leaves float64.  Past |x| = 38.6
    the factor e^(-x^2/2) underflows, and the result reads 0.0 without a
    warning, also where phi_n(x) itself is a normal float (an open item).
    """
    xa, shaped = _as_grid(x)
    return shaped(phi_poly_table(mu, n, xa)[n] * np.exp(-0.5 * xa * xa))


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
    value = _mu(mu)
    n_max = _count(n_max, "n_max")
    if quad_n is None:
        quad_n = max(2 * (n_max + 1), n_max + 32)
    if _check_size(quad_n) < n_max + 8:
        raise ValueError("quadrature size too small for the requested n_max")
    # The basis functions carry e^(-t^2/2), so the rule is matched to rate 1/2.
    t, wg, jac, plan = _scaled_rule(value, f, sigma, 0.5, quad_n)
    coeffs = jac * (_array_memo((plan.key, n_max), phi_poly_table, value, n_max, t) * wg).sum(axis=1)
    norm_sq = l2mu_norm(f, sigma=sigma, mu=value, quad_n=quad_n) ** 2
    defect = float(norm_sq - np.sum(np.abs(coeffs) ** 2))
    return SpectralVector(mu=value, coeffs=coeffs, parseval_defect=defect)


def synthesize(vec: SpectralVector, x):
    """Pointwise sum c_n phi_n(x); x: scalar or array of any shape."""
    xa, shaped = _as_grid(x)
    table = _array_memo((vec.mu, len(vec), _memo_key(xa)), phi_poly_table, vec.mu, len(vec) - 1, xa)
    return shaped((vec.coeffs[:, None] * table).sum(axis=0) * np.exp(-0.5 * xa * xa))


def l2mu_norm(f, *, sigma: float, mu, quad_n: int = 96) -> float:
    """Weighted L^2 norm of f, which must decay like e^(-sigma x^2)."""
    value = _mu(mu)
    sigma = _real(sigma, "the envelope rate sigma", 0.0, False)
    _, wg, jac, _ = _scaled_rule(value, lambda t: np.abs(np.asarray(f(t))) ** 2, 2.0 * sigma, 0.0, quad_n)
    return math.sqrt(jac * float(wg.sum()))


def fourier_spectral(vec: SpectralVector) -> SpectralVector:
    """The transform on coefficients: c_n -> (-i)^n c_n.  Exact."""
    n = np.arange(len(vec))
    return SpectralVector(
        mu=vec.mu,
        coeffs=vec.coeffs.astype(complex) * _MINUS_I_POWERS[n % 4],
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
    value = _mu(mu)
    xa, shaped = _as_grid(x)
    t, wg, jac, plan = _scaled_rule(value, f, sigma, 0.0, quad_n)
    reach = 2.0 * math.sqrt(2.0 * quad_n) - 2.0 * math.sqrt(11.0 * math.log(10.0)) + 8.5 / math.sqrt(quad_n)
    omega = np.max(np.abs(xa), initial=0.0) / math.sqrt(sigma)
    if not omega <= max(reach, 0.0):
        raise ValueError(
            f"max |x| / sqrt(sigma) must be within the {quad_n}-node rule's reach {reach:.4g}, "
            f"not {omega:.6g}"
        )
    kernel = _array_memo((plan.key, _memo_key(xa), bool(inverse)), _kernel_matrix, value, -xa if inverse else xa, t)
    vals = jac / (2.0 ** (value + 0.5) * gamma_half(value)) * (kernel @ wg)
    return shaped(vals)


# Closed forms of the transform on Gaussian-type inputs, prefactor included,
# so each compares directly with fourier_quadrature on the matching input;
# 2^(-mu-1/2) is the prefactor 1 / (2^(mu+1/2) Gamma(mu+1/2)) times Gamma(mu+1/2).
# In each, x: scalar or array of any shape.


def transform_of_gaussian(mu, lam: float, x):
    """Transform of e^(-lam t^2):  pref * Gamma(mu+1/2) lam^(-mu-1/2) e^(-x^2/(4 lam))."""
    value = _mu(mu)
    lam = _real(lam, "the Gaussian rate lam", 0.0, False)
    x, shaped = _as_grid(x)
    return shaped(2.0 ** (-value - 0.5) * lam ** (-value - 0.5) * np.exp(-x * x / (4.0 * lam)))


def transform_of_monomial_gaussian(mu, n: int, lam: float, x):
    """Transform of t^n e^(-lam t^2):

    pref * (-i/2)^n Gamma(mu+1/2) lam^(-(n+1)/2-mu) (gamma_mu(n)/n!)
         * e^(-x^2/(4 lam)) H_n(x / (2 sqrt(lam)); mu).
    """
    value = _mu(mu)
    lam = _real(lam, "the Gaussian rate lam", 0.0, False)
    x, shaped = _as_grid(x)
    amp = 2.0 ** (-value - 0.5) * lam ** (-0.5 * n - 0.5 - value) * gamma_mu(value, n) / math.factorial(n) / 2.0**n
    h = hermite_eval(value, n, x / (2.0 * math.sqrt(lam)))
    return shaped(_MINUS_I_POWERS[n % 4] * amp * np.exp(-x * x / (4.0 * lam)) * h)


def transform_of_efun_gaussian(mu, lam: float, y: float, x):
    """Transform of e(iyt; mu) e^(-lam t^2):

    pref * Gamma(mu+1/2) lam^(-mu-1/2) e^(-(x^2+y^2)/(4 lam)) e(xy/(2 lam); mu).
    """
    value = _mu(mu)
    lam, y = _real(lam, "the Gaussian rate lam", 0.0, False), _real(y, "the frequency y")
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
    value = _mu(mu)
    beta, lam = _real(beta, "the scale beta"), _real(lam, "the Gaussian rate lam")
    if not (beta * beta > lam * lam > 0):
        raise ValueError("needs beta^2 > lam^2 > 0")
    x, shaped = _as_grid(x)
    ratio2 = (beta / lam) ** 2 - 1.0
    amp = 2.0 ** (-value - 0.5) * lam ** (-2.0 * value - 1.0) * ratio2 ** (0.5 * n)
    h = hermite_eval(value, n, beta * x / (2.0 * lam * math.sqrt(beta * beta - lam * lam)))
    return shaped(_MINUS_I_POWERS[n % 4] * amp * np.exp(-x * x / (4.0 * lam * lam)) * h)


def operator_matrix(mu, kind: str, size: int) -> np.ndarray:
    """Truncated matrix of one canonical operator on the phi basis, read-only.

    kinds: 'A' (lowering), 'Adag' (raising), 'Q' (position), 'P'
    (momentum), 'H' (hamiltonian, diagonal n + mu + 1/2), 'J' (parity,
    diagonal (-1)^n), 'F' (transform, diagonal (-i)^n).
    """
    value = _mu(mu)
    size = _count(size, "matrix size", 2)
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
        m = np.diag(_MINUS_I_POWERS[np.arange(size) % 4])
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


def _spectral_function(u, v, even, odd=None) -> np.ndarray:
    """f(P) from _momentum_svd's U, V and f = e + i g at s: blocks U e U^T, V e V^T, U g V^T and
    minus its transpose (complex); without g the parity couplings stay exact zeros."""
    k = len(v)
    out = np.zeros((len(u) + k,) * 2, dtype=float if odd is None else complex)
    out[0::2, 0::2] = (u * even) @ u.T
    out[1::2, 1::2] = (v * even[:k]) @ v.T
    if odd is not None:
        out[0::2, 1::2] = (u[:, :k] * odd[:k]) @ v.T
        out[1::2, 0::2] = -out[0::2, 1::2].T
    return out
