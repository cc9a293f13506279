"""Gauss rules for the deformed measures, and the recurrence behind them.

Two families are exposed:

* ``gauss_hermite_mu``: nodes/weights for |x|^(2 mu) e^(-x^2) dx on the
  line.  The orthonormal recursion for this weight has zero diagonal
  and off-diagonal coefficients sqrt(b_k), b_k = (k + 2 mu theta(k)) / 2.

* ``gauss_alpha_mu``: the probability measure on (-1, 1) with density
  (1 - t)^(mu - 1) (1 + t)^mu / B(1/2, mu), mu > 0, which is the
  averaging measure behind the generalized translation.  This is a
  Jacobi weight; its n-th moment is n! / gamma_mu(n).

Both are built the same way (Golub-Welsch; Gautschi 2004): the nodes
are the eigenvalues of a symmetric tridiagonal Jacobi matrix, from
numpy's ``eigvalsh``, each polished by one Newton step on p_n; the
weights are the Christoffel numbers 1 / S, S = sum_{k<n} p_k(x_j)^2, scaled to
the exact mass.  One recurrence pass gives both: S' = K S at a zero of p_n carries
S across the Newton step (an O(step^2) remainder), with K = p_n'' / p_n' from the
weight's differential equation (DLMF 18.8.1): (a - b + (a + b + 2) t) / (1 - t^2)
for (1 - t)^a (1 + t)^b, and 2x - 2 mu / x for hermite_mu (Laguerre in x^2).
Every p_k comes from ``_recurrence_table``, the one three-term evaluator (rows
rescaled so that each step is two in-place numpy calls): it tabulates the
eigenfunctions in ``transform``, and its derivative rows (Gautschi 2004, 2.1) give
the p', p'' the oscillator's bridge reads.
Weights are never read off eigenvectors: the tiny outer weights (~1e-210 at
n = 256) would lose their relative accuracy.

The hermite_mu weight is even, so the square of its n x n Jacobi matrix
splits into parity blocks, and the nonzero nodes are +-sqrt(t) for the
zeros t of the m-point rule of t^a e^(-t), n = 2m + (n mod 2) and
a = mu - 1/2 + (n mod 2) (Gautschi 2004, symmetric measures).  Their
eigenproblem is m x m, an eighth of the O(n^3) work.  The matrix is
built from a + 1 = mu + 1/2 + (n mod 2), which keeps every bit of
mu + 1/2 as mu -> -1/2, where the smallest t is about (a + 1) / m.
Only the nodes come from t: the Newton step and the Christoffel numbers
run on the x recurrence, at the nonnegative nodes (with x = 0 for odd
n), since a polish in t loses relative accuracy at the smallest nodes.
The negative half is the mirror image, so the rule is symmetric bit for
bit by construction and needs no fold onto its mirror.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import MU_CACHE_SIZE, _count, _finite_exp, _mu, _real, gamma_half, gamma_step

__all__ = ["QuadratureRule", "gauss_hermite_mu", "gauss_alpha_mu", "jacobi_rule"]


def _recurrence_table(diag, off, mass: float, x, order: int = 0) -> np.ndarray:
    """Orthonormal polynomials p_0..p_m at every x, m = len(off), shape (m + 1, x.size).

    The recursion is x p_k = off[k] p_{k+1} + diag[k] p_k + off[k-1] p_{k-1}
    with p_0 = mass^(-1/2); ``diag`` needs at least len(off) entries.  With order > 0
    the shape is (order + 1, m + 1, x.size) and row [j, k] is p_k^(j):
    p^(j)_{k+1} = (j p^(j-1)_k + (x - diag[k]) p^(j)_k - off[k-1] p^(j)_{k-1}) / off[k].
    Rows are carried as q_k = p_k / s_k, s_0 = s_1 = 1, s_{k+1} = s_{k-1} off[k-1] / off[k],
    so q_{k+1} = a_k q_k - q_{k-1} (+ j c_k q^(j-1)_k), a_k = (x - diag[k]) c_k and
    c_k = s_k / (off[k] s_{k+1}), rounded as s_k / (off[k-1] s_{k-1}) for k >= 1.  One 2-D op
    prefills rows 1..m with a_k (x c_k for a +0.0 diag: a -0.0 entry turns x = -0.0 into
    +0.0), each step is then two in-place calls (four for a derivative row), and one
    multiply by s_k restores p.  The p rows are the same bits at every order, and on a
    zero diagonal p_k(-x) = (-1)^k p_k(x) bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = len(off)
    off = np.asarray(off, dtype=float)
    diag = np.asarray(diag[:m], dtype=float)
    scale = np.ones(m + 1)  # s_k
    ratio = off[:-1] / off[1:]
    scale[2::2] = np.cumprod(ratio[0::2])
    scale[3::2] = np.cumprod(ratio[1::2])
    c = scale[:-1] / np.append(off[:1], off[:-1] * scale[:-2])
    out = np.empty((order + 1, m + 1, x.size))
    a = out[0, 1:]
    if diag.any() or np.signbit(diag).any():
        np.multiply(np.subtract(x, diag[:, None], out=a), c[:, None], out=a)
    else:
        np.multiply(x, c[:, None], out=a)
    out[1:, 1:] = a
    out[:, 0] = 0.0
    out[0, 0] = 1.0 / math.sqrt(mass)
    scratch = np.empty(x.size)
    c = c.tolist()
    below = None  # the rows of order j - 1
    for j, p in enumerate(out):
        rows = list(p)
        for k in range(m):
            row = rows[k + 1]
            np.multiply(row, rows[k], out=row)
            if k:
                np.subtract(row, rows[k - 1], out=row)
            if j:
                np.add(row, np.multiply(below[k], j * c[k], out=scratch), out=row)
        below = rows
    out *= scale[:, None]
    return out if order else out[0]


def _eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix (diag, off)."""
    n = len(diag)
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[n :: n + 1] = off[: n - 1]  # lower triangle, which eigvalsh reads
    return np.linalg.eigvalsh(jacobi)


def _polish(diag: np.ndarray, off: np.ndarray, nodes: np.ndarray, curvature):
    """One Newton step on p_n at each node, and the Christoffel numbers there, from one table.

    n = len(diag) and ``off`` carries n entries; the last one enters only
    p_n.  The weights are those of the unit-mass measure, unnormalized.
    ``curvature(x)`` is K = p_n'' / p_n' at a zero of p_n.  With S = sum_{k<n} p_k^2
    = off[n-1] (p_n' p_{n-1} - p_{n-1}' p_n) (confluent Christoffel-Darboux), S' =
    K S + O(p_n), so S at the zero x - step is S (1 - K step) + O(step^2); the step
    is Newton's own, not the rounded node's move, so the weight is the true zero's.
    """
    n = len(diag)
    # Christoffel-Darboux: p_n' p_{n-1} = sum_{k<n} p_k^2 / off[n-1] at a zero of p_n.
    table = _recurrence_table(diag, off, 1.0, nodes)
    christoffel = np.einsum("kj,kj->j", table[:n], table[:n])
    step = off[n - 1] * table[n] * table[n - 1] / christoffel
    return nodes - step, 1.0 / (christoffel * (1.0 - curvature(nodes) * step))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes, weights, and provenance of one Gauss rule."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    measure: str
    mass: float

    def __post_init__(self) -> None:
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=MU_CACHE_SIZE)
def _hermite_rule_cached(mu: float, n: int) -> QuadratureRule:
    m, odd = divmod(n, 2)
    # x^2 at the nonzero nodes: the Jacobi matrix of t^a e^(-t), a = mu - 1/2 + odd,
    # read through a + 1 = mu + 1/2 + odd; a itself would round mu's last bit
    # away, a relative 3e-4 of a + 1 at mu = -1/2 + 1e-13.
    a1 = (mu + 0.5) + odd
    j = np.arange(m)
    t = _eigenvalues(2.0 * j + a1, np.sqrt((j + 1.0) * (j + a1)))
    half = np.concatenate((np.zeros(odd), np.sqrt(t)))
    off = np.sqrt(gamma_step(mu, np.arange(1, n + 1)) / 2.0)
    # at the x = 0 node of an odd rule p_n(0) = 0, so the step is 0 and K is not formed
    curvature = lambda x: 2.0 * x - np.divide(2.0 * mu, x, out=np.zeros_like(x), where=x != 0.0)
    half, weights = _polish(np.zeros(n), off, half, curvature)
    mass = gamma_half(mu)
    # Each positive node stands for itself and its mirror image.
    weights = weights * (mass / (2.0 * weights.sum() - weights[:odd].sum()))
    nodes = np.concatenate((-half[::-1][:m], half))
    return QuadratureRule(nodes, np.concatenate((weights[::-1][:m], weights)), 2 * n - 1, "hermite_mu", mass)


def _check_size(n) -> int:
    n = _count(n, "rule size", 1)
    if n > 256:
        raise ValueError("rule size capped at 256 nodes")
    return n


def gauss_hermite_mu(mu, n: int) -> QuadratureRule:
    """Gauss rule for |x|^(2 mu) e^(-x^2) dx, exact through degree 2n - 1."""
    return _hermite_rule_cached(_mu(mu), _check_size(n))


class _ScaledPlan(NamedTuple):
    """The f-independent part of one scaled rule, and the key it was built for."""

    key: tuple  # (mu, sigma, rate, quad_n)
    t: np.ndarray
    weights: np.ndarray
    growth: np.ndarray  # e^(sigma t^2)
    jac: float
    top: float  # the largest node u of the unscaled rule


@lru_cache(maxsize=MU_CACHE_SIZE, typed=True)
def _scaled_plan(value: float, sigma: float, rate: float, quad_n: int) -> _ScaledPlan:
    rule = gauss_hermite_mu(value, quad_n)
    s = math.sqrt(sigma + rate)
    t = rule.nodes / s
    growth = np.exp(sigma * t * t)
    for row in (t, growth):
        row.setflags(write=False)
    return _ScaledPlan((value, sigma, rate, quad_n), t, rule.weights, growth, s ** (-2.0 * value - 1.0), rule.nodes.max())


def _scaled_rule(value: float, f, sigma: float, rate: float, quad_n: int):
    """The hermite_mu rule matched to f(t) e^(-rate t^2) |t|^(2 mu) dt.

    f must decay like e^(-sigma t^2) times at most polynomial growth.  With
    s = sqrt(sigma + rate) and nodes t = u / s, the integral of
    k(t) f(t) e^(-rate t^2) |t|^(2 mu) dt for a tame k is
    jac * sum_i k(t_i) wg_i, where wg = weights * f(t) e^(sigma t^2) and
    jac = s^(-2 mu - 1).  The exponent sigma t^2 = sigma u^2 / (sigma + rate)
    stays below the node's u^2, so recovering f's polynomial part is safe.
    Returns (t, wg, jac, plan); sigma must be finite and >= 0, sigma + rate > 0.
    The f-independent t, e^(sigma t^2) and jac are built once per checked (mu, sigma,
    rate, quad_n) and kept read-only (MU_CACHE_SIZE entries); warm calls keep the bits.
    ``plan.key`` is that tuple: equal keys give equal t bit for bit, so a matrix
    built on t can be memoized by the key instead of t's bytes.
    """
    sigma = _real(sigma, "the envelope rate sigma", 0.0, rate > 0.0)  # so sigma + rate > 0
    plan = _scaled_plan(value, sigma, rate, _check_size(quad_n))
    return plan.t, plan.weights * (np.asarray(f(plan.t)) * plan.growth), plan.jac, plan


def _jacobi_coefficients(a: float, b: float, n: int):
    """Monic recursion coefficients for (1-t)^a (1+t)^b on (-1, 1) over its mass, so beta[0] = 1.

    The unit-mass rule never reads the mass, which leaves the float range long
    before the rule does (``_jacobi_mass``).
    """
    alpha = np.empty(n)
    beta = np.empty(n)
    s = a + b
    alpha[0] = (b - a) / (s + 2.0)
    beta[0] = 1.0
    if n > 1:
        # n = 1 uses the cancelled form, which stays finite at s = -1.
        alpha[1] = (b * b - a * a) / ((2.0 + s) * (4.0 + s))
        beta[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + s) ** 2 * (3.0 + s))
    # k >= 2 as arrays, each operation in the order of the scalar formulas
    k = np.arange(2.0, n)
    t = 2.0 * k + s
    alpha[2:] = (b * b - a * a) / (t * (t + 2.0))
    beta[2:] = 4.0 * k * (k + a) * (k + b) * (k + s) / (t * t * (t + 1.0) * (t - 1.0))
    return alpha, beta


def _jacobi_mass(a: float, b: float) -> float:
    """2^(a+b+1) B(a+1, b+1), the mass of (1-t)^a (1+t)^b, in log space.

    Each factor leaves the float range from a + b ~ 1e3 on, while their product
    may not; OverflowError where the mass itself does.
    """
    log_mass = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    return _finite_exp(log_mass, f"the Jacobi mass 2^(a+b+1) B(a+1, b+1) at (a, b) = ({a:g}, {b:g})")


@lru_cache(maxsize=MU_CACHE_SIZE)
def _jacobi_rule_cached(a: float, b: float, n: int) -> QuadratureRule:
    """The unit-mass rule for (1-t)^a (1+t)^b.

    The averaging measure at mu is (a, b) = (mu - 1, mu), so gauss_alpha_mu
    and jacobi_rule share one eigenproblem per mu.
    """
    alpha, beta = _jacobi_coefficients(a, b, n + 1)
    diag, off = alpha[:n], np.sqrt(beta[1:])  # off[n - 1] enters only p_n, for the Newton step
    # K from (1 - t^2) y'' + (b - a - (a + b + 2) t) y' + n (n + a + b + 1) y = 0
    nodes, weights = _polish(diag, off, _eigenvalues(diag, off), lambda t: (a - b + (a + b + 2.0) * t) / (1.0 - t * t))
    return QuadratureRule(nodes, weights / weights.sum(), 2 * n - 1, "alpha_mu", 1.0)


def jacobi_rule(a: float, b: float, n: int) -> QuadratureRule:
    """Gauss rule for (1-t)^a (1+t)^b dt on (-1, 1); a, b finite and > -1."""
    a, b = _real(a, "jacobi_rule's a", -1.0, False), _real(b, "jacobi_rule's b", -1.0, False)
    rule = _jacobi_rule_cached(a, b, _check_size(n))
    mass = _jacobi_mass(a, b)
    return QuadratureRule(rule.nodes, mass * rule.weights, rule.exactness_degree, "jacobi", mass)


def gauss_alpha_mu(mu, n: int) -> QuadratureRule:
    """Gauss rule for the unit-mass averaging measure on (-1, 1), mu > 0."""
    value = _mu(mu, 0.0)
    return _jacobi_rule_cached(value - 1.0, value, _check_size(n))
