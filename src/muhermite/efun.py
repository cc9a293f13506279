"""The deformed exponential and the closed-form kernels built from it.

The deformed exponential replaces n! by the generalized factorial:

    e(z; mu) = sum_m z^m / gamma_mu(m),

an entire function equal to exp at mu = 0.  Its restriction to the
imaginary axis splits into even and odd parts c(x; mu) - i s(x; mu)
= e(-ix; mu), the deformed cosine/sine pair that drives the Fourier
theory.  Also here: the product kernel of the Mehler type summation and
the heat kernel, both of which are elementary expressions in e(.; mu).

At mu = 0, e_mu returns numpy's exp, which is within about 1 ulp of
exp(z), relative to |exp(z)|, where the sum below loses digits to
cancellation (9.7e-11 relative at z = -7.92).  Every other mu is summed by
one term recursion term_m = term_{m-1} * (z / step_m), step_m = m + 2 mu
theta(m), with a term count fixed up front from r = max |z|: the sum runs
through the first m > r whose term r^m / gamma_mu(m) is below 2^-53 times
the largest one.  That count is a plan, built once per (mu, r); the steps
are read from the cached gamma_mu table the plan was built from, so a warm
call only sums.  A scalar runs the recursion in a Python loop.  An array is
summed from a term table whose row 0 is 1 and row m is z / step_m (a complex
z divided part by part, so it rounds once, as Python's division does): one
cumulative product down the rows makes them the terms and one sum down
them, in row order, adds them, so every point gets the scalar loop's bits.
The table is taken in column chunks of at most _TABLE_BYTES (256 KiB), three
numpy calls each; numpy runs each column's product chain serially, so past
about 400 points a loop of calls across the array would be faster (see
README).  The absolute error is of order eps * e(|z|; mu), the sum of
the term magnitudes; for real z << 0 and for imaginary z that bound is far
above |e(z; mu)|, since the terms cancel.  Where |z| e(|z|; mu) leaves float64 (|z| past ~700)
both routes raise OverflowError instead of returning inf or nan.

On the imaginary axis those terms cancel down from e^|x| to values of
order one, so c and s come from their Bessel form instead: with
nu = mu - 1/2, c(x; mu) = Gamma(nu+1) (|x|/2)^(-nu) J_nu(|x|) and s(x; mu)
= sign(x) Gamma(nu+1) (|x|/2)^(-nu) J_{nu+1}(|x|).  Miller's backward
recurrence (DLMF 3.6(iii)) gives the ratios of the J, and Gegenbauer's
Neumann sum (DLMF 10.23(ii)) normalizes them, so no power of x, gamma
function or route switch is needed at any |x| up to 1e4; mu = 0 is
exactly cos/sin.  That loop updates its arrays in place, with the operations of
the plain formulas in their order, so the bits are those of fresh arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import MU_CACHE_SIZE, _as_grid, _mu, _real, gamma_half, gamma_table

__all__ = [
    "e_mu",
    "c_s_mu",
    "mehler_rhs",
    "heat_kernel",
]

_LOG_EPS = -53.0 * math.log(2.0)
_LOG_MAX = math.log(np.finfo(float).max)
# Largest |x| the backward recurrence serves.  It takes one step per order up
# to ~|x| (at 1e4, on a 2-core VM: 5 ms for a scalar, 80 ms for 960 points),
# and its error grows like |x| eps for mu near 0.
_RECURRENCE_CAP = 1e4
# Byte budget of one term table: an array is summed in column chunks that
# keep each table of n + 1 rows within it.
_TABLE_BYTES = 1 << 18


def _check_range(log_size: float, r: float) -> None:
    if log_size > _LOG_MAX:
        raise OverflowError(f"the deformed exponential overflows float64 at |z| = {r:.6g}")


def _radius(z) -> float:
    """max |z| of a scalar or ndarray z; ValueError unless it is finite."""
    r = float(np.max(np.abs(z), initial=0.0)) if isinstance(z, np.ndarray) else abs(z)
    if not math.isfinite(r):
        raise ValueError("the deformed exponential needs a finite argument")
    return r


def _table(mu: float, r: float):
    # Past m = 2r each term is at most half the previous one, so the
    # table always holds the stopping index.
    return gamma_table(mu, int(2 * r) + 64)


@lru_cache(maxsize=MU_CACHE_SIZE)
def _term_count(mu: float, r: float) -> int:
    """The series' term count n at max |z| = r, after both range checks; planned per (mu, r)."""
    if r == 0.0:
        return 0
    # gamma_mu(k) <= Gamma(k + 1 + a) / Gamma(1 + a), so this lower
    # bound on the largest term refuses hopeless r before any table.
    a, k = 2.0 * max(mu, 0.0), math.floor(r)
    _check_range(k * math.log(r) - math.lgamma(k + 1 + a) + math.lgamma(1 + a), r)
    logs = _table(mu, r).log_values
    log_terms = np.arange(len(logs)) * math.log(r) - logs
    # The terms fall from m = k + 1 on: the peak is reached by then, and
    # the terms still above 2^-53 of it form a run starting there.
    peak = log_terms[: k + 2].max()
    n = k + 1 + int(np.count_nonzero(log_terms[k + 1 :] >= peak + _LOG_EPS))
    # e(r; mu), the sum of the term magnitudes, times r must stay inside
    # float64: the boundary e_mu documents
    log_size = peak + math.log(np.exp(log_terms[: n + 1] - peak).sum())
    _check_range(log_size + math.log(r), r)
    return n


def _series(mu: float, z):
    """sum_m z^m / gamma_mu(m) for a float or complex scalar or ndarray z."""
    r = _radius(z)
    n = _term_count(mu, r)
    steps = _table(mu, r).steps[:n]
    if not isinstance(z, np.ndarray):
        acc = term = 1.0 + 0.0 * z
        for step in steps.tolist():
            term = term * (z / step)
            acc = acc + term
        return acc
    flat = z.ravel()
    out = np.empty_like(flat)
    cols = max(1, _TABLE_BYTES // ((n + 1) * flat.itemsize))
    for start in range(0, flat.size, cols):
        piece = flat[start : start + cols]
        table = np.empty((n + 1, piece.size), piece.dtype)
        table[0] = 1.0
        # numpy divides a complex array by a real through its reciprocal,
        # rounding twice; dividing the parts rounds once, as Python does.
        np.divide(piece.view(float), steps[:, None], out=table[1:].view(float))
        np.multiply.accumulate(table, axis=0, out=table)
        np.add.reduce(table, axis=0, out=out[start : start + cols])
    return out.reshape(z.shape)


def _exp(mu: float, z):
    """e(z; 0) = exp(z) from numpy, behind the series' checks and overflow boundary.

    mu is 0; it is taken so that e_mu calls either route the same way.
    """
    r = _radius(z)
    if r > 0.0:
        # the series' boundary at mu = 0: log e(r; 0) = r, plus log r
        _check_range(r + math.log(r), r)
    return np.exp(z)


def _miller(nu: float, x):
    """(c, s)(x; nu + 1/2) for a float64 ndarray x, |x| <= 1e4.

    With r_k = J_{nu+k}(x) / J_{nu+k-1}(x) = x / d_k, the Bessel recurrence
    read downwards is d_k = 2 (nu + k) - x^2 / d_{k+1}, started at
    d = 2 (nu + k) past the order N = r + 10 r^(1/3) + 40, r = max|x|, where
    the J are negligible.  The Neumann sum (x/2)^nu / Gamma(nu+1) =
    sum_m a_m J_{nu+2m} with a_0 = 1, a_m = (nu + 2m) (nu+1)...(nu+m-1) / m!
    then gives c = J_nu / sum = 1 / u_0 and s = r_1 / u_0, where
    u_m = 1 + (a_{m+1} / a_m) x^2 / (d_{2m+1} d_{2m+2}) u_{m+1} is the tail
    of the sum over its first term.  No power x^nu and no gamma function is
    formed, so a tiny |x| is as safe as a large one: x^2 = 0 gives
    (1, x / (2 nu + 2)).  Raises ValueError past |x| = 1e4.
    """
    r = float(np.max(np.abs(x), initial=0.0))
    if not r <= _RECURRENCE_CAP:
        raise ValueError(
            f"the deformed cosine and sine are computed up to |x| = {_RECURRENCE_CAP:g}, not at {r:.6g}"
        )
    x2 = x * x
    q = 0.0 * x2  # x^2 / d_{2m+3}; zero above the start order
    u = 1.0 + q
    e, d = np.empty_like(x2), np.empty_like(x2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for m in range(int(r + 10.0 * r ** (1.0 / 3.0) + 40.0) // 2 + 1, -1, -1):
            np.subtract(2.0 * (nu + 2 * m + 2), q, out=e)
            np.divide(x2, e, out=q)
            np.subtract(2.0 * (nu + 2 * m + 1), q, out=d)
            rho = (nu + 2 * m + 2) / (m + 1) * ((nu + m) / (nu + 2 * m) if m else 1.0)
            np.multiply(np.multiply(q, rho, out=e), u, out=e)  # e is free until the next step
            np.add(np.divide(e, d, out=e), 1.0, out=u)  # u = 1 + rho q u / d
            np.divide(x2, d, out=q)
    finite = np.isfinite(u)
    if not finite.all():
        # a d_k rounded to exactly 0 (x at a zero of some J_{nu+k}, to the
        # last bit); one ulp towards 0 moves it off, changing c and s by ~eps
        return _miller(nu, np.where(finite, x, np.nextafter(x, 0.0)))
    return 1.0 / u, x / (d * u)


def e_mu(mu, z):
    """Deformed exponential e(z; mu); z may be real, complex, or an ndarray.

    At mu = 0 (either sign of zero) e(z; 0) = exp(z) comes from numpy's exp,
    for scalars too: within about 1 ulp of the true exp, relative to
    |exp(z)|, for real and complex z.  Every other mu is summed (see the
    module docstring), a scalar in a Python loop and an array from a term
    table that gives every point the loop's bits at the array's term count,
    planned once per (mu, max |z|) (MU_CACHE_SIZE entries); its absolute
    error is of order
    eps * e(|z|; mu), the best a fixed-precision summation can promise where
    the terms cancel (real z < 0, complex z).  Both routes raise
    OverflowError where |z| e(|z|; mu) leaves float64 (|z| + ln |z| past
    ln(float max) at mu = 0: z = 703 is finite, 703.5 raises) and
    ValueError for a non-finite z.
    """
    value = _mu(mu)
    route = _series if value != 0.0 else _exp
    if isinstance(z, np.ndarray) and z.ndim:
        if np.iscomplexobj(z):
            return route(value, z.astype(complex))
        if z.size == 1:
            # a real one-point grid, as a scalar x reaches the closed forms:
            # Python float arithmetic rounds as the term table does, at a
            # third to two thirds of its cost
            return np.full(z.shape, route(value, float(z.flat[0])))
        return route(value, z.astype(float))
    # any other z, numpy scalars too, is summed in Python arithmetic (exp: numpy's)
    if np.iscomplexobj(z):
        return complex(route(value, complex(z)))
    return float(route(value, float(z)))


def c_s_mu(mu, x):
    """Deformed cosine/sine pair (c, s) with c - i s = e(-ix; mu), x real.

    x: scalar or array of any shape; a scalar gives two floats, an array
    two arrays in its shape.  mu = 0 is exactly
    (cos, sin).  Otherwise Miller's backward recurrence serves every
    |x| <= 1e4 and raises ValueError beyond; against 40-digit mpmath its
    error, relative to max(1, |value|), is about 1e-16 for mu >= 1/2 and
    grows like |x| eps for mu near 0: 3e-13 at (mu, x) = (0.01, 1e4) and
    6e-13 at (-0.45, 1e4).  A non-finite x raises ValueError.
    """
    value = _mu(mu)
    xa, shaped = _as_grid(x)
    c, s = (np.cos(xa), np.sin(xa)) if value == 0.0 else _miller(value - 0.5, xa)
    return shaped(c), shaped(s)


def mehler_rhs(mu, x: float, y: float, z):
    """Closed form of the bilinear eigenfunction sum sum_n phi_n(x) phi_n(y) z^n:

        (1 - z^2)^(-mu - 1/2) / Gamma(mu + 1/2)
        * exp(-(x^2 + y^2)(1 + z^2) / (2 (1 - z^2)))
        * e(2 x y z / (1 - z^2); mu),

    valid for |z| < 1 (z may be complex).
    """
    value = _mu(mu)
    x, y = _real(x, "the point x"), _real(y, "the point y")
    if not abs(z) < 1:
        raise ValueError("the bilinear kernel needs |z| < 1")
    one_minus = 1.0 - z * z
    pref = one_minus ** (-value - 0.5) / gamma_half(value)
    gauss = np.exp(-0.5 * (x * x + y * y) * (1.0 + z * z) / one_minus)
    val = pref * gauss * e_mu(value, 2.0 * x * y * z / one_minus)
    return val if isinstance(z, complex) else float(val.real if isinstance(val, complex) else val)


def heat_kernel(mu, x: float, y: float, t: float) -> float:
    """Positive heat kernel for the deformed Laplacian at time t > 0:

        (4 t)^(-mu - 1/2) / Gamma(mu + 1/2)
        * exp(-(x^2 + y^2) / (4 t)) * e(x y / (2 t); mu).

    Reduces at mu = 0 to the classical Gauss-Weierstrass kernel.
    Raises OverflowError where the e(.; mu) factor leaves float64
    (x y / (2 t) past ~700) before the Gaussian can tame it.
    """
    value = _mu(mu)
    x, y, t = _real(x, "the point x"), _real(y, "the point y"), _real(t, "semigroup time t", 0.0, False)
    pref = (4.0 * t) ** (-value - 0.5) / gamma_half(value)
    return pref * math.exp(-(x * x + y * y) / (4.0 * t)) * e_mu(value, x * y / (2.0 * t))
