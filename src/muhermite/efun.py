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
call only sums.  A lone point (a scalar or a one-point array) runs the
recursion in a Python loop; any other array is summed from term tables of
_terms (as heat's kernel builds its factor tables), row m being z / step_m:
one cumulative product down the rows and one sum down them, in row order.
Each table is a column chunk of at most _TABLE_BYTES (256 KiB), and a
one-point tail joins the chunk before it, so every point gets the loop's
bits at the array's term count.  Past about 400 points a loop of calls
across the array would be faster (ROADMAP item 13).  The absolute error is
of order eps * e(|z|; mu), the sum of the term magnitudes; for real z << 0
and for imaginary z that bound is far above |e(z; mu)|, since the terms
cancel.  Where |z| e(|z|; mu) leaves float64 (|z| past ~700) both routes raise
OverflowError instead of returning inf or nan.

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
# Byte budget of one term table, an array's column chunk of n + 1 rows (a one-point tail joins the last).
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


def _terms(z, steps):
    """Row 0 = 1 and row m = z^m / (steps[0] ... steps[m-1]) at each point of a flat ndarray z.

    A complex z is divided part by part, rounding once, as Python does (numpy
    divides by a real through its reciprocal, rounding twice).
    """
    table = np.empty((steps.size + 1, z.size), z.dtype)
    table[0] = 1.0
    np.divide(z.view(float), steps[:, None], out=table[1:].view(float))
    return np.multiply.accumulate(table, axis=0, out=table)


def _loop(z, steps):
    """The sum of the terms at a Python float or complex z, each the last one times z / step."""
    acc = term = 1.0 + 0.0 * z
    for step in steps.tolist():
        term = term * (z / step)
        acc = acc + term
    return acc


def _series(mu: float, z):
    """sum_m z^m / gamma_mu(m) at a Python float or complex z, or at each point of a float64 or complex128 ndarray."""
    # A lone point takes the Python loop: numpy would sum a one-column table's
    # contiguous rows pairwise and multiply complex values along them in vector lanes.
    point = z.item() if isinstance(z, np.ndarray) and z.size == 1 else z
    r = _radius(point)
    n = _term_count(mu, r)
    steps = _table(mu, r).steps[:n]
    if not isinstance(point, np.ndarray):
        return _loop(point, steps) if point is z else np.full(z.shape, _loop(point, steps))
    flat = z.ravel()
    out = np.empty_like(flat)
    cols = max(2, _TABLE_BYTES // ((n + 1) * flat.itemsize))
    bounds = [*range(0, flat.size - 1, cols), flat.size]  # every chunk is two columns wide or more
    for start, stop in zip(bounds, bounds[1:]):
        np.add.reduce(_terms(flat[start:stop], steps), axis=0, out=out[start:stop])
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
    """Deformed exponential e(z; mu) at a real or complex z: a scalar, or an array or list of any shape.

    z is read as np.asarray(z), in its dtype's field (complex or float64; an
    object array, such as a list of Fractions and complex values, in its
    values' field); a 0-d z gives a Python float or complex, any other z an
    array in its shape.
    At mu = 0 (either sign of zero) e(z; 0) = exp(z) comes from numpy's exp:
    within about 1 ulp of the true exp, relative to |exp(z)|.  Every other
    mu is summed (see the module docstring) to a term count planned once per
    (mu, max |z|) (MU_CACHE_SIZE entries), every point with the Python
    loop's bits at that count; its absolute error is of order
    eps * e(|z|; mu), the best a fixed-precision summation can promise where
    the terms cancel (real z < 0, complex z).  Both routes raise
    OverflowError where |z| e(|z|; mu) leaves float64 (|z| + ln |z| past
    ln(float max) at mu = 0: z = 703 is finite, 703.5 raises) and
    ValueError for a non-finite z.
    """
    value = _mu(mu)
    z = np.asarray(z)
    field = complex if z.dtype.kind == "c" or z.dtype.kind == "O" and any(map(np.iscomplexobj, z.flat)) else float
    z = z.astype(field, copy=False)
    route = _series if value != 0.0 else _exp
    return route(value, z) if z.ndim else field(route(value, z.item()))


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


def mehler_rhs(mu, x, y, z):
    """Closed form of the bilinear eigenfunction sum sum_n phi_n(x) phi_n(y) z^n:

        (1 - z^2)^(-mu - 1/2) / Gamma(mu + 1/2)
        * exp(-(x^2 + y^2)(1 + z^2) / (2 (1 - z^2)))
        * e(2 x y z / (1 - z^2); mu),

    valid for |z| < 1 (z may be complex).  x and y are grids read together
    by core._as_grid, so they broadcast; scalar points give a Python float,
    or a complex for a complex z.
    """
    value = _mu(mu)
    xa, ya, shaped = _as_grid(x, y)
    if not abs(z) < 1:
        raise ValueError("the bilinear kernel needs |z| < 1")
    z = complex(z) if np.iscomplexobj(z) else float(z)  # a Fraction z would make object arrays
    one_minus = 1.0 - z * z
    pref = one_minus ** (-value - 0.5) / gamma_half(value)
    gauss = np.exp(-0.5 * (xa * xa + ya * ya) * (1.0 + z * z) / one_minus)
    return shaped(pref * gauss * e_mu(value, 2.0 * xa * ya * z / one_minus))


def heat_kernel(mu, x, y, t: float):
    """Positive heat kernel for the deformed Laplacian at time t > 0:

        (4 t)^(-mu - 1/2) / Gamma(mu + 1/2)
        * exp(-(x^2 + y^2) / (4 t)) * e(x y / (2 t); mu).

    x and y are grids read together by core._as_grid, so they broadcast;
    scalar points give a Python float.  Reduces at mu = 0 to the classical
    Gauss-Weierstrass kernel.  Raises OverflowError where the e(.; mu)
    factor leaves float64 (x y / (2 t) past ~700) before the Gaussian can
    tame it.
    """
    value = _mu(mu)
    xa, ya, shaped = _as_grid(x, y)
    t = _real(t, "semigroup time t", 0.0, False)
    pref = (4.0 * t) ** (-value - 0.5) / gamma_half(value)
    return shaped(pref * np.exp(-(xa * xa + ya * ya) / (4.0 * t)) * e_mu(value, xa * ya / (2.0 * t)))
