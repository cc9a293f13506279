"""The deformed exponential and the closed-form kernels built from it.

The deformed exponential replaces n! by the generalized factorial:

    e(z; mu) = sum_m z^m / gamma_mu(m),

an entire function equal to exp at mu = 0.  Its restriction to the
imaginary axis splits into even and odd parts c(x; mu) - i s(x; mu)
= e(-ix; mu), the deformed cosine/sine pair that drives the Fourier
theory.  Also here: the product kernel of the Mehler type summation and
the heat kernel, both of which are elementary expressions in e(.; mu).

The series is summed by one term recursion term_{m+1} = term_m * z /
(m + 1 + 2 mu theta(m+1)), for scalars and arrays alike, with a term
count fixed up front from r = max |z|: the sum runs through the first
m > r whose term r^m / gamma_mu(m) is below 2^-53 times the largest
one.  The absolute error is then of order eps * e(|z|; mu), the sum of
the term magnitudes; for real z << 0 and for imaginary z that bound is
far above |e(z; mu)|, since the terms cancel.  Where |z| e(|z|; mu) leaves
float64 (|z| past ~700) the sum raises OverflowError instead of
returning inf or nan.

On the imaginary axis with |x| large the series is hopeless in
float64, so for mu > 0 the values come from the averaging-measure
integral e(-ix; mu) = integral of exp(-ixt) over the (-1,1) measure
with density proportional to (1-t)^(mu-1) (1+t)^mu, evaluated by the
matching 192-node Gauss rule (mu = 0 is exactly cos/sin), summed in
real arithmetic: cos and -sin of the real phases x t_j fill one complex
buffer, with no complex exp.  The rule resolves exp(-ixt) only up to
|x| = 300: at mu = 0.5 its absolute error is 2e-15 there, 5e-11 at 330
and 0.07 at 400, a relative error of 1.7.  Past that reach the integral
raises ConvergenceError instead of returning a wrong value.
"""

from __future__ import annotations

import math

import numpy as np

from .core import as_mu, gamma_half, gamma_step, gamma_table
from .quadrature import gauss_alpha_mu

__all__ = [
    "ConvergenceError",
    "e_mu",
    "c_s_mu",
    "mehler_rhs",
    "heat_kernel",
]

_LOG_EPS = -53.0 * math.log(2.0)
_LOG_MAX = math.log(np.finfo(float).max)
# Nodes of the Gauss rule for the averaging-measure integral, and the
# largest |x| at which that rule still resolves exp(-ixt).
_AVERAGING_N = 192
_AVERAGING_REACH = 300.0


class ConvergenceError(RuntimeError):
    """Raised when no route reaches float64 accuracy at the argument."""


def _check_range(log_size: float, r: float) -> None:
    if log_size > _LOG_MAX:
        raise OverflowError(f"the deformed exponential overflows float64 at |z| = {r:.6g}")


def _series(mu: float, z):
    """sum_m z^m / gamma_mu(m) for a float or complex scalar or ndarray z."""
    r = float(np.max(np.abs(z), initial=0.0)) if isinstance(z, np.ndarray) else abs(z)
    if not math.isfinite(r):
        raise ValueError("the deformed exponential needs a finite argument")
    n = 0
    if r > 0.0:
        # gamma_mu(k) <= Gamma(k + 1 + a) / Gamma(1 + a), so this lower
        # bound on the largest term refuses hopeless r before any table.
        a, k = 2.0 * max(mu, 0.0), math.floor(r)
        _check_range(k * math.log(r) - math.lgamma(k + 1 + a) + math.lgamma(1 + a), r)
        # Past m = 2r each term is at most half the previous one, so the
        # table always holds the stopping index.
        logs = gamma_table(mu, int(2 * r) + 64).log_values
        log_terms = np.arange(len(logs)) * math.log(r) - logs
        # The terms fall from m = k + 1 on: the peak is reached by then, and
        # the terms still above 2^-53 of it form a run starting there.
        peak = log_terms[: k + 2].max()
        n = k + 1 + int(np.count_nonzero(log_terms[k + 1 :] >= peak + _LOG_EPS))
        # e(r; mu), the sum of the term magnitudes, times r (the loop forms
        # term * z before dividing) must stay inside float64
        log_size = peak + math.log(np.exp(log_terms[: n + 1] - peak).sum())
        _check_range(log_size + math.log(r), r)
    by_parts = isinstance(z, np.ndarray) and np.iscomplexobj(z)
    if by_parts:
        z = np.ascontiguousarray(z)
    acc = term = 1.0 + 0.0 * z
    for m in range(1, n + 1):
        term = term * z
        if by_parts:
            # numpy divides a complex array by a real through its reciprocal,
            # rounding twice; dividing the parts rounds once, as Python does.
            parts = term.view(float)
            np.divide(parts, gamma_step(mu, m), out=parts)
        else:
            term = term / gamma_step(mu, m)
        acc = acc + term
    return acc


def _averaging_integral(mu: float, z):
    """e(-iz; mu) for real z (scalar or ndarray) and mu > 0, |z| <= 300.

    The averaging measure turns it into sum_j v_j exp(-i z tau_j) with
    tau_j in (-1, 1).  The real phases z tau_j are formed once; cos of
    them fills the real part of one complex buffer and sin of their
    negatives the imaginary part: exp(-i z tau_j) as cexp gives it, without
    the complex multiply and exp.  Raises ConvergenceError past |z| = 300,
    where the rule stops resolving the oscillation.
    """
    z = np.asarray(z, dtype=float)
    reach = float(np.max(np.abs(z), initial=0.0))
    if not reach <= _AVERAGING_REACH:
        raise ConvergenceError(
            f"the averaging-measure rule is accurate up to |x| = {_AVERAGING_REACH:g}, not at |x| = {reach:.6g}"
        )
    rule = gauss_alpha_mu(mu, _AVERAGING_N)
    phase = z[..., None] * rule.nodes
    kernel = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=kernel.real)
    np.sin(np.negative(phase, out=phase), out=kernel.imag)
    return np.dot(kernel, rule.weights)


def e_mu(mu, z):
    """Deformed exponential e(z; mu); z may be real, complex, or an ndarray.

    The absolute error is of order eps * e(|z|; mu), the best a
    fixed-precision summation can promise where the terms cancel (real
    z < 0, complex z).  Raises OverflowError where |z| e(|z|; mu) leaves
    float64 (|z| past ~700) and ValueError for a non-finite z.
    """
    value = as_mu(mu).require_numeric()
    if isinstance(z, np.ndarray) and z.ndim:
        return _series(value, z.astype(complex if np.iscomplexobj(z) else float))
    # any other z, numpy scalars too, is summed in Python arithmetic
    if np.iscomplexobj(z):
        return complex(_series(value, complex(z)))
    return float(_series(value, float(z)))


def c_s_mu(mu, x):
    """Deformed cosine/sine pair (c, s) with c - i s = e(-ix; mu), x real.

    A float x gives two floats, an ndarray two arrays, routed per element.
    mu = 0 is exactly (cos, sin).  Otherwise the series, which loses absolute
    accuracy like eps * e^|x|, serves |x| <= 12, and mu > 0 goes through the
    averaging-measure integral for 12 < |x| <= 300; past 300 its rule no
    longer resolves the oscillation and ConvergenceError is raised.  For
    -1/2 < mu < 0 there is no such route: the series serves |x| <= 30 and
    ConvergenceError is raised beyond.  A non-finite x raises ValueError on
    every route.
    Its measured absolute error at x = 29.9 is 4.2e-4 at mu = -0.25 and
    1.8e-3 at mu = -0.45.
    """
    value = as_mu(mu).require_numeric()
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise ValueError("the deformed cosine and sine need a finite argument")
    far = np.abs(xa) > (30.0 if value < 0.0 else 12.0)
    if value < 0.0 and far.any():
        raise ConvergenceError("no accurate large-argument route for -1/2 < mu < 0; keep |x| <= 30")
    if value == 0.0:
        v = np.exp(-1j * xa)
    else:
        v = np.empty(xa.shape, dtype=complex)
        v[~far] = _series(value, -1j * xa[~far])
        if far.any():
            v[far] = _averaging_integral(value, xa[far])
    return (float(v.real), float(-v.imag)) if xa.ndim == 0 else (v.real, -v.imag)


def mehler_rhs(mu, x: float, y: float, z):
    """Closed form of the bilinear eigenfunction sum sum_n phi_n(x) phi_n(y) z^n:

        (1 - z^2)^(-mu - 1/2) / Gamma(mu + 1/2)
        * exp(-(x^2 + y^2)(1 + z^2) / (2 (1 - z^2)))
        * e(2 x y z / (1 - z^2); mu),

    valid for |z| < 1 (z may be complex).
    """
    value = as_mu(mu).require_numeric()
    if abs(z) >= 1:
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
    value = as_mu(mu).require_numeric()
    if not t > 0:
        raise ValueError("the heat kernel needs t > 0")
    pref = (4.0 * t) ** (-value - 0.5) / gamma_half(value)
    return pref * math.exp(-(x * x + y * y) / (4.0 * t)) * e_mu(value, x * y / (2.0 * t))
