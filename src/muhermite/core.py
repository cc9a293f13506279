"""Deformation parameter and the generalized factorial.

Everything in this package is parametrized by a real deformation
parameter mu.  The reference measure on the line is |x|^(2 mu) e^(-x^2) dx,
which requires mu > -1/2 for integrability.  The combinatorial backbone is
the generalized factorial

    gamma_mu(0) = 1,
    gamma_mu(n + 1) = (n + 1 + 2 mu theta(n + 1)) gamma_mu(n),

where theta(n) is 1 for odd n and 0 for even n.  At mu = 0 this collapses
to n!.  The recursion denominators vanish exactly when 2 mu is a negative
odd integer, so exact-rational work is allowed for any rational mu away
from those poles, while floating-point work keeps the mu > -1/2 guard.

mu is a plain number, and its type picks the layer: a rational mu (an int,
a numpy integer or a Fraction) makes polynomial work exact, in Fractions,
and a float anywhere in the inputs makes it float64 (``_exact``).  ``_mu``
and ``_rational`` are the one check of mu in each layer.

gamma_mu grows like n! 2^n, overflowing float64 near n ~ 170; callers that
need large n use the log-scale accessor instead.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "GammaMuTable",
    "theta",
    "gamma_mu",
    "gamma_mu_exact",
    "gamma_exact_table",
    "gamma_table",
    "log_gamma_mu",
    "mu_binomial",
    "gamma_half",
    "beta_function",
]


def _count(n, what: str, low: int = 0) -> int:
    """n as an int, the one check of every degree, n_max and size: TypeError unless n is
    a Python or numpy integer (a bool is not one), ValueError below ``low``."""
    if type(n) is not int:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"{what} must be an integer, got {n!r}")
        n = int(n)
    if n < low:
        raise ValueError(f"{what} must be " + (f">= {low}" if low else "nonnegative") + f", got {n}")
    return n


def _real(v, what: str, low: float = -math.inf, closed: bool = True) -> float:
    """v as a float, the one check of every real parameter: TypeError unless v is a real number
    (a bool is not), ValueError if v is nan or inf, below ``low``, or at it unless ``closed``."""
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise TypeError(f"{what} must be a real number, got {v!r}")
        v = float(v)
    if not (math.isfinite(v) and (v > low or closed and v == low)):
        bound = f" and {'>=' if closed else '>'} {low:g}" if low > -math.inf else ""
        raise ValueError(f"{what} must be finite{bound}, got {v!r}")
    return v


def _mu(mu, low: float = -0.5) -> float:
    """mu as a float, the one check of mu in the float layer: TypeError unless mu is a real
    number (a bool is not), ValueError if it is nan or inf or does not exceed ``low`` (-1/2,
    or 0 where mu must be positive).  A Fraction is rounded once, to its float spelling's bits."""
    if type(mu) is not float:
        if isinstance(mu, bool) or not isinstance(mu, numbers.Real):
            raise TypeError(f"mu must be a real number, got {mu!r}")
        mu = float(mu)
    if not low < mu < math.inf:
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu!r}")
        raise ValueError("mu must be positive" if low == 0 else "mu must exceed -1/2")
    return mu


_RATIONALS = (int, np.integer, Fraction)


def _exact(*values) -> bool:
    """The package's one rule of the field: work is exact, in Fractions, when every value
    (mu first) is rational, an int, a numpy integer or a Fraction; a float anywhere gives floats."""
    return all(isinstance(v, _RATIONALS) for v in values)


def _fraction(v) -> Fraction:
    """A rational v (see _exact) as a Fraction of Python ints, whatever v's integer type."""
    return Fraction(int(v.numerator), int(v.denominator))


def _rational(mu) -> Fraction:
    """mu as a Fraction, the one check of mu in the exact layer: TypeError unless mu is a real
    number (a bool is not), ValueError if it is not rational or is a pole of the factorial
    recursion, where 2 mu is a negative odd integer: reduced, denominator 2 and numerator < 0."""
    if type(mu) is not Fraction or type(mu.numerator) is not int:
        if isinstance(mu, bool) or not isinstance(mu, numbers.Real):
            raise TypeError(f"mu must be a rational number, got {mu!r}")
        if not isinstance(mu, _RATIONALS):
            raise ValueError(f"exact arithmetic needs a rational mu (an int or a Fraction), got {mu!r}")
        mu = _fraction(mu)
    if mu.denominator == 2 and mu.numerator < 0:
        raise ValueError(f"mu = {mu} is a pole of the factorial recursion")
    return mu


def _finite_exp(power, what: str):
    """e^power, by np.exp for a complex power and math.exp for a real one; past the
    float range, OverflowError naming ``what`` (not math's bare "math range error")."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = np.exp(power) if isinstance(power, complex) else math.exp(power)
        except OverflowError:
            out = math.inf
    if not np.isfinite(out):
        raise OverflowError(f"{what} is e^{power:.6g}, past the float range")
    return out


def theta(n: int) -> int:
    """Parity indicator: 1 for odd n, 0 for even n."""
    return _count(n, "theta's index") & 1


# Bound for the caches keyed by mu: a sweep over fresh mu must not grow
# memory without limit.  A full ``muhermite verify`` run holds at most 21
# keys in those keyed by mu and a size, 57 in the scaled-rule plan (keyed
# by sigma too), and fills the e_mu term-count plan (keyed by max |z| too).
MU_CACHE_SIZE = 64


# Byte budget of the array memo: it holds the f-independent matrices of a
# few dozen quadrature calls (about 0.68 MB for the benchmark's warm operator
# bundle) and adds at most this much where every key misses.
_ARRAY_MEMO_BYTES = 1 << 20

_MemoInfo = namedtuple("MemoInfo", "hits misses nbytes entries")


def _memo_key(arg):
    # Arrays by content; equal bytes in another shape or dtype are another key.
    if isinstance(arg, np.ndarray):
        return (arg.dtype.str, arg.shape, arg.tobytes())
    return arg


class _ArrayMemo:
    """LRU memo of read-only arrays built by pure functions, bounded in bytes.

    ``memo(key, build, *args)`` returns ``build(*args)``, built once per
    hashable ``key``, which must pin ``build(*args)`` at least as finely as
    the arguments do: a plan's key in place of the arrays it fixes, or an
    array's ``_memo_key`` (dtype, shape and bytes) in place of the array.  The
    result is made read-only.  Least recently used entries are evicted until
    the stored arrays total at most ``budget`` bytes, and one larger than the
    whole budget is returned without being stored.  A build that raises
    stores nothing.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self._entries = OrderedDict()
            self._nbytes = self._hits = self._misses = 0

    def info(self) -> "_MemoInfo":
        with self._lock:
            return _MemoInfo(self._hits, self._misses, self._nbytes, len(self._entries))

    def __call__(self, key, build, *args) -> np.ndarray:
        key = (build, key)
        with self._lock:
            out = self._entries.get(key)
            if out is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return out
            self._misses += 1
        out = build(*args)
        out.setflags(write=False)
        if out.nbytes <= self.budget:
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = out
                    self._nbytes += out.nbytes
                    while self._nbytes > self.budget:
                        self._nbytes -= self._entries.popitem(last=False)[1].nbytes
        return out


_array_memo = _ArrayMemo(_ARRAY_MEMO_BYTES)


def _as_grid(*grids):
    """(each grid as a flat float64 array, ..., shaped): how every float function reads its real points.

    ``xa, shaped = _as_grid(x)`` reads one grid, ``xa, ya, shaped = _as_grid(x, y)``
    the two points of a kernel, broadcast together.  A grid may be a scalar
    (Python, numpy or 0-d) or an array or list of any shape; a complex grid
    raises TypeError and a non-finite entry ValueError, each naming the grid
    (x, then y).  ``shaped(vals)`` turns the flat results back: a Python
    float or complex when every grid is a scalar, otherwise an array in
    their broadcast shape.
    """
    flat = []
    for name, g in zip("xy", grids):
        a = np.asarray(g)
        if a.dtype.kind == "c":  # float64 would drop the imaginary part with only a warning
            raise TypeError(f"{name} must be real, got {a.dtype} values")
        a = np.asarray(a, dtype=float)
        if np.count_nonzero(np.isfinite(a)) < a.size:  # a third of .all()'s cost on a short grid
            raise ValueError(f"{name} must be finite; nan and inf lie past every route's reach")
        flat.append(a)
    if len(flat) > 1:
        flat = np.broadcast_arrays(*flat)
    shape = flat[0].shape

    def shaped(vals):
        if shape:
            return vals.reshape(shape)
        return complex(vals[0]) if np.iscomplexobj(vals) else float(vals[0])

    return (*[a.ravel() for a in flat], shaped)


@dataclass(frozen=True)
class GammaMuTable:
    """Cached generalized factorial values gamma_mu(0..n) for one mu.

    ``values[n]`` overflows to inf once n is large enough (~170); the
    parallel ``log_values`` stay finite and are the supported accessor
    in that regime.  ``steps[k - 1]`` is the recursion step gamma_step(mu, k),
    k = 1..n, which the deformed exponential's series divides by.
    """

    mu: float
    values: np.ndarray
    log_values: np.ndarray
    steps: np.ndarray


def gamma_step(mu, k):
    """gamma_mu(k) / gamma_mu(k - 1) = k + 2 mu theta(k), for k >= 1.

    ``k`` may be an int or an integer ndarray; ``mu`` a float or, for the
    monomial rule of the derivative, a Fraction.  Every computing route takes
    the recursion coefficient from here.  The exact factorial and the
    expected sides of the checks write it out themselves, so that they stay
    independent of this function.
    """
    return k + 2 * mu * (k % 2)


def _bucket(n: int) -> int:
    # Power-of-two table sizes, so repeated queries share one table.
    size = 64
    while size < n:
        size *= 2
    return size


@lru_cache(maxsize=MU_CACHE_SIZE)
def _gamma_table_cached(mu: float, size: int) -> GammaMuTable:
    steps = gamma_step(mu, np.arange(1, size + 1))
    with np.errstate(over="ignore"):
        values = np.cumprod(np.concatenate(([1.0], steps)))
    terms = np.concatenate(([0.0], np.log(steps)))
    logs = np.cumsum(terms)
    below = np.concatenate(([0.0], logs[:-1]))  # add back each step's rounding error (TwoSum)
    added = logs - below
    logs = logs + np.cumsum((below - (logs - added)) + (terms - added))
    for row in (values, logs, steps):
        row.setflags(write=False)
    return GammaMuTable(mu=mu, values=values, log_values=logs, steps=steps)


def gamma_table(mu, n_max: int) -> GammaMuTable:
    return _gamma_table_cached(_mu(mu), _bucket(n_max))


def gamma_mu(mu, n: int) -> float:
    """Generalized factorial gamma_mu(n), floating point.

    Raises OverflowError past the float64 range (n ~ 170); log_gamma_mu
    stays finite there.
    """
    n = _count(n, "gamma_mu's n")
    value = float(gamma_table(mu, n).values[n])
    if math.isinf(value):
        raise OverflowError(f"gamma_mu({_mu(mu):g}, {n}) overflows float64; use log_gamma_mu")
    return value


def log_gamma_mu(mu, n: int) -> float:
    """log gamma_mu(n); finite far beyond the overflow point of gamma_mu."""
    n = _count(n, "log_gamma_mu's n")
    return float(gamma_table(mu, n).log_values[n])


@lru_cache(maxsize=MU_CACHE_SIZE)
def _gamma_exact_table(mu: Fraction, size: int) -> tuple:
    out = [Fraction(1)]
    for k in range(size):
        out.append(out[-1] * (k + 1 + 2 * mu * theta(k + 1)))
    return tuple(out)


def gamma_exact_table(mu, n_max: int) -> tuple:
    """gamma_mu(0), gamma_mu(1), ... past n_max as exact rationals; mu rational."""
    return _gamma_exact_table(_rational(mu), _bucket(n_max))


def gamma_mu_exact(mu, n: int) -> Fraction:
    """Generalized factorial as an exact rational; mu must be rational."""
    n = _count(n, "gamma_mu_exact's n")
    return gamma_exact_table(mu, n)[n]


def mu_binomial(mu, n: int, j: int) -> float:
    """Deformed binomial coefficient gamma_mu(n) / (gamma_mu(j) gamma_mu(n-j))."""
    n, j = _count(n, "mu_binomial's n"), _count(j, "mu_binomial's j")
    if j > n:
        raise ValueError("mu_binomial needs 0 <= j <= n")
    table = gamma_table(mu, n)
    # Log-space ratio: safe well past the overflow point of the raw values.
    log_value = table.log_values[n] - table.log_values[j] - table.log_values[n - j]
    return _finite_exp(log_value, f"mu_binomial({table.mu:g}, {n}, {j})")


def gamma_half(mu) -> float:
    """Gamma(mu + 1/2), the total mass of |x|^(2 mu) e^(-x^2) dx; OverflowError past mu = 171.1."""
    value = _mu(mu)
    try:
        return math.gamma(value + 0.5)
    except OverflowError:
        raise OverflowError(f"Gamma(mu + 1/2) at mu = {value:g} is past the float range, mu <= 171.1") from None


def beta_function(a: float, b: float) -> float:
    """Euler Beta via log-Gamma; a, b > 0."""
    a, b = _real(a, "beta_function's a", 0.0, False), _real(b, "beta_function's b", 0.0, False)
    return _finite_exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b), f"B({a:g}, {b:g})")
