"""Dense and sparse polynomial containers shared by the exact and floating layers.

Coefficients are stored in ascending order.  By ``core._exact`` a polynomial
is *exact* when every coefficient it is given, a zero too, is rational (an int,
a numpy integer or a Fraction; an empty list is exact), and is stored as
integer numerators over one positive denominator, in lowest terms, so == and
hash compare values.  An operation's result, a zero one too, is in its
operands' field, so a float zero stays a float polynomial.
Each exact operation is integer arithmetic followed by one gcd reduction: add and subtract
cross-multiply by the two denominators, multiply convolves the numerators,
and scale multiplies by a rational's numerator and denominator.  A Fraction
is made only where a coefficient is read (``coeffs``, ``p[k]``, ``terms``,
``as_dict()``), never inside an operation.  A sum of many scaled terms,
sum s_i p_i, or sum s_j p_j(x) y^j as a bivariate polynomial, is one call
of the private kernel ``_combination``: every term is brought to the lcm
of the terms' denominators and the integer sum is reduced once, where a
fold of ``scale`` and ``+`` would make two polynomials and two reductions
per term.

Any other polynomial keeps its float and complex coefficients over 1 and
reads a rational one among them as a float; its arithmetic carries a zero
as it is.  The float layer reads an exact polynomial as the floats n / den
(as Fraction arithmetic rounds), so a float or complex operand, scalar or
point gives floats and no Fraction; only rational operands stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

import numpy as np

from .core import _exact

__all__ = ["DensePoly", "BivariatePoly"]


def _trim(coeffs: list) -> list:
    """The list without its trailing zeros, trimmed in place."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _stored(values) -> tuple:
    """(numerators, denominator, exact) of coefficient values, by core._exact: rational values as
    integers over their lcm; otherwise the values, a rational one read as the float n / d."""
    if not _exact(*values):
        return [int(v.numerator) / int(v.denominator) if _exact(v) else v for v in values], 1, False
    den = math.lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (den // int(v.denominator)) for v in values], den, True


def _reduced(nums, den: int) -> tuple:
    """Numerators and denominator divided by their gcd; no numerators gives denominator 1."""
    if den == 1:
        return nums, 1
    g = math.gcd(*nums, den)
    if g == 1:
        return nums, den
    return [n // g for n in nums], den // g


def _common(da: int, db: int) -> tuple:
    """Multipliers that bring denominators da and db to their lcm, and the lcm."""
    if da == db:
        return 1, 1, da
    g = math.gcd(da, db)
    return db // g, da // g, da // g * db


def _operands(p, q) -> tuple:
    """Stored numerators and denominators of p and q, and whether p op q is exact."""
    if p.exact == q.exact:
        return p.nums, p.den, q.nums, q.den, p.exact
    return p._values(), 1, q._values(), 1, False


def _exact_scalar(p, s):
    """s's numerator and denominator as ints where p op s stays in integer arithmetic, else None."""
    return (int(s.numerator), int(s.denominator)) if p.exact and _exact(s) else None


def _combination(terms, ys=None):
    """sum s p over the (s, p) pairs of terms, or with ys, one power of y per pair, sum s p(x) y^j.

    The exact kernel of a linear combination: each weight s is an int or a
    Fraction and each p an exact DensePoly.  Each term's
    numerators are brought to the lcm of the terms' denominators (s's times
    p's) and added as integers, and the sum is reduced by one gcd, so no
    Fraction and no polynomial is made between the terms.  The result is
    exact: a DensePoly, or with ys a BivariatePoly.
    """
    pairs = zip(terms, repeat(0) if ys is None else ys)
    parts = [(s.numerator, s.denominator * p.den, p.nums, j) for (s, p), j in pairs if s and p.nums]
    den = math.lcm(*(d for _, d, _, _ in parts))
    if ys is None:
        out = [0] * max((len(nums) for _, _, nums, _ in parts), default=0)
        for a, d, nums, _ in parts:
            m = a * (den // d)
            for k, c in enumerate(nums):
                if c:
                    out[k] += c * m
        return DensePoly._result(out, den, True)
    acc: dict = {}
    for a, d, nums, j in parts:
        m = a * (den // d)
        for i, c in enumerate(nums):
            if c:
                acc[i, j] = acc.get((i, j), 0) + c * m
    return BivariatePoly._result(acc, den, True)


class _Poly:
    """Storage, ==, hash, +, - and max_abs_diff of both containers; a subclass gives _sum and _keyed."""

    __slots__ = ("nums", "den", "exact")

    @classmethod
    def _of(cls, nums: tuple, den: int, exact: bool):
        p = object.__new__(cls)
        p.nums, p.den, p.exact = nums, den, exact
        return p

    @classmethod
    def zero(cls):
        return cls._of((), 1, True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def max_abs_diff(self, other) -> float:
        a, b = self._keyed(), other._keyed()
        return max((abs(float(a.get(k, 0)) - float(b.get(k, 0))) for k in a.keys() | b.keys()), default=0.0)


class DensePoly(_Poly):
    """Univariate dense polynomial, ascending coefficients, trailing zeros trimmed.

    ``nums`` over ``den`` are the coefficients: integer numerators over one
    positive denominator when ``exact``, otherwise the float or complex
    coefficients themselves over 1.  Like a Fraction, an instance is never changed after
    it is made.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        nums, den, self.exact = _stored(list(coeffs))
        nums, self.den = _reduced(_trim(nums), den)
        self.nums = tuple(nums)

    @classmethod
    def _result(cls, out: list, den: int, exact: bool) -> "DensePoly":
        """The polynomial of a fresh coefficient list, which it trims in place."""
        _trim(out)
        if not exact:
            return cls._of(tuple(out), 1, False)
        nums, den = _reduced(out, den)
        return cls._of(tuple(nums), den, True)

    @staticmethod
    def monomial(degree: int, coeff=1) -> "DensePoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if _exact(coeff) and coeff:
            return DensePoly._of((0,) * degree + (int(coeff.numerator),), int(coeff.denominator), True)
        return DensePoly((0,) * degree + (coeff,))

    @property
    def coeffs(self) -> tuple:
        if not self.exact:
            return self.nums
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _values(self) -> tuple:
        return tuple(n / self.den for n in self.nums) if self.exact else self.nums

    def _keyed(self) -> dict:
        return dict(enumerate(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __getitem__(self, k: int):
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den) if self.exact else self.nums[k]
        return 0

    def __repr__(self) -> str:
        return f"DensePoly(coeffs={self.coeffs!r})"

    def _sum(self, other: "DensePoly", subtract: bool) -> "DensePoly":
        a, da, b, db, exact = _operands(self, other)
        ma, mb, den = _common(da, db)
        out = [c * ma for c in a] if ma != 1 else list(a)
        out += [0] * (len(b) - len(a))
        if mb != 1:
            b = [c * mb for c in b]
        if subtract:
            for k, c in enumerate(b):
                if c:
                    out[k] = out[k] - c if out[k] else -c
        else:
            for k, c in enumerate(b):
                if c:
                    out[k] = out[k] + c if out[k] else c
        return DensePoly._result(out, den, exact)

    def __neg__(self) -> "DensePoly":
        return DensePoly._of(tuple(-c for c in self.nums), self.den, self.exact)

    def scale(self, s) -> "DensePoly":
        ratio = _exact_scalar(self, s)
        if ratio:
            num, den = ratio
            return DensePoly._result([c * num for c in self.nums] if num else [], self.den * den, True)
        if s == 0:
            return DensePoly._of((), 1, False)
        return DensePoly._of(tuple(c * s if c else c for c in self._values()), 1, False)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        a, da, b, db, exact = _operands(self, other)
        out = [0] * (len(a) + len(b) - 1)
        factors = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in factors:
                    out[i + j] += x * y
        return DensePoly._result(out, da * db, exact)

    def shift_up(self, k: int) -> "DensePoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return DensePoly._of((0,) * k + self.nums, self.den, self.exact)

    def div_x(self) -> "DensePoly":
        """Divide by x, which undoes shift_up(1); p(0) must be 0."""
        if self.nums and self.nums[0]:
            raise ValueError("p(0) is not 0, so p(x) / x is not a polynomial")
        return DensePoly._of(self.nums[1:], self.den, self.exact)

    def derivative(self) -> "DensePoly":
        out = [k * c if c else c for k, c in enumerate(self.nums[1:], 1)]
        return DensePoly._result(out, self.den, self.exact)

    def reflect(self) -> "DensePoly":
        """p(x) -> p(-x)."""
        out = list(self.nums)
        out[1::2] = [-c for c in out[1::2]]
        return DensePoly._of(tuple(out), self.den, self.exact)

    def dilate(self, s) -> "DensePoly":
        """p(x) -> p(s x)."""
        if self.is_zero():
            return self
        ratio = _exact_scalar(self, s)
        if ratio:
            (a, b), d = ratio, self.degree
            return DensePoly._result([c * a**k * b ** (d - k) for k, c in enumerate(self.nums)], self.den * b**d, True)
        return DensePoly(c * s**k for k, c in enumerate(self._values()))

    def __call__(self, x):
        """p(x); exact, a Fraction, only for a rational x, else read as floats (see _values)."""
        exact = _exact(x)
        coeffs = self.coeffs if exact else self._values()
        if not coeffs:
            return Fraction(0) if exact else 0.0 * x
        acc = coeffs[-1]
        if isinstance(x, np.ndarray):
            acc = np.full_like(x, acc, dtype=np.result_type(x, float, acc))
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc


class BivariatePoly(_Poly):
    """Sparse polynomial in two variables; keys are (i, j) for x^i y^j.

    ``nums`` is the sorted tuple of ((i, j), numerator) pairs, no zero
    numerators, over ``den``, stored as DensePoly stores its coefficients.
    """

    __slots__ = ()

    def __init__(self, terms=()):
        pairs = list(terms)
        nums, den, self.exact = _stored([v for _, v in pairs])
        items = sorted((k, n) for (k, _), n in zip(pairs, nums) if n != 0)
        nums, self.den = _reduced([n for _, n in items], den)
        self.nums = tuple(zip((k for k, _ in items), nums))

    @classmethod
    def _result(cls, d: dict, den: int, exact: bool) -> "BivariatePoly":
        keys = sorted(k for k, v in d.items() if v)
        nums, den = _reduced([d[k] for k in keys], den)
        return cls._of(tuple(zip(keys, nums)), den, exact)

    @staticmethod
    def homogenized(p: DensePoly, n: int) -> "BivariatePoly":
        """p(x / y) y^n, for n at least p's degree: x^m becomes x^m y^(n - m)."""
        if p.degree > n:
            raise ValueError(f"homogenizing degree {n} is below the degree {p.degree}")
        pairs = tuple(((i, n - i), c) for i, c in enumerate(p.nums) if c)
        return BivariatePoly._of(pairs, p.den, True) if p.exact else BivariatePoly(pairs)

    @property
    def terms(self) -> tuple:
        if not self.exact:
            return self.nums
        den = self.den
        return tuple((k, Fraction(n, den)) for k, n in self.nums)

    def _values(self) -> tuple:
        return tuple((k, n / self.den) for k, n in self.nums) if self.exact else self.nums

    def as_dict(self) -> dict:
        return dict(self.terms)

    _keyed = as_dict

    def __repr__(self) -> str:
        return f"BivariatePoly(terms={self.terms!r})"

    def _sum(self, other: "BivariatePoly", subtract: bool) -> "BivariatePoly":
        a, da, b, db, exact = _operands(self, other)
        ma, mb, den = _common(da, db)
        d = {k: v * ma for k, v in a} if ma != 1 else dict(a)
        for k, v in b if mb == 1 else ((k, v * mb) for k, v in b):
            d[k] = d.get(k, 0) - v if subtract else d.get(k, 0) + v
        return BivariatePoly._result(d, den, exact)

    def scale(self, s) -> "BivariatePoly":
        ratio = _exact_scalar(self, s)
        if ratio:
            num, den = ratio
            return BivariatePoly._result({k: v * num for k, v in self.nums}, self.den * den, True)
        return BivariatePoly._result({k: v * s for k, v in self._values()}, 1, False)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        a, da, b, db, exact = _operands(self, other)
        d: dict = {}
        for (i, j), x in a:
            for (k, l), y in b:
                key = (i + k, j + l)
                d[key] = d.get(key, 0) + x * y
        return BivariatePoly._result(d, da * db, exact)

    def __call__(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in (self.terms if _exact(x, y) else self._values()))


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
