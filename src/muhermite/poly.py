"""Dense and sparse polynomial containers shared by the exact and floating layers.

Coefficients are stored in ascending order.  A polynomial is *exact* when
every coefficient is rational and at least one is a fractions.Fraction.  An
exact polynomial is stored as integer numerators over one positive integer
denominator, in lowest terms (the gcd of the numerators and the denominator
is 1), so == and hash compare values by structure.  Each exact operation is
integer arithmetic followed by one gcd reduction: add and subtract
cross-multiply by the two denominators, multiply convolves the numerators,
and scale multiplies by a rational's numerator and denominator.  A Fraction
is made only where a coefficient is read (``coeffs``, ``p[k]``, ``terms``,
``as_dict()``), never inside an operation.

Float, complex and integer polynomials keep their coefficients as they are,
over denominator 1.  Their arithmetic never multiplies or adds a zero
coefficient: a zero is carried through as it is.  An exact polynomial mixed
with an integer one stays exact; mixed with a float or complex one, its
coefficients enter as Fractions, as they would one by one.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = ["DensePoly", "BivariatePoly"]


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _rational(values: list):
    """(integer numerators, common denominator) when the values are exact, else None."""
    kinds = set(map(type, values))
    if Fraction not in kinds or not kinds <= {int, Fraction}:
        return None
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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
    if (q if p.exact else p)._integral():
        return p.nums, p.den, q.nums, q.den, True
    return p._values(), 1, q._values(), 1, False


def _exact_scalar(p, s) -> bool:
    """Whether p.scale(s) stays in integer arithmetic."""
    if not isinstance(s, (int, Fraction)):
        return False
    return p.exact or (isinstance(s, Fraction) and p._integral())


class DensePoly:
    """Univariate dense polynomial, ascending coefficients, trailing zeros trimmed.

    ``nums`` over ``den`` are the coefficients: integer numerators over one
    positive denominator when ``exact``, otherwise the coefficients
    themselves over 1.  Like a Fraction, an instance is never changed after
    it is made.
    """

    __slots__ = ("nums", "den", "exact")

    def __init__(self, coeffs=()):
        coeffs = _trim(coeffs)
        exact = _rational(coeffs)
        if exact is None:
            self.nums, self.den, self.exact = coeffs, 1, False
        else:
            nums, self.den = _reduced(*exact)
            self.nums, self.exact = tuple(nums), True

    @classmethod
    def _of(cls, nums: tuple, den: int, exact: bool) -> "DensePoly":
        p = object.__new__(cls)
        p.nums, p.den, p.exact = nums, den, exact
        return p

    @classmethod
    def _result(cls, out: list, den: int, exact: bool) -> "DensePoly":
        out = _trim(out)
        if not exact:
            return cls._of(out, 1, False)
        nums, den = _reduced(out, den)
        return cls._of(tuple(nums), den, True)

    @staticmethod
    def from_coeffs(seq) -> "DensePoly":
        return DensePoly(seq)

    @staticmethod
    def zero() -> "DensePoly":
        return DensePoly._of((), 1, False)

    @staticmethod
    def monomial(degree: int, coeff=1) -> "DensePoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return DensePoly((0,) * degree + (coeff,))

    @property
    def coeffs(self) -> tuple:
        if not self.exact:
            return self.nums
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def _values(self) -> tuple:
        return self.coeffs

    def _integral(self) -> bool:
        return all(type(c) is int for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def __getitem__(self, k: int):
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den) if self.exact else self.nums[k]
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

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

    def __add__(self, other: "DensePoly") -> "DensePoly":
        return self._sum(other, False)

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        return self._sum(other, True)

    def __neg__(self) -> "DensePoly":
        return DensePoly._of(tuple(-c for c in self.nums), self.den, self.exact)

    def scale(self, s) -> "DensePoly":
        if _exact_scalar(self, s):
            num = s.numerator
            return DensePoly._result([c * num for c in self.nums] if num else [], self.den * s.denominator, True)
        if s == 0:
            return DensePoly.zero()
        return DensePoly._of(tuple(c * s if c else c for c in self._values()), 1, False)

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        a, da, b, db, exact = _operands(self, other)
        if not a or not b:
            return DensePoly.zero()
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
        if self.exact and isinstance(s, (int, Fraction)):
            a, b, d = s.numerator, s.denominator, self.degree
            return DensePoly._result([c * a**k * b ** (d - k) for k, c in enumerate(self.nums)], self.den * b**d, True)
        return DensePoly(c * s**k for k, c in enumerate(self.coeffs))

    def __call__(self, x):
        coeffs = self.coeffs
        if not coeffs:
            return 0 * x if isinstance(x, np.ndarray) else 0
        acc = coeffs[-1]
        if isinstance(x, np.ndarray):
            acc = np.full_like(np.asarray(x, dtype=np.result_type(x, float)), acc)
        for c in reversed(coeffs[:-1]):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn) -> "DensePoly":
        return DensePoly(fn(c) for c in self.coeffs)

    def as_float(self) -> "DensePoly":
        return self.map_coeffs(float)

    def max_abs_diff(self, other: "DensePoly") -> float:
        n = max(len(self.nums), len(other.nums))
        if n == 0:
            return 0.0
        return max(abs(float(self[k]) - float(other[k])) for k in range(n))


class BivariatePoly:
    """Sparse polynomial in two variables; keys are (i, j) for x^i y^j.

    ``nums`` is the sorted tuple of ((i, j), numerator) pairs, no zero
    numerators, over ``den``, stored as DensePoly stores its coefficients.
    """

    __slots__ = ("nums", "den", "exact")

    def __init__(self, terms=()):
        items = sorted((k, v) for k, v in terms if v != 0)
        exact = _rational([v for _, v in items])
        if exact is None:
            self.nums, self.den, self.exact = tuple(items), 1, False
        else:
            nums, self.den = _reduced(*exact)
            self.nums, self.exact = tuple(zip((k for k, _ in items), nums)), True

    @classmethod
    def _of(cls, nums: tuple, den: int, exact: bool) -> "BivariatePoly":
        p = object.__new__(cls)
        p.nums, p.den, p.exact = nums, den, exact
        return p

    @classmethod
    def _result(cls, d: dict, den: int, exact: bool) -> "BivariatePoly":
        if not exact:
            return cls(d.items())
        keys = sorted(k for k, v in d.items() if v)
        nums, den = _reduced([d[k] for k in keys], den)
        return cls._of(tuple(zip(keys, nums)), den, True)

    @staticmethod
    def from_dict(d: dict) -> "BivariatePoly":
        return BivariatePoly(d.items())

    @staticmethod
    def zero() -> "BivariatePoly":
        return BivariatePoly._of((), 1, False)

    @staticmethod
    def term(i: int, j: int, coeff=1) -> "BivariatePoly":
        return BivariatePoly.from_dict({(i, j): coeff})

    @staticmethod
    def from_x_polys(polys: dict) -> "BivariatePoly":
        """The sum over j of polys[j](x) y^j."""
        if polys and all(p.exact for p in polys.values()):
            den = math.lcm(*(p.den for p in polys.values()))
            d = {(i, j): c * (den // p.den) for j, p in polys.items() for i, c in enumerate(p.nums) if c}
            return BivariatePoly._result(d, den, True)
        return BivariatePoly(((i, j), c) for j, p in polys.items() for i, c in enumerate(p.coeffs))

    @staticmethod
    def from_x_poly(p: DensePoly, y_power: int = 0) -> "BivariatePoly":
        """p(x) y^y_power."""
        return BivariatePoly.from_x_polys({y_power: p})

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
        return self.terms

    def _integral(self) -> bool:
        return all(type(c) is int for _, c in self.nums)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"BivariatePoly(terms={self.terms!r})"

    def _sum(self, other: "BivariatePoly", subtract: bool) -> "BivariatePoly":
        a, da, b, db, exact = _operands(self, other)
        ma, mb, den = _common(da, db)
        d = {k: v * ma for k, v in a} if ma != 1 else dict(a)
        for k, v in b if mb == 1 else ((k, v * mb) for k, v in b):
            d[k] = d.get(k, 0) - v if subtract else d.get(k, 0) + v
        return BivariatePoly._result(d, den, exact)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self._sum(other, False)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self._sum(other, True)

    def scale(self, s) -> "BivariatePoly":
        if _exact_scalar(self, s):
            num = s.numerator
            return BivariatePoly._result({k: v * num for k, v in self.nums}, self.den * s.denominator, True)
        return BivariatePoly((k, v * s) for k, v in self._values())

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        a, da, b, db, exact = _operands(self, other)
        d: dict = {}
        for (i, j), x in a:
            for (k, l), y in b:
                key = (i + k, j + l)
                d[key] = d.get(key, 0) + x * y
        return BivariatePoly._result(d, da * db, exact)

    def swap(self) -> "BivariatePoly":
        """Exchange the two variables."""
        return BivariatePoly._of(tuple(sorted(((j, i), c) for (i, j), c in self.nums)), self.den, self.exact)

    def __call__(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.terms)

    def max_abs_diff(self, other: "BivariatePoly") -> float:
        keys = {k for k, _ in self.nums} | {k for k, _ in other.nums}
        a, b = self.as_dict(), other.as_dict()
        if not keys:
            return 0.0
        return max(abs(float(a.get(k, 0)) - float(b.get(k, 0))) for k in keys)


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
