"""Dense polynomial containers shared by the exact and floating layers.

Coefficients are stored in ascending order and are deliberately
field-generic: the same container runs over float, complex, or
fractions.Fraction, which is how one implementation serves both the
quadrature layer and the exact rational identity verifier.

DensePoly arithmetic never multiplies or adds a zero coefficient: a zero
is carried through as it is.  The values are equal in every field, and
the sparse Fraction polynomials of the exact layer (monomials, odd or even
parts) cost only their nonzero terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["DensePoly", "BivariatePoly"]


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class DensePoly:
    """Univariate dense polynomial, ascending coefficients, trailing zeros trimmed."""

    coeffs: tuple

    @staticmethod
    def from_coeffs(seq) -> "DensePoly":
        return DensePoly(_trim(seq))

    @staticmethod
    def zero() -> "DensePoly":
        return DensePoly(())

    @staticmethod
    def monomial(degree: int, coeff=1) -> "DensePoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if coeff == 0:
            return DensePoly(())
        return DensePoly((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other: "DensePoly") -> "DensePoly":
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            if c:
                out[k] = out[k] + c if out[k] else c
        return DensePoly(_trim(out))

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            if c:
                out[k] = out[k] - c if out[k] else -c
        return DensePoly(_trim(out))

    def __neg__(self) -> "DensePoly":
        return DensePoly(tuple(-c for c in self.coeffs))

    def scale(self, s) -> "DensePoly":
        if s == 0:
            return DensePoly(())
        return DensePoly(tuple(c * s if c else c for c in self.coeffs))

    def __mul__(self, other: "DensePoly") -> "DensePoly":
        if self.is_zero() or other.is_zero():
            return DensePoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        factors = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in factors:
                    out[i + j] += a * b
        return DensePoly(_trim(out))

    def shift_up(self, k: int) -> "DensePoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return DensePoly((0,) * k + self.coeffs)

    def derivative(self) -> "DensePoly":
        return DensePoly(_trim(k * c if c else c for k, c in enumerate(self.coeffs) if k > 0))

    def reflect(self) -> "DensePoly":
        """p(x) -> p(-x)."""
        return DensePoly(tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    def __call__(self, x):
        if not self.coeffs:
            return 0 * x if isinstance(x, np.ndarray) else 0
        acc = self.coeffs[-1]
        if isinstance(x, np.ndarray):
            acc = np.full_like(np.asarray(x, dtype=np.result_type(x, float)), acc)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn) -> "DensePoly":
        return DensePoly(_trim(fn(c) for c in self.coeffs))

    def as_float(self) -> "DensePoly":
        return self.map_coeffs(float)

    def max_abs_diff(self, other: "DensePoly") -> float:
        n = max(len(self.coeffs), len(other.coeffs))
        if n == 0:
            return 0.0
        return max(abs(float(self[k]) - float(other[k])) for k in range(n))


@dataclass(frozen=True)
class BivariatePoly:
    """Sparse polynomial in two variables; keys are (i, j) for x^i y^j."""

    terms: tuple  # sorted tuple of ((i, j), coeff) pairs, no zero coeffs

    @staticmethod
    def from_dict(d: dict) -> "BivariatePoly":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return BivariatePoly(items)

    @staticmethod
    def term(i: int, j: int, coeff=1) -> "BivariatePoly":
        return BivariatePoly.from_dict({(i, j): coeff})

    @staticmethod
    def from_x_poly(p: DensePoly, y_power: int = 0) -> "BivariatePoly":
        return BivariatePoly.from_dict(
            {(i, y_power): c for i, c in enumerate(p.coeffs) if c != 0}
        )

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, 0) + v
        return BivariatePoly.from_dict(d)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, 0) - v
        return BivariatePoly.from_dict(d)

    def scale(self, s) -> "BivariatePoly":
        return BivariatePoly.from_dict({k: v * s for k, v in self.terms})

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        d: dict = {}
        for (i, j), a in self.terms:
            for (k, l), b in other.terms:
                key = (i + k, j + l)
                d[key] = d.get(key, 0) + a * b
        return BivariatePoly.from_dict(d)

    def swap(self) -> "BivariatePoly":
        """Exchange the two variables."""
        return BivariatePoly.from_dict({(j, i): c for (i, j), c in self.terms})

    def __call__(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.terms)

    def max_abs_diff(self, other: "BivariatePoly") -> float:
        keys = {k for k, _ in self.terms} | {k for k, _ in other.terms}
        a, b = self.as_dict(), other.as_dict()
        if not keys:
            return 0.0
        return max(abs(float(a.get(k, 0)) - float(b.get(k, 0))) for k in keys)


def fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
