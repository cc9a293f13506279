import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muhermite.poly import BivariatePoly, DensePoly, fraction_str


def test_trailing_zeros_are_trimmed():
    p = DensePoly.from_coeffs((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert p.coeffs == (1.0, 2.0)


def test_zero_poly():
    z = DensePoly.zero()
    assert z.is_zero()
    assert z.degree == -1
    assert not DensePoly.monomial(2).is_zero()


def test_arithmetic_and_indexing():
    p = DensePoly.from_coeffs((1, -2, 3))
    q = DensePoly.monomial(1, 5)
    s = p + q
    assert s.coeffs == (1, 3, 3)
    assert (s - p).coeffs == (0, 5)
    assert p[2] == 3 and p[7] == 0
    assert p.scale(2).coeffs == (2, -4, 6)


def test_shift_derivative_reflect():
    p = DensePoly.from_coeffs((2, 0, 1))  # 2 + x^2
    assert p.shift_up(2).coeffs == (0, 0, 2, 0, 1)
    assert p.derivative().coeffs == (0, 2)
    q = DensePoly.from_coeffs((0, 1, 0, 4))
    assert q.reflect().coeffs == (0, -1, 0, -4)


def test_horner_matches_numpy_polyval():
    rng = np.random.default_rng(42)
    c = rng.normal(size=7)
    p = DensePoly.from_coeffs(tuple(c))
    x = rng.normal(size=11)
    assert_allclose(p(x), np.polynomial.polynomial.polyval(x, c), rtol=1e-12)


def test_call_preserves_scalar_and_array():
    p = DensePoly.from_coeffs((1, 1))
    assert np.isscalar(p(2.0))
    assert p(np.array([0.0, 1.0])).shape == (2,)


def test_exact_coefficients_survive_arithmetic():
    p = DensePoly.from_coeffs((Fraction(1, 3), Fraction(2)))
    q = p + p
    assert q.coeffs == (Fraction(2, 3), Fraction(4))
    assert isinstance(q.as_float().coeffs[0], float)
    assert p.map_coeffs(lambda c: 3 * c).coeffs == (1, 6)


def test_max_abs_diff():
    p = DensePoly.from_coeffs((1.0, 2.0))
    q = DensePoly.from_coeffs((1.0, 2.0 + 1e-9, 5.0))
    assert p.max_abs_diff(q) == pytest.approx(5.0)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6))
def test_derivative_drops_degree(cs):
    p = DensePoly.from_coeffs(tuple(cs))
    if p.degree >= 1:
        assert p.derivative().degree == p.degree - 1
    else:
        assert p.derivative().is_zero()


# About half the drawn coefficients are zero, the way the exact layer's
# monomials and odd or even parts are.
_sparse_fractions = st.lists(
    st.one_of(
        st.sampled_from([Fraction(0), 0]),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
    ),
    max_size=9,
)


def _no_trailing_zero(p):
    return not p.coeffs or p.coeffs[-1] != 0


def _values(cs) -> tuple:
    """The reference: coefficients as Fractions, trailing zeros trimmed."""
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _canonical(p) -> bool:
    # exact: integer numerators over a positive denominator, in lowest terms
    nums = [v for _, v in p.nums] if isinstance(p, BivariatePoly) else p.nums
    return not p.exact or (p.den > 0 and math.gcd(*nums, p.den) == 1)


@given(_sparse_fractions, _sparse_fractions, st.fractions(max_denominator=9), st.fractions(max_denominator=9))
def test_zero_skipping_arithmetic_is_exact(a, b, s, r):
    p, q = DensePoly.from_coeffs(a), DensePoly.from_coeffs(b)
    for got, want in (
        (p + q, p(r) + q(r)),
        (p - q, p(r) - q(r)),
        (p * q, p(r) * q(r)),
        (p.scale(s), s * p(r)),
    ):
        assert got(r) == want
        assert _no_trailing_zero(got)
    _check_against_fraction_arithmetic(p, q, a, b, s)
    _check_canonical_form(p, s)
    _check_bivariate_against_fraction_arithmetic(a, b, s)


def _check_against_fraction_arithmetic(p, q, a, b, s):
    # every exact operation gives the coefficients Fraction arithmetic gives
    fa, fb = list(_values(a)), list(_values(b))
    n = max(len(fa), len(fb))
    pa, pb = fa + [Fraction(0)] * (n - len(fa)), fb + [Fraction(0)] * (n - len(fb))
    prod = [Fraction(0)] * max(len(fa) + len(fb) - 1, 0)
    for i, x in enumerate(fa):
        for j, y in enumerate(fb):
            prod[i + j] += x * y
    signed = [x if k % 2 == 0 else -x for k, x in enumerate(fa)]
    for got, want in (
        (p + q, [x + y for x, y in zip(pa, pb)]),
        (p - q, [x - y for x, y in zip(pa, pb)]),
        (p * q, prod),
        (p.scale(s), [s * x for x in fa]),
        (p.derivative(), [k * x for k, x in enumerate(fa)][1:]),
        (p.reflect(), signed),
        (p.shift_up(2), [0, 0] + fa),
        ((p - p.reflect()).div_x(), [x - y for x, y in zip(fa, signed)][1:]),
        (p.dilate(s), [x * s**k for k, x in enumerate(fa)]),
    ):
        assert got.coeffs == _values(want)
        assert _canonical(got)
    stacked = {(i, 0): x for i, x in enumerate(fa)} | {(i, 2): y for i, y in enumerate(fb)}
    assert BivariatePoly.from_x_polys({0: p, 2: q}).as_dict() == {k: v for k, v in stacked.items() if v}


def _check_canonical_form(p, s):
    # equal values reached by other routes are equal objects with equal hashes
    assert _canonical(p)
    same = [(p + p.shift_up(1)) - p.shift_up(1), DensePoly.from_coeffs(p.coeffs), p.shift_up(1).div_x()]
    if s:
        same.append(p.scale(s).scale(1 / s))
    for other in same:
        assert other == p
        assert hash(other) == hash(p)
    # a change far below every coefficient's size is still a change
    broken = p + DensePoly.monomial(0, Fraction(1, 10**9))
    assert broken != p
    assert broken.max_abs_diff(p) > 0


def _check_bivariate_against_fraction_arithmetic(a, b, s):
    # the drawn lists, laid out on a 3 x 3 grid of (i, j) keys
    da = {(k % 3, k // 3): Fraction(v) for k, v in enumerate(a) if v}
    db = {(k % 3, k // 3): Fraction(v) for k, v in enumerate(b) if v}
    p, q = BivariatePoly.from_dict(da), BivariatePoly.from_dict(db)
    keys = set(da) | set(db)
    prod: dict = {}
    for (i, j), x in da.items():
        for (k, l), y in db.items():
            prod[(i + k, j + l)] = prod.get((i + k, j + l), 0) + x * y
    for got, want in (
        (p + q, {k: da.get(k, 0) + db.get(k, 0) for k in keys}),
        (p - q, {k: da.get(k, 0) - db.get(k, 0) for k in keys}),
        (p * q, prod),
        (p.scale(s), {k: s * v for k, v in da.items()}),
        (p.swap(), {(j, i): v for (i, j), v in da.items()}),
    ):
        assert got.as_dict() == {k: v for k, v in want.items() if v != 0}
        assert _canonical(got)
        assert got == BivariatePoly.from_dict(got.as_dict())


def test_div_x_needs_a_zero_constant_term():
    with pytest.raises(ValueError, match="not a polynomial"):
        DensePoly.from_coeffs((Fraction(1, 3), Fraction(1))).div_x()
    assert DensePoly.zero().div_x().is_zero()


def test_homogenized_puts_every_term_in_degree_n():
    p = DensePoly.from_coeffs((Fraction(1, 2), 0, Fraction(-3, 4)))
    got = BivariatePoly.homogenized(p, 5)
    assert got.as_dict() == {(0, 5): Fraction(1, 2), (2, 3): Fraction(-3, 4)}
    with pytest.raises(ValueError, match="below the degree"):
        BivariatePoly.homogenized(p, 1)


def test_float_arithmetic_matches_plain_formulas():
    # The sums and products every coefficient, zero or not, gives.
    p = DensePoly.from_coeffs((0.5, 0.0, -1.25, 0.0, 3.0e-7))
    q = DensePoly.from_coeffs((0.0, 2.0, 0.0, -0.0, 1.5, 0.0, -2.0))
    a, b = p.coeffs, q.coeffs
    n = max(len(a), len(b))
    prod = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    assert (p + q).coeffs == tuple(p[k] + q[k] for k in range(n))
    assert (p - q).coeffs == tuple(p[k] - q[k] for k in range(n))
    assert (q - p).coeffs == tuple(q[k] - p[k] for k in range(n))
    assert (p * q).coeffs == tuple(prod)
    assert p.scale(-0.3).coeffs == tuple(x * -0.3 for x in a)
    assert (q - q).is_zero()


class TestBivariatePoly:
    def test_term_and_eval(self):
        p = BivariatePoly.from_dict({(1, 2): 3, (0, 0): 1})
        assert p(2.0, 1.0) == pytest.approx(7.0)
        assert BivariatePoly.term(1, 2, 3)(2.0, 1.0) == pytest.approx(6.0)

    def test_swap(self):
        p = BivariatePoly.from_dict({(2, 0): 1, (0, 1): 4})
        q = p.swap()
        assert q(1.0, 3.0) == pytest.approx(p(3.0, 1.0))

    def test_from_x_poly_and_diff(self):
        p = BivariatePoly.from_x_poly(DensePoly.from_coeffs((1, 0, 2)))
        assert p(3.0, 100.0) == pytest.approx(19.0)
        assert p.max_abs_diff(p.scale(1)) == 0


def test_fraction_str():
    assert fraction_str(Fraction(3, 1)) == "3"
    assert fraction_str(Fraction(-110, 9)) == "-110/9"
    assert fraction_str(5) == "5"
