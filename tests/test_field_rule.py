"""The polynomial layer keeps core's one field rule (core._exact).

Rational inputs only (ints, numpy integers, Fractions) give an exact
result; a float or complex anywhere gives float or complex coefficients,
apart from zeros carried as they are, and an evaluation on a grid is a
float64 or complex array.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muhermite import BivariatePoly, DensePoly, dunkl_apply, dunkl_definition, translate_poly

_rationals = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9).map(np.int64),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
_inexact = st.one_of(
    st.floats(min_value=-5, max_value=5),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
)
_values = st.one_of(_rationals, _inexact)
_coeffs = st.lists(_values, max_size=6)
_mus = st.sampled_from([0, np.int64(2), Fraction(1, 3), Fraction(-1, 4), Fraction(5, 2), 0.0, 0.5, 1 / 3, -0.25, 2.5])
_GRID = np.linspace(-1.0, 1.0, 5)


def _rational(*values) -> bool:
    return all(isinstance(v, (int, np.integer, Fraction)) for v in values)


def _in_field(p: DensePoly, exact: bool) -> None:
    if exact:
        assert p.exact and all(type(n) is int for n in p.nums) and type(p.den) is int, p
        assert all(type(c) is Fraction for c in p.coeffs), p
    else:
        assert all(isinstance(c, (float, complex)) or c == 0 for c in p.coeffs), p


@settings(max_examples=300, deadline=None)
@given(_coeffs, _coeffs, _values, _mus, _values, _values)
def test_rational_inputs_give_exact_results_and_a_float_anywhere_gives_floats(a, b, s, mu, y, x):
    p, q = DensePoly(a), DensePoly(b)
    ra, rb = _rational(*a), _rational(*b)
    for got, exact in (
        (p, ra),
        (p + q, ra and rb),
        (p - q, ra and rb),
        (p * q, ra and rb),
        (p.scale(s), ra and _rational(s)),
        (p.derivative(), ra),
        (p.reflect(), ra),
        (p.dilate(s), ra and _rational(s)),
        (dunkl_apply(mu, p), ra and _rational(mu)),
        (dunkl_definition(mu, p), ra and _rational(mu)),
        (translate_poly(mu, p, y), ra and _rational(mu, y)),
    ):
        _in_field(got, exact)
    value = p(x)
    if ra and _rational(x):
        assert type(value) is Fraction
    else:
        assert isinstance(value, (float, complex)) or value == 0
    assert p(_GRID).dtype in (np.float64, np.complex128)
    if ra and _rational(mu):
        assert dunkl_apply(mu, p) == dunkl_definition(mu, p)


# Each of these failed before the polynomial layer read the field by core._exact.


def test_translate_keeps_an_integer_polynomial_exact():
    got = translate_poly(Fraction(1, 3), DensePoly([1, 2, 3]), 2)
    assert got.coeffs == (17, Fraction(46, 5), 3)
    _in_field(got, True)


def test_the_definition_keeps_an_integer_polynomial_exact():
    got = dunkl_definition(Fraction(1, 3), DensePoly([1, 2, 3]))
    assert got.coeffs == (Fraction(10, 3), 6)
    _in_field(got, True)


def test_translate_under_a_float_mu_gives_floats():
    got = translate_poly(0.5, DensePoly.monomial(3, Fraction(1)), 0.4)
    assert got.coeffs == pytest.approx((0.064, 0.32, 0.8, 1.0), rel=1e-15)
    assert all(type(c) is float for c in got.coeffs), got


def test_the_definition_under_a_float_mu_gives_floats():
    got = dunkl_definition(0.5, DensePoly.monomial(3, Fraction(1)))
    assert got.coeffs == (0.0, 0.0, 4.0)
    assert all(type(c) is float for c in got.coeffs), got


def test_an_exact_polynomial_mixed_with_a_float_one_holds_no_fraction():
    got = DensePoly([Fraction(1, 3), 0, 2]) + DensePoly([0.5])
    assert got.coeffs == (1 / 3 + 0.5, 0.0, 2.0)
    assert not any(isinstance(c, Fraction) for c in got.coeffs), got


def test_an_exact_polynomial_on_a_grid_is_float64():
    got = DensePoly([Fraction(1, 3), 2])(np.linspace(0, 1, 3))
    assert got.dtype == np.float64
    assert got.tolist() == [1 / 3, 1 / 3 + 1.0, 1 / 3 + 2.0]


def test_numpy_integer_coefficients_are_exact():
    p = DensePoly([np.int64(1), np.int64(2)])
    assert p.exact and p == DensePoly([1, 2]) and hash(p) == hash(DensePoly([1, 2]))
    assert all(type(n) is int for n in p.nums)
    assert DensePoly([1, 2, 3])(2) == 17 and type(DensePoly([1, 2, 3])(2)) is Fraction


def test_translate_reads_a_constant_as_floats_under_a_float_mu():
    got = translate_poly(0.5, DensePoly([Fraction(1, 3)]), 0.4)
    assert got.coeffs == (1 / 3,)
    assert type(got.coeffs[0]) is float


# Each of these failed while a zero was trimmed or dropped before the field was read.


def test_a_trailing_float_zero_makes_the_polynomial_float():
    for coeffs, want in (([1, 0.0], (1.0,)), ([Fraction(1, 3), 2, -0.0], (1 / 3, 2.0)), ([0.0], ())):
        p = DensePoly(coeffs)
        assert not p.exact and p.coeffs == want and all(type(c) is float for c in p.coeffs), p
    assert DensePoly([1, 0.0]) == DensePoly([1.0])
    assert DensePoly([1, 0]).exact and DensePoly([]).exact


def test_a_float_zero_term_makes_the_bivariate_polynomial_float():
    p = BivariatePoly([((0, 0), Fraction(1, 2)), ((1, 0), 0.0)])
    assert not p.exact and p.terms == (((0, 0), 0.5),) and type(p.terms[0][1]) is float
    assert BivariatePoly([((0, 0), 1), ((1, 0), 0)]).exact and BivariatePoly().exact


# Each of these gave an exact zero polynomial while every empty result was marked exact.


def test_a_zero_result_keeps_its_operands_field():
    third = DensePoly([Fraction(1, 3)])
    half = DensePoly([0.5])
    for zero in (half - half, DensePoly([1.5]).scale(0.0), half.derivative(), DensePoly([Fraction(1, 2)]).scale(0.0),
                 half * DensePoly([]), (half - half) * DensePoly([2.0])):
        assert zero.is_zero() and not zero.exact, zero
        got = zero + third
        assert not got.exact and got.coeffs == (1 / 3,) and type(got.coeffs[0]) is float
    one = DensePoly([1])
    for zero in (DensePoly([]), DensePoly.zero(), one - one, DensePoly([Fraction(1, 2)]).scale(0), DensePoly([7]).derivative()):
        assert zero.is_zero() and zero.exact and (zero + third).coeffs == (Fraction(1, 3),), zero


def test_a_zero_bivariate_result_keeps_its_operands_field():
    b = BivariatePoly([((1, 0), 0.5)])
    third = BivariatePoly([((0, 0), Fraction(1, 3))])
    for zero in ((b - b).scale(2.0), (b - b) * b, b * BivariatePoly(), b.scale(0.0)):
        assert not zero.nums and not zero.exact, zero
        got = zero + third
        assert not got.exact and got.terms == (((0, 0), 1 / 3),) and type(got.terms[0][1]) is float
    assert BivariatePoly().exact and BivariatePoly.zero().exact and (third - third).exact
