import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muhermite.poly import BivariatePoly, DensePoly, _combination, fraction_str


def test_trailing_zeros_are_trimmed():
    p = DensePoly((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert p.coeffs == (1.0, 2.0)


def test_zero_poly():
    z = DensePoly.zero()
    assert z.is_zero()
    assert z.degree == -1
    assert not DensePoly.monomial(2).is_zero()


def test_arithmetic_and_indexing():
    p = DensePoly((1, -2, 3))
    q = DensePoly.monomial(1, 5)
    s = p + q
    assert s.coeffs == (1, 3, 3)
    assert (s - p).coeffs == (0, 5)
    assert p[2] == 3 and p[7] == 0
    assert p.scale(2).coeffs == (2, -4, 6)


def test_shift_derivative_reflect():
    p = DensePoly((2, 0, 1))  # 2 + x^2
    assert p.shift_up(2).coeffs == (0, 0, 2, 0, 1)
    assert p.derivative().coeffs == (0, 2)
    q = DensePoly((0, 1, 0, 4))
    assert q.reflect().coeffs == (0, -1, 0, -4)


def test_horner_matches_numpy_polyval():
    rng = np.random.default_rng(42)
    c = rng.normal(size=7)
    p = DensePoly(tuple(c))
    x = rng.normal(size=11)
    assert_allclose(p(x), np.polynomial.polynomial.polyval(x, c), rtol=1e-12)


def test_call_preserves_scalar_and_array():
    p = DensePoly((1, 1))
    assert np.isscalar(p(2.0))
    assert p(np.array([0.0, 1.0])).shape == (2,)


def test_exact_coefficients_survive_arithmetic():
    p = DensePoly((Fraction(1, 3), Fraction(2)))
    q = p + p
    assert q.coeffs == (Fraction(2, 3), Fraction(4))


def test_max_abs_diff():
    p = DensePoly((1.0, 2.0))
    q = DensePoly((1.0, 2.0 + 1e-9, 5.0))
    assert p.max_abs_diff(q) == pytest.approx(5.0)


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6))
def test_derivative_drops_degree(cs):
    p = DensePoly(tuple(cs))
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
    p, q = DensePoly(a), DensePoly(b)
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
    same = [(p + p.shift_up(1)) - p.shift_up(1), DensePoly(p.coeffs), p.shift_up(1).div_x()]
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
    p, q = BivariatePoly(da.items()), BivariatePoly(db.items())
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
    ):
        assert got.as_dict() == {k: v for k, v in want.items() if v != 0}
        assert _canonical(got)
        assert got == BivariatePoly(got.terms)


_weights = st.one_of(st.integers(min_value=-6, max_value=6), st.fractions(min_value=-5, max_value=5, max_denominator=9))
# an exact polynomial with mixed denominators, or an integer one
_exact_or_integer = st.one_of(_sparse_fractions, st.lists(st.integers(min_value=-9, max_value=9), max_size=6))


@given(st.lists(st.tuples(_weights, _exact_or_integer, st.integers(min_value=0, max_value=3)), max_size=5))
def test_combination_is_the_fold_and_fraction_arithmetic(drawn):
    terms = [(s, DensePoly(cs)) for s, cs, _ in drawn]
    got = _combination(terms)
    fold = DensePoly.zero()
    for s, p in terms:
        fold = fold + p.scale(s)
    assert got == fold and hash(got) == hash(fold)
    want = [Fraction(0)] * max((len(cs) for _, cs, _ in drawn), default=0)
    for s, cs, _ in drawn:
        for k, c in enumerate(cs):
            want[k] += Fraction(s) * c
    assert got.coeffs == _values(want)
    _check_canonical_form(got, Fraction(3, 7))
    # with a power of y per term, repeated powers included
    ys = [j for _, _, j in drawn]
    got2 = _combination(terms, ys)
    fold2 = BivariatePoly()
    wanted: dict = {}
    for (s, p), j in zip(terms, ys):
        fold2 = fold2 + BivariatePoly(((i, j), s * c) for i, c in enumerate(p.coeffs))
        for i, c in enumerate(p.coeffs):
            wanted[i, j] = wanted.get((i, j), 0) + Fraction(s) * c
    assert got2 == fold2
    assert got2.as_dict() == {k: v for k, v in wanted.items() if v}
    assert _canonical(got2) and got2 == BivariatePoly(got2.terms)


def test_div_x_needs_a_zero_constant_term():
    with pytest.raises(ValueError, match="not a polynomial"):
        DensePoly((Fraction(1, 3), Fraction(1))).div_x()
    assert DensePoly.zero().div_x().is_zero()


def test_homogenized_puts_every_term_in_degree_n():
    p = DensePoly((Fraction(1, 2), 0, Fraction(-3, 4)))
    got = BivariatePoly.homogenized(p, 5)
    assert got.as_dict() == {(0, 5): Fraction(1, 2), (2, 3): Fraction(-3, 4)}
    with pytest.raises(ValueError, match="below the degree"):
        BivariatePoly.homogenized(p, 1)


def test_float_arithmetic_matches_plain_formulas():
    # The sums and products every coefficient, zero or not, gives.
    p = DensePoly((0.5, 0.0, -1.25, 0.0, 3.0e-7))
    q = DensePoly((0.0, 2.0, 0.0, -0.0, 1.5, 0.0, -2.0))
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
        p = BivariatePoly({(1, 2): 3, (0, 0): 1}.items())
        assert p(2.0, 1.0) == pytest.approx(7.0)

    def test_from_x_poly_and_diff(self):
        p = BivariatePoly.from_x_polys({0: DensePoly((1, 0, 2))})
        assert p(3.0, 100.0) == pytest.approx(19.0)
        assert p.max_abs_diff(p.scale(1)) == 0


def test_fraction_str():
    assert fraction_str(Fraction(3, 1)) == "3"
    assert fraction_str(Fraction(-110, 9)) == "-110/9"
    assert fraction_str(5) == "5"
