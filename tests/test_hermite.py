import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muhermite.core import gamma_mu_exact, gamma_table
from muhermite.hermite import (
    binomial_poly,
    dunkl_apply,
    dunkl_definition,
    heat_poly,
    hermite_coeffs,
    hermite_eval,
    inversion_weights,
)
from muhermite.poly import DensePoly
from muhermite.transform import transform_of_hermite_gaussian
from muhermite.translate import translate_poly

MU = Fraction(1, 3)


def scale_argument(p: DensePoly, lam) -> DensePoly:
    # p(lam * x) on the coefficient level
    return DensePoly(tuple(c * lam**k for k, c in enumerate(p.coeffs)))


def test_hermite_eval_keeps_the_plain_loop_bits():
    # the recursion is shared with the oscillator checks; on a grid it takes the plain loop's steps
    x = np.linspace(-7.0, 7.0, 301)
    for mu in (0.6, -0.45, 2.0):
        prev, cur = np.ones_like(x), 2.0 * x / (1 + 2 * mu)
        for k in range(1, 40):
            prev, cur = cur, (k + 1) / (k + 1 + 2 * mu * ((k + 1) % 2)) * (2.0 * x * cur - 2.0 * k * prev)
            assert hermite_eval(mu, k + 1, x).tobytes() == cur.tobytes()
        assert hermite_eval(mu, 0, x).tobytes() == np.ones_like(x).tobytes()


def test_classical_reduction_matches_numpy():
    for n in range(13):
        mine = hermite_coeffs(Fraction(0), n)
        basis = np.zeros(n + 1)
        basis[n] = 1.0
        ref = np.polynomial.hermite.herm2poly(basis)
        assert_allclose(np.array(mine.coeffs, dtype=float), ref, rtol=1e-12, atol=1e-9)


def test_low_degree_closed_forms():
    assert hermite_coeffs(MU, 0).coeffs == (1,)
    # H_1 = 2x / (1 + 2 mu), H_2 = 4x^2 / (1 + 2 mu) - 2
    assert hermite_coeffs(MU, 1).coeffs == (0, Fraction(6, 5))
    assert hermite_coeffs(MU, 2).coeffs == (-2, 0, Fraction(12, 5))


def test_leading_coefficient():
    for n in range(1, 12):
        lead = hermite_coeffs(MU, n)[n]
        assert lead == Fraction(2**n * math.factorial(n), gamma_mu_exact(MU, n))


def test_parity():
    for n in range(10):
        p = hermite_coeffs(MU, n)
        assert p.reflect().max_abs_diff(p.scale((-1) ** n)) == 0


def test_eval_matches_coefficients():
    rng = np.random.default_rng(42)
    x = rng.normal(size=8)
    for n in (0, 1, 4, 9):
        p = hermite_coeffs(0.6, n)
        assert_allclose(hermite_eval(0.6, n, x), p(x), rtol=1e-12)


def test_half_mu_root_at_one():
    assert hermite_eval(0.5, 2, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_lowering_with_argument_scale():
    # D applied to H_n(lam x) gives 2 lam n H_{n-1}(lam x)
    lam = Fraction(3, 7)
    for n in range(1, 9):
        p = scale_argument(hermite_coeffs(MU, n), lam)
        got = dunkl_apply(MU, p)
        want = scale_argument(hermite_coeffs(MU, n - 1), lam).scale(2 * lam * n)
        assert got.max_abs_diff(want) == 0


def test_dunkl_two_routes_agree():
    p = DensePoly((Fraction(-1), Fraction(5), Fraction(2), Fraction(-3), Fraction(1)))
    assert dunkl_apply(MU, p).max_abs_diff(dunkl_definition(MU, p)) == 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dunkl_definition_refuses_non_finite_coefficients(bad, k):
    coeffs = [1.0, -2.0, 0.5]
    coeffs[k] = bad
    with pytest.raises(ValueError, match="finite"):
        dunkl_definition(0.5, DensePoly(coeffs))


def test_dunkl_on_monomials():
    # x^n -> (n + 2 mu theta(n)) x^(n-1)
    for n in range(1, 8):
        got = dunkl_apply(MU, DensePoly.monomial(n, Fraction(1)))
        step = n + 2 * MU * (n & 1)
        assert got.max_abs_diff(DensePoly.monomial(n - 1, step)) == 0


def test_raising_reproduces_recursion():
    # the raising operator 2 x p - D p, with D by the monomial rule
    for n in range(8):
        h = hermite_coeffs(MU, n)
        got = h.shift_up(1).scale(2) - dunkl_apply(MU, h)
        ratio = gamma_mu_exact(MU, n + 1) / ((n + 1) * gamma_mu_exact(MU, n))
        want = hermite_coeffs(MU, n + 1).scale(ratio)
        assert got.max_abs_diff(want) == 0


def test_inversion_weights_and_expansion():
    assert inversion_weights(4) == [
        Fraction(1, 24),
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    assert all(type(w) is Fraction for w in inversion_weights(7))
    # sum_k c_k H_{n-2k} recovers (2x)^n / gamma_mu(n)
    for n in range(9):
        got = DensePoly.zero()
        for k, w in enumerate(inversion_weights(n)):
            got = got + hermite_coeffs(MU, n - 2 * k).scale(w)
        want = DensePoly.monomial(n, Fraction(2**n, gamma_mu_exact(MU, n)))
        assert got.max_abs_diff(want) == 0


def test_binomial_poly_specializations():
    p = binomial_poly(MU, 5)
    assert p(1, 0) == 1 and p(0, 1) == 1
    assert p(Fraction(1, 2), Fraction(1, 3)) == p(Fraction(1, 3), Fraction(1, 2))
    # mu = 0 collapses to the ordinary binomial theorem
    q = binomial_poly(Fraction(0), 6)
    assert q(1, 1) == 2**6


@pytest.mark.parametrize("mu", [Fraction(0), MU, Fraction(-1, 4), Fraction(-3, 4), Fraction(7, 2)])
def test_binomial_poly_row_over_one_denominator(mu):
    # the row is built from integer numerators and denominators; each
    # coefficient is still gamma_mu(n) / (gamma_mu(j) gamma_mu(n - j)) exactly,
    # also at mu = -3/4, where gamma_mu(1) = -1/2 is negative
    for n in range(16):
        want = {
            (j, n - j): gamma_mu_exact(mu, n) / (gamma_mu_exact(mu, j) * gamma_mu_exact(mu, n - j))
            for j in range(n + 1)
        }
        assert binomial_poly(mu, n).as_dict() == want


class TestHeatPoly:
    def test_classical_quadratic(self):
        got = heat_poly(Fraction(0), 2, Fraction(1))
        assert got.coeffs == (2, 0, 1)  # x^2 + 2t at t=1

    def test_middle_coefficients(self):
        # coefficient of x^(n-2k) is gamma(n) t^k / (k! gamma(n-2k))
        n, t = 7, Fraction(2, 5)
        got = heat_poly(MU, n, t)
        for k in range(n // 2 + 1):
            want = (
                gamma_mu_exact(MU, n)
                * t**k
                / (math.factorial(k) * gamma_mu_exact(MU, n - 2 * k))
            )
            assert got[n - 2 * k] == want

    def test_quarter_backward_time_gives_orthogonal_family(self):
        # the t = -1/4 flow of x^n is gamma(n) / (2^n n!) times the degree-n
        # polynomial; ties the flow to the three-term recursion exactly
        for n in range(11):
            got = heat_poly(MU, n, Fraction(-1, 4))
            pref = Fraction(gamma_mu_exact(MU, n), 2**n * math.factorial(n))
            want = hermite_coeffs(MU, n).scale(pref)
            assert got.max_abs_diff(want) == 0

    def test_semigroup_composition_exact(self):
        s, t = Fraction(1, 3), Fraction(2, 7)
        for n in (4, 5, 8):
            first = heat_poly(MU, n, s)
            again = DensePoly.zero()
            for m, c in enumerate(first.coeffs):
                if c:
                    again = again + heat_poly(MU, m, t).scale(c)
            once = heat_poly(MU, n, s + t)
            assert again.max_abs_diff(once) == 0


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
def test_float_coefficients_raise_instead_of_overflowing(mu):
    for build, first_over in (
        (lambda n: hermite_coeffs(mu, n), 151),
        (lambda n: heat_poly(mu, n, 0.3), 171),
    ):
        assert np.all(np.isfinite(np.array(build(150).coeffs, dtype=float)))
        with pytest.raises(OverflowError, match="pass mu as a Fraction"):
            build(first_over)


def _float_sum(mu, n, t=None):
    """H_n (t None) or heat_poly's floats, one term at a time in the order of the explicit sums:
    (-1)^k n! 2^(n-2k) / (k! gamma_mu(n-2k)), or gamma_mu(n) t^k / (k! gamma_mu(n-2k)) with t^k
    a running product; inf for a term whose denominator is past the float range."""
    fact = [1.0]
    for k in range(1, n + 1):
        fact.append(fact[-1] * k)
    gam = gamma_table(mu, n).values
    coeffs = [0.0] * (n + 1)
    tk = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n // 2 + 1):
            m = n - 2 * k
            q = fact[k] * gam[m]
            if t is None:
                coeffs[m] = (-1) ** k * fact[n] * 2.0**m / q
            else:
                coeffs[m] = gam[n] * tk / q
                tk = tk * t
            if not math.isfinite(q):
                coeffs[m] = math.inf
    return coeffs


@pytest.mark.parametrize("mu", [0.0, 0.5, -0.25, 1.5, 100.0])
def test_the_float_sums_keep_the_bits_of_a_term_by_term_loop(mu):
    cases = [(lambda n: hermite_coeffs(mu, n), n, None) for n in range(152)]
    for t in (1.0, -2 / 7, 3.0, 0.0, 0.1):
        cases += [(lambda n, t=t: heat_poly(mu, n, t), n, t) for n in range(172)]
    for build, n, t in cases:
        want = _float_sum(mu, n, t)
        if not all(math.isfinite(c) for c in want):
            with pytest.raises(OverflowError, match="overflows float64; pass mu as a Fraction"):
                build(n)
            continue
        got = build(n)
        assert not got.exact
        assert [float(c).hex() for c in got.coeffs] == [c.hex() for c in want], (n, t)
    with pytest.raises(OverflowError, match="H_151 overflows float64; pass mu as a Fraction"):
        hermite_coeffs(mu, 151)


def _plain_gamma(mu, m):
    return math.prod((Fraction(j) + 2 * mu * (j % 2) for j in range(1, m + 1)), start=Fraction(1))


# rational mu off the poles of the factorial recursion, where 2 mu is a negative odd integer
_RATIONAL_MU = st.fractions(-3, 4, max_denominator=8).filter(lambda m: m not in (Fraction(-1, 2), Fraction(-3, 2), Fraction(-5, 2)))


@settings(max_examples=60, deadline=None)
@given(_RATIONAL_MU, st.fractions(-5, 5, max_denominator=9), st.integers(0, 24))
@example(Fraction(-3, 4), Fraction(-2, 7), 13)
@example(Fraction(-7, 4), Fraction(3), 16)
def test_the_exact_sums_are_the_plain_fraction_sums(mu, t, n):
    # gamma_mu goes negative below mu = -1/2 (gamma_mu(1) = 1 + 2 mu), so the integers carry signs
    h = hermite_coeffs(mu, n)
    heat = heat_poly(mu, n, t)
    assert h.exact and heat.exact
    for k in range(n // 2 + 1):
        m = n - 2 * k
        q = math.factorial(k) * _plain_gamma(mu, m)
        assert h[m] == Fraction((-1) ** k * math.factorial(n) * 2**m) / q
        assert heat[m] == _plain_gamma(mu, n) * t**k / q
    assert h.degree == heat.degree == n
    assert all(h[m] == 0 and heat[m] == 0 for m in range(n - 1, -1, -2))


@pytest.mark.parametrize("n, x", [(400, 30.0), (400, 1.0), (400, [0.5, 1.0])])
def test_hermite_eval_raises_past_the_float_range(n, x):
    # these returned a silent nan
    with pytest.raises(OverflowError, match=f"H_{n}\\(x; mu\\) overflows float64"):
        hermite_eval(0.5, n, x)


def test_hermite_transform_raises_past_the_float_range():
    # this returned nan+nanj
    with pytest.raises(OverflowError, match=r"H_300\(x; mu\) overflows float64"):
        transform_of_hermite_gaussian(0.5, 300, 2.0, 1.0, [3.0])


@pytest.mark.parametrize("n", [148, 149, 150])
def test_hermite_coeffs_raises_where_gamma_mu_of_n_overflows(n):
    # gamma_mu(n) is inf at mu = 100 from n = 148 on, and H_n's top coefficient read 0:
    # the float path returned degree n - 2, where the exact top coefficient of H_148 is 1.48e-7
    assert float(hermite_coeffs(Fraction(100), n)[n]) > 1e-8
    with pytest.raises(OverflowError, match=f"^H_{n} overflows float64; pass mu as a Fraction$"):
        hermite_coeffs(100.0, n)


@pytest.mark.parametrize("n", [1023, 1024, 1100])
def test_hermite_coeffs_past_degree_1023_raises_the_documented_overflow(n):
    # 2.0 ** n raised a bare OverflowError(34, 'Numerical result out of range') from n = 1024 on
    with pytest.raises(OverflowError, match=f"^H_{n} overflows float64; pass mu as a Fraction$"):
        hermite_coeffs(0.5, n)


@pytest.mark.parametrize("t", [1j, np.complex128(0.5), "0.5", None])
def test_heat_poly_refuses_a_time_that_is_not_real(t):
    # math.isfinite raised "must be real number, not complex", naming neither t nor heat_poly
    with pytest.raises(TypeError, match=f"^heat_poly's time t must be a real number, got {re.escape(repr(t))}$"):
        heat_poly(0.5, 4, t)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_heat_poly_refuses_a_time_that_is_not_finite(t, exact):
    # the float path blamed the float range with an OverflowError; Fraction(t)
    # raised ValueError for nan but OverflowError for inf
    with pytest.raises(ValueError, match="finite time t"):
        heat_poly(MU if exact else 0.5, 4, t)


@pytest.mark.parametrize("mu", [MU, 1, np.int64(2), 0])
def test_a_rational_mu_makes_the_constructors_exact(mu):
    x5 = DensePoly.monomial(5, Fraction(1))
    assert hermite_coeffs(mu, 5).exact and binomial_poly(mu, 5).exact
    assert heat_poly(mu, 5, Fraction(1, 2)).exact and heat_poly(mu, 5, np.int64(2)).exact
    assert translate_poly(mu, x5, Fraction(2, 5)).exact and translate_poly(mu, x5, np.int64(2)).exact
    # a float anywhere gives floats: the time, the shift or the coefficients
    assert not heat_poly(mu, 5, 0.5).exact
    assert not translate_poly(mu, x5, 0.4).exact
    assert not translate_poly(mu, DensePoly((1.0, 2.0, 0.5)), Fraction(1, 2)).exact
    # and the floats are the exact values, rounded
    assert heat_poly(mu, 5, 0.5).max_abs_diff(heat_poly(mu, 5, Fraction(1, 2))) < 1e-12
    assert translate_poly(mu, x5, 0.4).max_abs_diff(translate_poly(mu, x5, Fraction(2, 5))) < 1e-12


@pytest.mark.parametrize("mu", [1 / 3, 1.0, np.float64(2.0), -0.0])
def test_a_float_mu_makes_the_constructors_float(mu):
    x5 = DensePoly.monomial(5, Fraction(1))
    exact = Fraction(mu)
    assert not hermite_coeffs(mu, 5).exact and not binomial_poly(mu, 5).exact
    assert not heat_poly(mu, 5, Fraction(1, 2)).exact
    assert not translate_poly(mu, x5, Fraction(2, 5)).exact
    assert hermite_coeffs(mu, 5).max_abs_diff(hermite_coeffs(exact, 5)) < 1e-12
    assert binomial_poly(mu, 5).max_abs_diff(binomial_poly(exact, 5)) < 1e-12
    assert translate_poly(mu, x5, Fraction(2, 5)).max_abs_diff(translate_poly(exact, x5, Fraction(2, 5))) < 1e-12
