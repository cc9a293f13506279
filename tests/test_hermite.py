import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from muhermite.core import gamma_mu_exact
from muhermite.hermite import (
    binomial_poly,
    dunkl_apply,
    dunkl_definition,
    heat_poly,
    hermite_coeffs,
    hermite_eval,
    inversion_expand,
    inversion_weights,
    raise_apply,
)
from muhermite.poly import DensePoly
from muhermite.transform import phi_poly_coeffs

MU = Fraction(1, 3)


def scale_argument(p: DensePoly, lam) -> DensePoly:
    # p(lam * x) on the coefficient level
    return DensePoly.from_coeffs(tuple(c * lam**k for k, c in enumerate(p.coeffs)))


def test_classical_reduction_matches_numpy():
    for n in range(13):
        mine = hermite_coeffs(Fraction(0), n, exact=True).as_float()
        basis = np.zeros(n + 1)
        basis[n] = 1.0
        ref = np.polynomial.hermite.herm2poly(basis)
        assert_allclose(np.array(mine.coeffs), ref, rtol=1e-12, atol=1e-9)


def test_low_degree_closed_forms():
    assert hermite_coeffs(MU, 0, exact=True).coeffs == (1,)
    # H_1 = 2x / (1 + 2 mu), H_2 = 4x^2 / (1 + 2 mu) - 2
    assert hermite_coeffs(MU, 1, exact=True).coeffs == (0, Fraction(6, 5))
    assert hermite_coeffs(MU, 2, exact=True).coeffs == (-2, 0, Fraction(12, 5))


def test_leading_coefficient():
    for n in range(1, 12):
        lead = hermite_coeffs(MU, n, exact=True)[n]
        assert lead == Fraction(2**n * math.factorial(n), gamma_mu_exact(MU, n))


def test_parity():
    for n in range(10):
        p = hermite_coeffs(MU, n, exact=True)
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
        p = scale_argument(hermite_coeffs(MU, n, exact=True), lam)
        got = dunkl_apply(MU, p)
        want = scale_argument(hermite_coeffs(MU, n - 1, exact=True), lam).scale(2 * lam * n)
        assert got.max_abs_diff(want) == 0


def test_dunkl_two_routes_agree():
    p = DensePoly.from_coeffs((Fraction(-1), Fraction(5), Fraction(2), Fraction(-3), Fraction(1)))
    assert dunkl_apply(MU, p).max_abs_diff(dunkl_definition(MU, p)) == 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(math.inf, 0.0)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_dunkl_definition_refuses_non_finite_coefficients(bad, k):
    coeffs = [1.0, -2.0, 0.5]
    coeffs[k] = bad
    with pytest.raises(ValueError, match="finite"):
        dunkl_definition(0.5, DensePoly.from_coeffs(coeffs))


def test_dunkl_on_monomials():
    # x^n -> (n + 2 mu theta(n)) x^(n-1)
    for n in range(1, 8):
        got = dunkl_apply(MU, DensePoly.monomial(n, Fraction(1)))
        step = n + 2 * MU * (n & 1)
        assert got.max_abs_diff(DensePoly.monomial(n - 1, step)) == 0


def test_raising_reproduces_recursion():
    for n in range(8):
        got = raise_apply(MU, hermite_coeffs(MU, n, exact=True))
        ratio = gamma_mu_exact(MU, n + 1) / ((n + 1) * gamma_mu_exact(MU, n))
        want = hermite_coeffs(MU, n + 1, exact=True).scale(ratio)
        assert got.max_abs_diff(want) == 0


def test_inversion_weights_and_expansion():
    assert inversion_weights(4, exact=True) == [
        Fraction(1, 24),
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    # sum_k c_k H_{n-2k} recovers (2x)^n / gamma_mu(n)
    for n in range(9):
        got = inversion_expand(MU, n, exact=True)
        want = DensePoly.monomial(n, Fraction(2**n, gamma_mu_exact(MU, n)))
        assert got.max_abs_diff(want) == 0


def test_binomial_poly_specializations():
    p = binomial_poly(MU, 5, exact=True)
    assert p(1, 0) == 1 and p(0, 1) == 1
    assert p(Fraction(1, 2), Fraction(1, 2)) == p.swap()(Fraction(1, 2), Fraction(1, 2))
    # mu = 0 collapses to the ordinary binomial theorem
    q = binomial_poly(Fraction(0), 6, exact=True)
    assert q(1, 1) == 2**6


class TestHeatPoly:
    def test_classical_quadratic(self):
        got = heat_poly(Fraction(0), 2, Fraction(1), exact=True)
        assert got.coeffs == (2, 0, 1)  # x^2 + 2t at t=1

    def test_middle_coefficients(self):
        # coefficient of x^(n-2k) is gamma(n) t^k / (k! gamma(n-2k))
        n, t = 7, Fraction(2, 5)
        got = heat_poly(MU, n, t, exact=True)
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
            got = heat_poly(MU, n, Fraction(-1, 4), exact=True)
            pref = Fraction(gamma_mu_exact(MU, n), 2**n * math.factorial(n))
            want = hermite_coeffs(MU, n, exact=True).scale(pref)
            assert got.max_abs_diff(want) == 0

    def test_semigroup_composition_exact(self):
        s, t = Fraction(1, 3), Fraction(2, 7)
        for n in (4, 5, 8):
            first = heat_poly(MU, n, s, exact=True)
            again = DensePoly.zero()
            for m, c in enumerate(first.coeffs):
                if c:
                    again = again + heat_poly(MU, m, t, exact=True).scale(c)
            once = heat_poly(MU, n, s + t, exact=True)
            assert again.max_abs_diff(once) == 0


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
def test_float_coefficients_raise_instead_of_overflowing(mu):
    for build, first_over in (
        (lambda n: hermite_coeffs(mu, n), 151),
        (lambda n: phi_poly_coeffs(mu, n), 151),
        (lambda n: heat_poly(mu, n, 0.3), 171),
    ):
        assert np.all(np.isfinite(np.array(build(150).coeffs, dtype=float)))
        with pytest.raises(OverflowError, match="exact=True"):
            build(first_over)
