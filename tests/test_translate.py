import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from muhermite.core import gamma_mu, gamma_mu_exact
from muhermite.hermite import binomial_poly
from muhermite.poly import DensePoly
from muhermite.quadrature import _jacobi_rule_cached, gauss_alpha_mu, jacobi_rule
from muhermite.translate import (
    heron_psi,
    translate_alpha,
    translate_gaussian_closed,
    translate_odd_gaussian_closed,
    translate_poly,
    translate_spectral_matrix,
    translate_xi,
)
from muhermite.transform import _momentum_svd, l2mu_norm, operator_matrix
from muhermite.verify import _translation_pairs
from test_efun import _mp_cos_sin

MU = 0.75


def gaussian(lam):
    return lambda u: np.exp(-lam * np.asarray(u) ** 2)


def odd_gaussian(lam):
    return lambda u: np.asarray(u) * np.exp(-lam * np.asarray(u) ** 2)


class TestGeometry:
    def test_psi_positive_inside_triangle(self):
        assert heron_psi(1.0, 2.0, 2.5) > 0
        assert heron_psi(1.0, 2.0, 3.5) < 0

    def test_delta_vanishes_on_boundary(self):
        # the Heron area is sqrt(psi): a degenerate triangle has psi = 0
        assert heron_psi(1.0, 2.0, 3.0) == 0.0


class TestPolynomialTranslation:
    def test_monomial_becomes_deformed_binomial(self):
        mu = Fraction(1, 3)
        for n in range(7):
            got = translate_poly(mu, DensePoly.monomial(n, Fraction(1)), Fraction(2, 5))
            p = binomial_poly(mu, n)
            want_coeffs = [
                gamma_mu_exact(mu, n) / (gamma_mu_exact(mu, j) * gamma_mu_exact(mu, n - j)) * Fraction(2, 5) ** (n - j)
                for j in range(n + 1)
            ]
            assert got.coeffs == tuple(want_coeffs)
            assert got(Fraction(1, 2)) == p(Fraction(1, 2), Fraction(2, 5))

    def test_zero_shift_is_identity(self):
        p = DensePoly((Fraction(1), Fraction(-2), Fraction(5)))
        assert translate_poly(Fraction(1, 2), p, Fraction(0)).max_abs_diff(p) == 0

    def test_agrees_with_alpha_route(self):
        p = DensePoly((1.0, 0.5, -2.0, 0.25))
        exactly = translate_poly(MU, p, 0.9)
        for x in (0.3, 1.1, 2.4):
            numeric = translate_alpha(MU, lambda u: p(np.asarray(u)), x, 0.9)
            assert_allclose(numeric, exactly(x), rtol=1e-12)

    def test_checks_mu_for_a_constant_too(self):
        # a constant p returned itself at any mu
        for p in (DensePoly((1.0,)), DensePoly((Fraction(1),))):
            with pytest.raises(ValueError, match="mu must exceed -1/2"):
                translate_poly(-3.0, p, 0.5)
            with pytest.raises(TypeError, match="mu must be a real number"):
                translate_poly("1/3", p, 0.5)
        with pytest.raises(ValueError, match="pole"):
            translate_poly(Fraction(-3, 2), DensePoly((Fraction(1),)), Fraction(1, 2))

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 0.0)])
    def test_refuses_a_shift_that_is_not_finite(self, y):
        # a nan shift came back as DensePoly(coeffs=(nan, 2.0)), an inf one as (inf, 2.0)
        with pytest.raises(ValueError, match="finite shift y"):
            translate_poly(0.5, DensePoly((1.0, 2.0)), y)


class TestTwoRoutes:
    @pytest.mark.parametrize("mu", [0.3, 0.75, 2.0])
    def test_alpha_vs_xi_on_gaussian(self, mu):
        rng = np.random.default_rng(42)
        for _ in range(6):
            x, y = rng.uniform(0.3, 2.0, size=2)
            sign = 1.0 if _ % 2 == 0 else -1.0
            a = translate_alpha(mu, gaussian(0.6), float(x), float(sign * y))
            b = translate_xi(mu, gaussian(0.6), float(x), float(sign * y))
            assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_odd_function_routes_agree(self):
        a = translate_alpha(MU, odd_gaussian(0.8), 1.2, 0.7)
        b = translate_xi(MU, odd_gaussian(0.8), 1.2, 0.7)
        assert_allclose(a, b, rtol=1e-9)

    def test_xi_needs_nonzero_arguments(self):
        with pytest.raises(ValueError):
            translate_xi(MU, gaussian(0.5), 0.0, 1.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0), (0.5, -math.inf)])
    def test_both_routes_refuse_a_point_that_is_not_finite(self, x, y):
        # each came back as a nan, the xi route's after four RuntimeWarnings
        which, bad = ("point x", x) if not math.isfinite(x) else ("shift y", y)
        for route in (translate_alpha, translate_xi):
            with pytest.raises(ValueError, match=f"^the {which} must be finite, got {bad!r}$"):
                route(0.5, gaussian(1.0), x, y)

    @pytest.mark.parametrize(
        "mu, quad_n, bound",
        [pytest.param(mu, 80, 1e-10, id=str(mu)) for mu in (0.3, 0.5, 2.0, 10.0)]
        + [pytest.param(0.3, 256, 2.5e-10, id="0.3-256-nodes")],
    )
    def test_xi_refuses_a_needle_triangle_and_holds_1e_10_at_its_bound(self, mu, quad_n, bound):
        # below min(|x|,|y|) / max(|x|,|y|) = 2e-3 the density form lost digits: at mu = 1/2
        # and y = 3, 1.3e-2 off at x = 1e-12 and nan from x = 1e-14, with only RuntimeWarnings;
        # 1e-10 holds at the default 80 nodes, and at 256 nodes mu = 0.3 reads 2.1e-10
        needle = re.escape("translate_xi needs min(|x|,|y|) >= 2e-3 max(|x|,|y|), got ")
        for x, y in ((1e-12, 3.0), (-3.0, 3e-14), (1.99e-3, -1.0)):
            with pytest.raises(ValueError, match=f"^{needle}{x!r}, {y!r}; use translate_alpha$"):
                translate_xi(mu, gaussian(0.5), x, y, quad_n=quad_n)
        for x, y in ((2e-3, 1.0), (-3.0, 6e-3), (1e-3, -0.5), (0.5, 1e-3)):
            want = translate_alpha(mu, gaussian(0.5), x, y)
            assert translate_xi(mu, gaussian(0.5), x, y, quad_n=quad_n) == pytest.approx(want, rel=bound)

    @pytest.mark.parametrize("mu, ratio, bound", [(0.05, 2e-3, 3e-9), (0.1, 2e-3, 1e-9), (0.05, 1e-2, 5e-10),
                                                (0.1, 1e-2, 1e-10)])
    def test_xi_holds_its_stated_small_mu_bound(self, mu, ratio, bound):
        # below mu = 0.3 the endpoint factor (x+y-xi)^(mu-1) costs digits at every ratio:
        # 2.1e-9, 5.5e-10, 3.5e-10 and 7.2e-11 on these rows
        for x, y in ((ratio, 1.0), (-3.0, 3 * ratio), (ratio / 2, -0.5), (0.5, ratio / 2)):
            want = translate_alpha(mu, gaussian(0.5), x, y)
            assert translate_xi(mu, gaussian(0.5), x, y) == pytest.approx(want, rel=bound)

    @pytest.mark.parametrize("x", [1e-80, 1e-150, 1e-200, 1e77, 1e100])
    def test_xi_refuses_a_scale_where_its_density_leaves_the_normal_floats(self, x):
        # at mu = 1/2 and y = 2x it returned 1.0037 (true 1), 0.0, nan, nan and nan
        scale = re.escape(f"translate_xi needs 1e-145 <= |xy| <= 1e145, got {x!r}, {2 * x!r}; use translate_alpha")
        f, want = (gaussian(1.0), 1.0) if x < 1.0 else (lambda u: np.exp(-((u / x) ** 2)), 0.010392992156213)
        with pytest.raises(ValueError, match=f"^{scale}$"):
            translate_xi(0.5, f, x, 2 * x)
        if x < 1e-150:  # below translate_alpha's own scale window as well
            with pytest.raises(ValueError, match=r"^translate_alpha needs max\(\|x\|,\|y\|\) >= 1e-150"):
                translate_alpha(0.5, f, x, 2 * x)
        else:
            assert translate_alpha(0.5, f, x, 2 * x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-72, 1e72])
    def test_xi_holds_inside_its_scale_window(self, x):
        f = lambda u: np.exp(-((u / x) ** 2))  # noqa: E731
        assert translate_xi(0.5, f, x, 2 * x) == pytest.approx(translate_alpha(0.5, f, x, 2 * x), rel=1e-12)

    def test_alpha_refuses_a_point_where_its_radius_overflows(self):
        # x^2 + y^2 passed the float range and the result was a silent nan
        with pytest.raises(ValueError, match=r"^translate_alpha needs max\(\|x\|,\|y\|\) <= 1e150, got 1e\+155, 2e\+155$"):
            translate_alpha(0.5, gaussian(1.0), 1e155, 2e155)
        f = lambda u: np.exp(-((u / 1e150) ** 2))  # noqa: E731
        want = translate_alpha(0.5, gaussian(1.0), 1.0, -0.5)
        assert translate_alpha(0.5, f, 1e150, -5e149) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x", [1e-160, 1e-170, 1e-200])
    def test_alpha_refuses_a_point_where_its_radius_underflows(self, x):
        # x^2 + y^2 underflowed and the result drifted to phi's average at 0 with no
        # warning: 1.0 at 1e-170 and 1e-200, where the true value is 0.010393
        f = lambda u: np.exp(-((u / x) ** 2))  # noqa: E731
        tiny = re.escape(f"translate_alpha needs max(|x|,|y|) >= 1e-150 unless x = y = 0, got {x!r}, {2 * x!r}")
        with pytest.raises(ValueError, match=f"^{tiny}$"):
            translate_alpha(0.5, f, x, 2 * x)
        g = lambda u: np.exp(-((u / 1e-150) ** 2))  # noqa: E731
        assert translate_alpha(0.5, g, 1e-150, 2e-150) == pytest.approx(0.010392992156213, rel=1e-12)
        assert translate_alpha(0.5, f, 0.0, -0.0) == 1.0

    def test_alpha_needs_positive_mu(self):
        with pytest.raises(ValueError, match="mu must be positive"):
            translate_alpha(0.0, gaussian(0.5), 1.0, 0.5)

    def test_large_mu_routes_agree_and_xi_names_its_limit(self):
        # both routes read the unit-mass averaging rule, which forms no mass, so both
        # run at mu = 1e3; past its weights' float range the density form raises, with
        # no RuntimeWarning and no nan, and the averaging route still serves
        a = translate_alpha(1e3, gaussian(0.6), 0.3, 0.2)
        assert_allclose(translate_xi(1e3, gaussian(0.6), 0.3, 0.2), a, rtol=1e-11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"at mu = 100000 are past the float range; translate_alpha"):
                translate_xi(1e5, gaussian(0.6), 0.3, 0.2)
            assert np.isfinite(translate_alpha(1e5, gaussian(0.6), 0.3, 0.2))

    @pytest.mark.parametrize("mu", [500.0, 2000.0])
    def test_xi_keeps_its_digits_at_large_mu(self, mu):
        # the unit-mass rule carries 1/B(1/2, mu) (Legendre duplication): dividing the
        # Jacobi-weighted sum by B(1/2, mu) instead cost the log-space mass's rounding,
        # 1.1e-12 at mu = 500 and 5.9e-12 at mu = 2000 on these points
        worst = 0.0
        for lam in (0.5, 1.1):
            for x, y in _translation_pairs()[:5]:
                want = translate_gaussian_closed(mu, lam, x, y)
                worst = max(worst, abs(translate_xi(mu, gaussian(lam), x, y) - want) / abs(want))
        assert worst < mu * 1e-15


class TestClosedGaussian:
    def test_even_matches_quadrature(self):
        lam = 0.65
        for x, y in ((0.8, 0.5), (1.4, -0.9), (2.0, 1.7)):
            got = translate_gaussian_closed(MU, lam, x, y)
            want = translate_alpha(MU, gaussian(lam), x, y)
            assert_allclose(got, want, rtol=1e-10)

    def test_odd_matches_quadrature(self):
        lam = 0.65
        for x, y in ((0.8, 0.5), (1.3, -0.6)):
            got = translate_odd_gaussian_closed(MU, lam, x, y)
            want = translate_alpha(MU, odd_gaussian(lam), x, y)
            assert_allclose(got, want, rtol=1e-9)

    def test_array_input(self):
        x = np.linspace(-1.5, 1.5, 7)
        vals = translate_gaussian_closed(MU, 0.5, x, 0.8)
        assert vals.shape == (7,)
        assert_allclose(vals[2], translate_gaussian_closed(MU, 0.5, float(x[2]), 0.8), rtol=1e-14)

    def test_symmetry_in_x_and_y(self):
        assert_allclose(
            translate_gaussian_closed(MU, 0.7, 1.1, 0.4),
            translate_gaussian_closed(MU, 0.7, 0.4, 1.1),
            rtol=1e-13,
        )

    def test_zero_shift_recovers_function(self):
        x = np.linspace(-2.0, 2.0, 9)
        assert_allclose(
            translate_gaussian_closed(MU, 0.6, x, 0.0), np.exp(-0.6 * x * x), rtol=1e-13
        )


def test_translation_is_an_l2_contraction():
    # the translate never gains weighted norm; ratio strictly below 1 here
    lam, y = 0.7, 1.1
    base = l2mu_norm(gaussian(lam), sigma=lam, mu=MU)
    moved = l2mu_norm(
        lambda u: translate_gaussian_closed(MU, lam, u, y), sigma=lam, mu=MU
    )
    assert moved <= base * (1.0 + 1e-12)


def test_translation_not_positivity_preserving():
    # a nonnegative bump whose translate dips negative
    phi = lambda u: (np.asarray(u) - 1.0) ** 2 * np.exp(-np.asarray(u) ** 2 / 8.0)
    val = translate_alpha(2.0, phi, 1.0, 1.0)
    assert val < -1e-3


def test_spectral_matrix_row_matches_alpha_route():
    # matrix elements <T_y phi_m, phi_n> reproduce the quadrature route
    from muhermite.transform import phi_eval

    mu, y, size = 0.75, 0.9, 48
    m = translate_spectral_matrix(mu, y, size)
    f = lambda u: phi_eval(mu, 3, u)
    x = 1.3
    series = sum(m[n, 3] * phi_eval(mu, n, x) for n in range(size))
    direct = translate_alpha(mu, f, x, y)
    assert_allclose(series, direct, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5, -0.25])
@pytest.mark.parametrize("y", [0.3, 0.9, -1.7])
@pytest.mark.parametrize("size", [3, 12, 13])
def test_spectral_matrix_is_power_series_in_momentum(size, y, mu):
    # e(i y P; mu) = sum_m (i y P)^m / gamma_mu(m), summed independently of the SVD
    step = 1j * y * operator_matrix(mu, "P", size)
    term = np.eye(size, dtype=complex)
    want = term.copy()
    for m in range(1, 120):
        term = term @ step
        want += term / gamma_mu(mu, m)
    got = translate_spectral_matrix(mu, y, size)
    assert got.dtype == complex
    assert_allclose(got, want, rtol=0, atol=1e-12)


def test_spectral_matrix_refuses_a_size_that_is_not_an_integer():
    for size in (6.0, 6.5, True):
        with pytest.raises(TypeError, match="matrix size must be an integer"):
            translate_spectral_matrix(0.5, 0.3, size)


def test_spectral_matrix_at_large_y_matches_mpmath():
    # |y| max(s) is about 32 at (-0.25, 3) and 317 at (0.5, 30), past where the
    # series (30) and the averaging rule (300) serve; the blocks are rebuilt
    # from 40-digit c and s
    for mu, y in ((-0.25, 3.0), (0.5, 30.0)):
        u, s, v = _momentum_svd(mu, 64)
        c, sn = np.array([_mp_cos_sin(mu, y * sj) for sj in s]).T
        want = np.zeros((64, 64), dtype=complex)
        want[0::2, 0::2] = (u * c) @ u.T
        want[1::2, 1::2] = (v * c) @ v.T
        want[0::2, 1::2] = (u * sn) @ v.T
        want[1::2, 0::2] = -want[0::2, 1::2].T
        assert_allclose(translate_spectral_matrix(mu, y, 64), want, rtol=0, atol=1e-12)


def test_alpha_and_xi_routes_share_one_jacobi_build():
    # the averaging measure is the Jacobi weight (1-t)^(mu-1) (1+t)^mu over
    # its mass: both routes read one eigenproblem per mu
    _jacobi_rule_cached.cache_clear()
    phi = gaussian(0.5)
    translate_alpha(0.6, phi, 1.2, 0.7)
    translate_xi(0.6, phi, 1.2, 0.7)
    info = _jacobi_rule_cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    unit, full = gauss_alpha_mu(0.6, 80), jacobi_rule(0.6 - 1.0, 0.6, 80)
    assert full.nodes is unit.nodes
    assert np.array_equal(full.weights, full.mass * unit.weights)
    assert (unit.mass, unit.measure, full.measure) == (1.0, "alpha_mu", "jacobi")
