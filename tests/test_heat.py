import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from muhermite.core import _array_memo, gamma_mu_exact
from muhermite.efun import _term_count, e_mu
from muhermite.heat import (
    _heat_kernel,
    heat_apply_kernel,
    heat_gaussian,
    heat_gaussian_params,
    heat_odd_gaussian,
    heat_pde_residual,
    heat_spectral_matrix,
)
from muhermite.hermite import heat_poly
from muhermite.quadrature import _scaled_rule, gauss_hermite_mu
from muhermite.transform import SpectralVector, expand, operator_matrix, synthesize


class TestHeatOnMonomial:
    def test_classical_values(self):
        # mu = 0: x^2 -> x^2 + 2t, x^4 -> x^4 + 12 t x^2 + 12 t^2
        two = heat_poly(Fraction(0), 2, Fraction(1, 3))
        assert two.coeffs == (Fraction(2, 3), 0, 1)
        four = heat_poly(Fraction(0), 4, Fraction(1, 3))
        assert four.coeffs == (Fraction(12, 9), 0, 4, 0, 1)

    def test_deformed_quadratic(self):
        mu = Fraction(1, 3)
        got = heat_poly(mu, 2, Fraction(1))
        # D^2 x^2 = gamma(2)/gamma(0) = 2 (1 + 2 mu)
        assert got.coeffs == (2 * (1 + 2 * mu), 0, 1)

    def test_time_zero_is_identity(self):
        got = heat_poly(Fraction(2, 5), 6, Fraction(0))
        assert got.coeffs == (0, 0, 0, 0, 0, 0, 1)

    def test_float_route_matches_exact(self):
        ex = heat_poly(Fraction(3, 4), 7, Fraction(2, 5))
        fl = heat_poly(0.75, 7, 0.4)
        assert ex.max_abs_diff(fl) < 1e-12


def test_gaussian_params_algebra():
    # rate alpha flows to alpha / (1 + 4 alpha t)
    mu, alpha, z, t = 0.6, 0.7, 0.3, 0.5
    pref, a2, z2 = heat_gaussian_params(mu, alpha, z, t)
    u = 1 + 4 * alpha * t
    assert_allclose(a2, alpha / u, rtol=1e-14)
    assert_allclose(z2, z / u, rtol=1e-14)
    assert pref > 0


class TestGaussianRoutes:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
    @pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
    def test_even_closed_vs_kernel(self, mu, t):
        alpha = 0.8
        x = np.linspace(-2.0, 2.0, 9)
        closed = heat_gaussian(mu, alpha, 0.0, t, x).real
        kernel = heat_apply_kernel(mu, lambda u: np.exp(-alpha * u * u), t, x)
        assert_allclose(kernel, closed, rtol=1e-8, atol=1e-10)

    def test_odd_closed_vs_kernel(self):
        mu, alpha, t = 0.75, 0.9, 0.4
        x = np.linspace(-1.8, 1.8, 7)
        closed = heat_odd_gaussian(mu, alpha, t, x)
        kernel = heat_apply_kernel(mu, lambda u: u * np.exp(-alpha * u * u), t, x)
        assert_allclose(kernel, closed, rtol=1e-8, atol=1e-10)

    def test_spectral_route_agrees(self):
        mu, alpha, t = 0.5, 1.0, 0.3
        x = np.linspace(-2.0, 2.0, 9)
        size = 96
        vec = expand(mu, lambda u: np.exp(-alpha * u * u), size - 1, sigma=alpha)
        flow = heat_spectral_matrix(mu, t, size)
        got = synthesize(SpectralVector(mu, flow @ np.asarray(vec.coeffs)), x).real
        want = heat_gaussian(mu, alpha, 0.0, t, x).real
        assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    def test_time_zero_is_identity(self):
        x = np.linspace(-2.0, 2.0, 9)
        got = heat_gaussian(0.8, 0.6, 0.0, 0.0, x).real
        assert_allclose(got, np.exp(-0.6 * x * x), rtol=1e-14)

    def test_semigroup_composition(self):
        mu, alpha = 1.2, 0.7
        x = np.linspace(-1.5, 1.5, 7)
        pref1, a1, _ = heat_gaussian_params(mu, alpha, 0.0, 0.2)
        step = pref1 * heat_gaussian(mu, a1, 0.0, 0.3, x).real
        once = heat_gaussian(mu, alpha, 0.0, 0.5, x).real
        assert_allclose(step, once, rtol=1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [1 + 0.5j, 0.7 - 0.3j])
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
    def test_complex_rate_closed_vs_kernel(self, mu, alpha, z):
        # a complex alpha with a real z raised TypeError from math.exp
        x = np.linspace(-2.0, 2.0, 9)
        f = lambda u: np.exp(-alpha * u * u) * e_mu(mu, 2.0 * z * u)
        for t in (0.1, 0.4):
            closed = heat_gaussian(mu, alpha, z, t, x)
            kernel = heat_apply_kernel(mu, f, t, x, sigma=alpha.real)
            assert_allclose(kernel, closed, rtol=0, atol=2e-15)

    @pytest.mark.parametrize("z", [0.0, 0.3])
    @pytest.mark.parametrize("alpha", [1 + 0.5j, 0.7 - 0.3j])
    def test_semigroup_composition_at_a_complex_rate(self, alpha, z):
        mu = 1.2
        x = np.linspace(-1.5, 1.5, 7)
        pref1, a1, z1 = heat_gaussian_params(mu, alpha, z, 0.2)
        step = pref1 * heat_gaussian(mu, a1, z1, 0.3, x)
        once = heat_gaussian(mu, alpha, z, 0.5, x)
        assert_allclose(step, once, rtol=1e-14)


def test_flow_of_orthogonal_polynomial_times_gaussian():
    # phi_n evolves by a pure eigenvalue factor under the conjugated flow;
    # here check the simplest member: the ground Gaussian e^(-x^2 / 2)
    # flows to a broader Gaussian with the closed-form prefactor
    mu, t = 0.9, 0.6
    x = np.linspace(-2.0, 2.0, 9)
    u = 1.0 + 2.0 * t  # 1 + 4 alpha t at alpha = 1/2
    want = u ** (-mu - 0.5) * np.exp(-0.5 * x * x / u)
    got = heat_gaussian(mu, 0.5, 0.0, t, x).real
    assert_allclose(got, want, rtol=1e-12)


class TestPdeResidual:
    def test_small_on_both_families(self):
        for family in ("even", "odd"):
            for t in (0.3, 1.0):
                res = heat_pde_residual(0.75, family, t, 1.2)
                assert res < 1e-6

    def test_guard_near_origin(self):
        with pytest.raises(ValueError, match=r"\|x\| < 0.1"):
            heat_pde_residual(0.5, "even", 0.5, 0.05)

    def test_guard_short_time(self):
        with pytest.raises(ValueError, match="t > h"):
            heat_pde_residual(0.5, "even", 1e-5, 1.0)


def test_spectral_matrix_is_heat_of_momentum_square():
    mu, t, size = 0.5, 0.4, 12
    p = operator_matrix(mu, "P", size)
    m = (p @ p).real
    assert_allclose(heat_spectral_matrix(mu, t, size), expm(-t * m), rtol=1e-13)


@pytest.mark.parametrize("size", [2, 3, 12, 13])
@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5, -0.25])
def test_spectral_matrix_keeps_parity_at_every_size(mu, size):
    t = 0.4
    p = operator_matrix(mu, "P", size)
    flow = heat_spectral_matrix(mu, t, size)
    # any eigen-route errs by ~eps of the unit diagonal, so entries near 1e-4
    # (corners at size 13) need the absolute term; parity zeros must be exact
    assert_allclose(flow, expm(-t * (p @ p).real), rtol=1e-13, atol=4e-15)
    assert not flow[0::2, 1::2].any() and not flow[1::2, 0::2].any()


def test_kernel_route_refuses_peak_past_the_rule():
    # the kernel peaks at u = 3 / (2 sqrt(0.01)) = 15, beyond the 96-node rule
    with pytest.raises(ValueError, match="reach"):
        heat_apply_kernel(0.5, lambda u: np.exp(-u * u), 0.01, [-3.0, 3.0])


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_closed_and_spectral_routes_refuse_a_time_outside_zero_to_inf(t):
    # a nan or inf t came back as a silent nan; at inf and odd size the spectral
    # route also multiplied -inf by its zero-padded singular value
    for route in (
        lambda: heat_gaussian_params(0.5, 1.0, 0.3, t),
        lambda: heat_gaussian(0.5, 1.0, 0.0, t, 0.3),
        lambda: heat_odd_gaussian(0.5, 1.0, t, 0.3),
        lambda: heat_spectral_matrix(0.5, t, 4),
        lambda: heat_spectral_matrix(0.5, t, 5),
    ):
        with pytest.raises(ValueError, match=f"^semigroup time t must be finite and >= 0, got {t!r}$"):
            route()


@pytest.mark.parametrize(
    "alpha, z", [(math.inf, 0.0), (complex(1.0, math.inf), 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, complex(0.0, math.inf))]
)
def test_closed_form_refuses_a_rate_or_shift_that_is_not_finite(alpha, z):
    # alpha = inf came back as a silent nan (from the odd form with a RuntimeWarning),
    # and z = nan as a nan prefactor
    routes = [lambda: heat_gaussian_params(0.5, alpha, z, 0.3), lambda: heat_gaussian(0.5, alpha, z, 0.3, 0.3)]
    if z == 0.0:
        routes.append(lambda: heat_odd_gaussian(0.5, alpha, 0.3, 0.3))
    for route in routes:
        with pytest.raises(ValueError, match="must be finite"):
            route()


@pytest.mark.parametrize("z", [1e3, 1e3 + 0j, 1e200, 40.0 + 10.0j])
def test_closed_form_names_a_prefactor_past_the_float_range(z):
    # a real z raised a bare "math range error", a complex one returned nan with two
    # RuntimeWarnings, and z = 1e200 an inf prefactor
    for route in (lambda: heat_gaussian_params(0.5, 1.0, z, 1.0), lambda: heat_gaussian(0.5, 1.0, z, 1.0, [0.0, 1.0])):
        with pytest.raises(OverflowError, match=r"the heat prefactor exp\(4 t z\^2 / u\) is e\^.*past the float range"):
            route()


@pytest.mark.parametrize("size", [5.0, 5.5, True])
def test_spectral_route_refuses_a_size_that_is_not_an_integer(size):
    with pytest.raises(TypeError, match="matrix size must be an integer"):
        heat_spectral_matrix(0.5, 0.1, size)
    assert_array_equal(heat_spectral_matrix(0.5, 0.1, np.int64(5)), heat_spectral_matrix(0.5, 0.1, 5))


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
def test_kernel_route_refuses_a_degenerate_time(t):
    with pytest.raises(ValueError, match=f"^semigroup time t must be finite and > 0, got {t!r}$"):
        heat_apply_kernel(0.5, lambda u: np.exp(-u * u), t, [0.0, 1.0])


@pytest.mark.parametrize("t", [0.01, 0.4])
@pytest.mark.parametrize("mu", [-0.25, 0.0, 0.5])
def test_kernel_route_reach_is_the_largest_node_minus_four(mu, t):
    # in u = y / (2 sqrt t) the reach is the rule's largest node minus 4
    reach = 2.0 * math.sqrt(t) * (gauss_hermite_mu(mu, 96).nodes.max() - 4.0)
    f = lambda u: np.exp(-u * u)
    assert np.all(np.isfinite(heat_apply_kernel(mu, f, t, [-0.999 * reach, 0.999 * reach])))
    for x in (1.001 * reach, -1.001 * reach):
        with pytest.raises(ValueError, match="reach"):
            heat_apply_kernel(mu, f, t, x)


def test_kernel_route_accurate_just_inside_its_reach():
    mu, t = 0.5, 0.02
    x = np.linspace(-2.5, 2.5, 11)  # |x| / (2 sqrt t) <= 8.84, reach 9.15
    kernel = heat_apply_kernel(mu, lambda u: np.exp(-u * u), t, x)
    assert_allclose(kernel, heat_gaussian(mu, 1.0, 0.0, t, x).real, rtol=1e-8)


@pytest.mark.parametrize("t", [2.0, 10.0, 50.0])
@pytest.mark.parametrize("mu", [-0.25, 0.5, 1.5])
def test_kernel_route_with_f_envelope_is_accurate_at_large_t(mu, t):
    # matched to the kernel's e^(-y^2/4t) alone, this is 0.96 off at t = 50, mu = 1/2
    x = np.linspace(-3.0, 3.0, 13)
    got = heat_apply_kernel(mu, lambda u: np.exp(-u * u), t, x, sigma=1.0)
    assert_allclose(got, heat_gaussian(mu, 1.0, 0.0, t, x).real, rtol=1e-10)


@pytest.mark.parametrize("sigma", [0.3, 1.0])
@pytest.mark.parametrize("t", [0.01, 0.4, 10.0])
def test_kernel_route_reach_follows_the_integrands_peak(t, sigma):
    # the peak y = x / (1 + 4 sigma t) sits at u = y sqrt(sigma + 1/4t)
    mu = 0.5
    stretch = 1.0 + 4.0 * sigma * t
    reach = (gauss_hermite_mu(mu, 96).nodes.max() - 4.0) * stretch / math.sqrt(sigma + 0.25 / t)
    f = lambda u: np.exp(-sigma * u * u)
    assert np.all(np.isfinite(heat_apply_kernel(mu, f, t, [-0.999 * reach, 0.999 * reach], sigma=sigma)))
    for x in (1.001 * reach, -1.001 * reach, math.nan):
        with pytest.raises(ValueError, match="reach"):
            heat_apply_kernel(mu, f, t, x, sigma=sigma)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_kernel_memo_hit_equals_a_cold_build(sigma):
    x = np.linspace(-2.0, 2.0, 9)
    f = lambda u: u * u * np.exp(-u * u)
    _array_memo.clear()
    cold = heat_apply_kernel(0.75, f, 0.4, x, sigma=sigma)
    warm = heat_apply_kernel(0.75, f, 0.4, x, sigma=sigma)
    assert _array_memo.info()[:2] == (1, 1)
    assert_array_equal(warm, cold)
    heat_apply_kernel(0.75, f, 0.4, -x, sigma=sigma)
    heat_apply_kernel(0.75, f, 0.5, x, sigma=sigma)
    assert _array_memo.info()[:2] == (1, 3)
    with pytest.raises(ValueError, match="reach"):
        heat_apply_kernel(0.75, f, 0.01, 3.0, sigma=sigma)
    assert _array_memo.info()[1:] == (3, 3 * 9 * 96 * 8, 3)


def _mp_e(mu, z):
    """e(z; mu) from its even and odd parts 0F1(; mu + 1/2; z^2/4) + z / (2 mu + 1) 0F1(; mu + 3/2; z^2/4)."""
    q = z * z / 4
    return mpmath.hyp0f1(mu + 0.5, q) + z / (2 * mu + 1) * mpmath.hyp0f1(mu + 1.5, q)


@pytest.mark.parametrize("mu", [-0.45, -0.25, 0.5, 1.5, 3.0])
def test_kernel_matrix_matches_mpmath_within_n_eps_of_term_magnitudes(mu):
    # |err| <= (n + 1) eps e(|z|; mu), n the planned term count: term m of A^T B
    # carries about 3m roundings, and 0.28 (n + 1) eps e(|z|) is the worst seen.
    # Without the power-of-two row scaling, w^m overflowed here at every t.
    for t in (0.01, 0.02, 0.1, 0.5, 2.0):
        nodes, _, _, plan = _scaled_rule(mu, np.exp, 0.0, 0.25 / t, 96)
        x = np.array([-1.0, -0.5, 1.0 / 3.0, 1.0]) * (plan.top - 4.0) * 2.0 * math.sqrt(t)  # up to the reach
        y = np.append(nodes[::12], nodes[-1])
        got = _heat_kernel(mu, x, y, t)
        n = _term_count(mu, float(np.max(np.abs(np.outer(x, y) / (2.0 * t)))))
        with mpmath.workdps(50):
            for (i, j), value in np.ndenumerate(got):
                z = mpmath.mpf(x[i]) * mpmath.mpf(y[j]) / (2 * mpmath.mpf(t))
                bound = (n + 1) * 2.0**-52 * _mp_e(mpmath.mpf(mu), abs(z))
                assert abs(value - _mp_e(mpmath.mpf(mu), z)) <= bound, (mu, t, x[i], y[j])


@pytest.mark.parametrize("mu", [0.0, -0.25, 1.5])
def test_kernel_matrix_keeps_the_plan_and_checks_of_e_mu(mu):
    # the factor tables read the plan e_mu reads off np.outer(x, y) / 2t; mu = 0 is that call
    x, y, t = np.linspace(-2.0, 2.0, 9), np.linspace(-3.0, 3.0, 16), 0.3
    _term_count.cache_clear()
    got = _heat_kernel(mu, x, y, t)
    want = e_mu(mu, np.outer(x, y) / (2.0 * t))
    assert _term_count.cache_info()[:2] == ((0, 0) if mu == 0.0 else (1, 1))
    if mu == 0.0:
        assert_array_equal(got, want)
    assert_allclose(got, want, rtol=1e-14)
    assert_array_equal(_heat_kernel(mu, np.zeros(3), y, t), np.ones((3, 16)))
    # y / 2t underflows to 0 while x y / 2t = 6.6e-300 does not (sigma = t = 1e300)
    assert_array_equal(_heat_kernel(mu, np.array([1e150]), np.array([1.3e-149]), 1e300), np.ones((1, 1)))
    with pytest.raises(OverflowError, match="overflows float64"):
        _heat_kernel(mu, np.array([30.0, 1.0]), np.array([-30.0, 2.0]), 0.5)
