import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_genlaguerre, roots_jacobi

from muhermite.core import alpha_mu_moment, gamma_half, gamma_mu
from muhermite.quadrature import gauss_alpha_mu, gauss_hermite_mu, jacobi_rule


class TestGaussHermiteMu:
    def test_classical_reduction_matches_numpy(self):
        rule = gauss_hermite_mu(0.0, 24)
        ref_x, ref_w = np.polynomial.hermite.hermgauss(24)
        assert_allclose(rule.nodes, ref_x, rtol=1e-12, atol=1e-13)
        assert_allclose(rule.weights, ref_w, rtol=1e-10, atol=1e-16)

    def test_mass_and_symmetry(self):
        for mu in (0.0, 0.5, 1.5, -0.25):
            rule = gauss_hermite_mu(mu, 17)
            assert_allclose(rule.mass, gamma_half(mu), rtol=1e-13)
            assert_allclose(rule.weights.sum(), gamma_half(mu), rtol=1e-13)
            assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-14)
            assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-12)

    @pytest.mark.parametrize("mu", [-0.25, 0.0, 0.5, 1.5, 0.3141])
    @pytest.mark.parametrize("n", [1, 24, 95, 96, 256])
    def test_rule_is_its_own_mirror_image_bitwise(self, mu, n):
        # the transform kernel evaluates half the nodes and mirrors the rest
        rule = gauss_hermite_mu(mu, n)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert rule.weights.tobytes() == rule.weights[::-1].tobytes()
        if n % 2:
            assert rule.nodes[n // 2] == 0.0

    def test_even_moments(self):
        mu, n = 0.75, 20
        rule = gauss_hermite_mu(mu, n)
        assert rule.exactness_degree == 2 * n - 1
        for r in range(10):
            got = rule.integrate(lambda t: t ** (2 * r))
            want = math.gamma(r + mu + 0.5)
            assert_allclose(got, want, rtol=1e-12)

    def test_odd_moments_cancel(self):
        rule = gauss_hermite_mu(1.2, 16)
        got = rule.integrate(lambda t: t**7)
        assert abs(got) < 1e-13 * math.gamma(1.2 + 4.0)

    def test_integrate_values_matches_integrate(self):
        rule = gauss_hermite_mu(0.5, 12)
        f = lambda t: np.cos(t) * t**2
        assert_allclose(rule.integrate(f), rule.integrate_values(f(rule.nodes)), rtol=1e-15)

    def test_node_count_guard(self):
        with pytest.raises(ValueError):
            gauss_hermite_mu(0.5, 0)
        with pytest.raises(ValueError):
            gauss_hermite_mu(0.5, 257)

    def test_csv_layout(self):
        rule = gauss_hermite_mu(0.5, 3)
        lines = rule.to_csv().strip().split("\n")
        assert lines[0] == "node,weight"
        assert len(lines) == 4
        node, weight = lines[1].split(",")
        float(node), float(weight)  # parses


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5, -0.25])
def test_full_size_rule_matches_scipy_laguerre(mu):
    # x -> x^2 folds the symmetric 2m-node rule onto the generalized
    # Laguerre weight t^(mu - 1/2) e^(-t), halving each weight.  The outer
    # weights are ~1e-210, so the entrywise rtol pins their relative accuracy.
    rule = gauss_hermite_mu(mu, 256)
    t, w = roots_genlaguerre(128, mu - 0.5)
    root = np.sqrt(t)
    assert_allclose(rule.nodes, np.concatenate((-root[::-1], root)), rtol=1e-10)
    assert_allclose(rule.weights, 0.5 * np.concatenate((w[::-1], w)), rtol=1e-10)
    assert rule.weights.min() < 1e-200


def test_jacobi_rule_matches_scipy():
    # The second case is the rule translate_xi uses, (mu - 1, mu) at a small
    # mu, with the strongly singular endpoint t = 1.
    for a, b, n in ((1.3, 0.4, 15), (0.15 - 1.0, 0.15, 80)):
        rule = jacobi_rule(a, b, n)
        ref_x, ref_w = roots_jacobi(n, a, b)
        assert_allclose(rule.nodes, ref_x, rtol=1e-11, atol=1e-12)
        assert_allclose(rule.weights, ref_w, rtol=1e-10, atol=1e-14)


def test_jacobi_rule_parameter_guard():
    with pytest.raises(ValueError):
        jacobi_rule(-1.0, 0.0, 5)


class TestGaussAlphaMu:
    def test_moments_match_closed_form(self):
        for mu in (0.3, 0.75, 2.0):
            rule = gauss_alpha_mu(mu, 24)
            for n in range(12):
                got = rule.integrate(lambda t: t**n)
                assert_allclose(got, alpha_mu_moment(mu, n), rtol=1e-12, atol=1e-15)

    def test_unit_mass(self):
        rule = gauss_alpha_mu(1.5, 10)
        assert_allclose(rule.weights.sum(), 1.0, rtol=1e-13)
        assert rule.mass == pytest.approx(1.0)

    def test_support_is_unit_interval_in_modulus(self):
        rule = gauss_alpha_mu(0.6, 14)
        assert np.all(np.abs(rule.nodes) <= 1.0 + 1e-14)

    def test_positive_mu_required(self):
        with pytest.raises(ValueError, match="mu must be positive"):
            gauss_alpha_mu(0.0, 8)


def test_first_even_moment_identity():
    # gamma(r + mu + 1/2) / gamma(mu + 1/2) = gamma_mu(2r) / (4^r r!)
    mu = 1.1
    for r in range(1, 8):
        lhs = math.gamma(r + mu + 0.5) / math.gamma(mu + 0.5)
        rhs = gamma_mu(mu, 2 * r) / (4.0**r * math.factorial(r))
        assert_allclose(lhs, rhs, rtol=1e-13)
