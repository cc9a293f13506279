import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from muhermite.core import (
    MuParam,
    alpha_mu_moment,
    as_mu,
    beta_function,
    gamma_half,
    gamma_mu,
    gamma_mu_exact,
    gamma_table,
    log_gamma_mu,
    mu_binomial,
    mu_binomial_exact,
    theta,
)
from muhermite.efun import e_mu
from muhermite.quadrature import gauss_hermite_mu
from muhermite.transform import expand, fourier_quadrature, transform_of_gaussian


def test_theta_is_parity_indicator():
    assert [theta(n) for n in range(6)] == [0, 1, 0, 1, 0, 1]


class TestMuParam:
    def test_parse_fraction_is_exact(self):
        mu = MuParam.parse("1/3")
        assert mu.exact == Fraction(1, 3)
        assert mu.value == pytest.approx(1 / 3)

    def test_parse_integer_is_exact(self):
        assert MuParam.parse("2").exact == Fraction(2)

    def test_parse_decimal_is_numeric_only(self):
        mu = MuParam.parse("0.5")
        assert mu.exact is None
        assert mu.value == 0.5

    def test_numeric_guard_fires_on_use(self):
        mu = MuParam.parse("-0.75")  # parsing is permissive
        with pytest.raises(ValueError, match="mu must exceed -1/2"):
            mu.require_numeric()

    def test_exact_pole_rejected_at_construction(self):
        for text in ("-1/2", "-3/2"):
            with pytest.raises(ValueError, match="pole"):
                MuParam.parse(text)
        assert MuParam.parse("-1/4").exact == Fraction(-1, 4)

    def test_as_mu_accepts_float_fraction_and_param(self):
        assert as_mu(0.5).value == 0.5
        assert as_mu(Fraction(1, 2)).exact == Fraction(1, 2)
        p = MuParam.parse("1/4")
        assert as_mu(p) is p

    def test_as_mu_accepts_numpy_scalars(self):
        # an integer scalar is an exact int, a real one a float
        for mu in (np.arange(3)[1], np.int64(1), np.uint8(1)):
            assert as_mu(mu) == MuParam(value=1.0, exact=Fraction(1))
            assert type(as_mu(mu).exact.numerator) is int
        assert as_mu(np.float32(0.5)) == MuParam(value=0.5)
        assert gamma_mu(np.arange(3)[1], 4) == gamma_mu(1, 4)
        assert gamma_mu_exact(np.int64(1), 4) == gamma_mu_exact(1, 4)
        assert e_mu(np.float32(0.5), 1.0) == e_mu(0.5, 1.0)
        assert_array_equal(gauss_hermite_mu(np.int64(0), 8).nodes, gauss_hermite_mu(0, 8).nodes)
        with pytest.raises(TypeError):
            as_mu(1j)

    def test_exact_mu_checked_once_and_pole_every_time(self):
        a = as_mu(Fraction(2, 6))
        assert a is as_mu(Fraction(1, 3))
        assert a == MuParam(value=1 / 3, exact=Fraction(1, 3))
        assert as_mu(3) == MuParam(value=3.0, exact=Fraction(3))
        for _ in range(2):
            with pytest.raises(ValueError, match="pole"):
                as_mu(Fraction(-3, 2))
            with pytest.raises(ValueError, match="pole"):
                gamma_mu_exact(Fraction(-1, 2), 3)

    def test_require_exact_guard(self):
        with pytest.raises(ValueError, match="exact"):
            as_mu(0.7).require_exact()


class TestGammaMu:
    def test_classical_reduction_is_factorial(self):
        for n in range(12):
            assert gamma_mu_exact(Fraction(0), n) == math.factorial(n)

    def test_recursion_step(self):
        mu = Fraction(1, 3)
        for n in range(1, 15):
            step = n + 2 * mu * theta(n)
            assert gamma_mu_exact(mu, n) == step * gamma_mu_exact(mu, n - 1)

    def test_float_matches_exact(self):
        for mu in (0.0, 0.5, 1.5, -0.25):
            ex = gamma_mu_exact(Fraction(mu), 17)
            assert_allclose(gamma_mu(mu, 17), float(ex), rtol=1e-13)

    def test_log_form(self):
        for n in (0, 1, 7, 40):
            assert_allclose(
                log_gamma_mu(0.75, n), math.log(gamma_mu(0.75, n)), rtol=1e-12
            )

    def test_even_value_via_gamma_function(self):
        # gamma_mu(2r) = 2^(2r) r! Gamma(r + mu + 1/2) / Gamma(mu + 1/2)
        mu = 0.8
        for r in range(1, 9):
            want = (
                4.0**r
                * math.factorial(r)
                * math.gamma(r + mu + 0.5)
                / math.gamma(mu + 0.5)
            )
            assert_allclose(gamma_mu(mu, 2 * r), want, rtol=1e-12)

    def test_table_matches_scalar(self):
        t = gamma_table(0.5, 10)
        assert len(t.values) >= 11  # table may precompute past the request
        assert_allclose(t.values[:11], [gamma_mu(0.5, n) for n in range(11)], rtol=1e-14)
        assert_allclose(t.log_values[1:11], np.log(t.values[1:11]), rtol=1e-13)

    def test_overflow_raises_and_log_stays_finite(self):
        with pytest.raises(OverflowError, match="log_gamma_mu"):
            gamma_mu(0.5, 200)
        assert math.isfinite(log_gamma_mu(0.5, 200))

    @given(st.integers(min_value=0, max_value=30))
    def test_positive_and_increasing_from_one(self, n):
        g = gamma_mu(0.9, n)
        assert g > 0
        if n >= 1:
            assert g >= gamma_mu(0.9, n - 1)


def test_mu_binomial_symmetry_and_normalization():
    mu = Fraction(3, 4)
    for n in range(9):
        for j in range(n + 1):
            b = mu_binomial_exact(mu, n, j)
            assert b == mu_binomial_exact(mu, n, n - j)
            assert b > 0
            assert_allclose(mu_binomial(float(mu), n, j), float(b), rtol=1e-13)
    assert mu_binomial_exact(mu, 6, 0) == 1


def test_alpha_mu_moment_is_factorial_over_gamma():
    for mu in (0.3, 0.75, 2.0):
        for n in range(10):
            want = math.factorial(n) / gamma_mu(mu, n)
            assert_allclose(alpha_mu_moment(mu, n), want, rtol=1e-13)


def test_gamma_half_and_beta():
    assert_allclose(gamma_half(0.0), math.sqrt(math.pi), rtol=1e-15)
    assert_allclose(gamma_half(0.5), 1.0, rtol=1e-15)
    assert_allclose(beta_function(2.5, 1.5), math.gamma(2.5) * math.gamma(1.5) / math.gamma(4.0), rtol=1e-13)


def test_mu_caches_stay_bounded():
    from muhermite.core import _ARRAY_MEMO_BYTES, MU_CACHE_SIZE, _array_memo, _exact_mu, _gamma_exact_table, _gamma_table_cached
    from muhermite.exact import _hermite_table, verify_identity
    from muhermite.quadrature import _hermite_rule_cached, _jacobi_rule_cached, gauss_alpha_mu, gauss_hermite_mu

    for k in range(300):
        mu = 0.1 + k / 128.0
        gamma_table(mu, 10)
        gauss_hermite_mu(mu, 4)
        gauss_alpha_mu(mu, 4)
        gamma_mu_exact(Fraction(k, 7), 3)
    for cached in (_gamma_table_cached, _gamma_exact_table, _exact_mu, _hermite_rule_cached, _jacobi_rule_cached):
        assert 0 < cached.cache_info().currsize <= MU_CACHE_SIZE

    # the exact H_m, shared by the identity checks, are kept per mu
    for k in range(100):
        assert verify_identity("lowering", Fraction(k + 1, 101), 3).passed
    assert 0 < _hermite_table.cache_info().currsize <= MU_CACHE_SIZE

    # the array memo is bounded in bytes, not entries
    _array_memo.clear()
    x = np.linspace(-2.0, 2.0, 41)
    for k in range(100):
        mu = 0.1 + k / 128.0
        fourier_quadrature(mu, lambda t: np.exp(-t * t), x, sigma=1.0)
        expand(mu, lambda t: np.exp(-t * t), 40, sigma=1.0)
        assert _array_memo.info().nbytes <= _ARRAY_MEMO_BYTES
    assert _array_memo.info().misses == 200
    # a kernel larger than the whole budget is returned but not stored
    held = _array_memo.info()
    wide = np.linspace(-3.0, 3.0, 1001)
    assert wide.size * 96 * 16 > _ARRAY_MEMO_BYTES
    got = fourier_quadrature(0.5, lambda t: np.exp(-t * t), wide, sigma=1.0)
    assert_allclose(got, transform_of_gaussian(0.5, 1.0, wide), rtol=0, atol=1e-14)
    after = _array_memo.info()
    assert after.misses == held.misses + 1
    assert after[2:] == held[2:]


# The package's names before each module's __all__ became the one export
# list, less OperatorMatrix, which was deleted (operator_matrix returns the
# read-only ndarray itself).
_EARLIER_EXPORTS = """
BivariatePoly CheckReport CriterionResult DensePoly IDENTITY_TAGS IdentityDefect IdentityReport MuParam
OscillatorRep QuadratureRule SpectralVector __version__ alpha_mu_moment as_mu build c_s_mu check_commutation
check_equations_of_motion check_ladder_powers check_representation check_rodrigues_operator check_rotation
check_structure dunkl_apply dunkl_definition e_mu expand fourier_quadrature fourier_spectral gamma_half gamma_mu
gamma_mu_exact gauss_alpha_mu gauss_hermite_mu heat_apply_kernel heat_gaussian heat_gaussian_params heat_kernel
heat_odd_gaussian heat_pde_residual heat_poly heat_spectral_matrix hermite_coeffs hermite_eval identity_sides
inversion_expand jacobi_rule l2mu_norm log_gamma_mu mehler_rhs mu_binomial mu_binomial_exact operator_matrix
phi_eval phi_poly_coeffs phi_poly_table raise_apply run_acceptance run_all run_criterion synthesize theta
transform_of_efun_gaussian transform_of_gaussian transform_of_hermite_gaussian transform_of_monomial_gaussian
translate_alpha translate_gaussian_closed translate_odd_gaussian_closed translate_poly translate_spectral_matrix
translate_xi verify_identity
""".split()


def test_package_exports_every_module_export():
    import importlib

    import muhermite

    public = set(muhermite.__all__)
    for name in ("core", "efun", "exact", "heat", "hermite", "oscillator", "poly", "quadrature", "transform",
                 "translate", "verify"):
        module = importlib.import_module(f"muhermite.{name}")
        assert set(module.__all__) <= public, name
        assert all(getattr(muhermite, n) is getattr(module, n) for n in module.__all__)
    assert set(_EARLIER_EXPORTS) <= public
    assert len(muhermite.__all__) == len(public)
