import argparse
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import package_caches
from muhermite.cli import _mu_arg
from muhermite.core import (
    _array_memo,
    _mu,
    _rational,
    beta_function,
    gamma_half,
    gamma_mu,
    gamma_mu_exact,
    gamma_step,
    gamma_table,
    log_gamma_mu,
    mu_binomial,
    theta,
)
from muhermite.efun import e_mu
from muhermite.hermite import binomial_poly
from muhermite.quadrature import gauss_alpha_mu, gauss_hermite_mu
from muhermite.heat import heat_apply_kernel
from muhermite.transform import expand, fourier_quadrature, l2mu_norm, phi_poly_table, transform_of_gaussian
from muhermite.translate import translate_xi


def test_theta_is_parity_indicator():
    assert [theta(n) for n in range(6)] == [0, 1, 0, 1, 0, 1]


def _pole_by_twice(mu: Fraction) -> bool:
    # the pole test the exact layer used before: 2 mu an odd negative integer
    twice = 2 * mu
    return twice.denominator == 1 and twice.numerator < 0 and twice.numerator % 2 != 0


class TestMu:
    def test_parse_fraction_is_exact(self):
        mu = _mu_arg("1/3")
        assert mu == Fraction(1, 3) and type(mu) is Fraction
        assert _mu(mu) == pytest.approx(1 / 3)

    def test_parse_integer_is_exact(self):
        for text in ("2", " -2 ", "+0"):
            mu = _mu_arg(text)
            assert mu == int(text) and type(mu) is Fraction

    def test_parse_decimal_is_numeric_only(self):
        mu = _mu_arg("0.5")
        assert mu == 0.5 and type(mu) is float

    def test_numeric_guard_fires_on_use(self):
        mu = _mu_arg("-0.75")  # parsing is permissive
        with pytest.raises(ValueError, match="mu must exceed -1/2"):
            _mu(mu)

    def test_exact_pole_rejected_at_construction(self):
        for text in ("-1/2", "-3/2"):
            with pytest.raises(argparse.ArgumentTypeError, match="pole"):
                _mu_arg(text)
        assert _mu_arg("-1/4") == Fraction(-1, 4)

    def test_zero_denominator_is_a_value_error(self):
        for text in ("1/0", " -3/00 "):
            with pytest.raises(argparse.ArgumentTypeError, match=f"mu = {text.strip()} has a zero denominator"):
                _mu_arg(text)

    def test_mu_and_rational_accept_float_int_and_fraction(self):
        assert _mu(0.5) == 0.5 and _mu(1) == 1.0 and _mu(Fraction(1, 2)) == 0.5
        assert _rational(Fraction(1, 2)) == Fraction(1, 2)
        assert _rational(3) == Fraction(3) and type(_rational(3)) is Fraction
        # a Fraction is rounded once, to the float spelling's bits
        for p, q in ((1, 3), (2, 7), (-1, 5), (355, 113)):
            assert _mu(Fraction(p, q)) == p / q

    def test_mu_and_rational_accept_numpy_scalars(self):
        # an integer scalar is an exact int, a real one a Python float
        for mu in (np.arange(3)[1], np.int64(1), np.uint8(1)):
            assert _rational(mu) == Fraction(1)
            assert type(_rational(mu).numerator) is int
            assert _mu(mu) == 1.0 and type(_mu(mu)) is float
        assert type(_rational(Fraction(np.int64(2), 3)).numerator) is int
        assert _mu(np.float32(0.5)) == 0.5 and type(_mu(np.float32(0.5))) is float
        assert gamma_mu(np.arange(3)[1], 4) == gamma_mu(1, 4)
        assert gamma_mu_exact(np.int64(1), 4) == gamma_mu_exact(1, 4)
        assert e_mu(np.float32(0.5), 1.0) == e_mu(0.5, 1.0)
        assert_array_equal(gauss_hermite_mu(np.int64(0), 8).nodes, gauss_hermite_mu(0, 8).nodes)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "1/3", "0.5", 1j, np.complex128(1), None, [0.5]])
    def test_non_numbers_bools_strings_and_complex_are_type_errors(self, bad):
        with pytest.raises(TypeError):
            _mu(bad)
        with pytest.raises(TypeError):
            _rational(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_mu_refuses_nan_and_inf_naming_finite(self, bad):
        for low in (-0.5, 0.0):
            with pytest.raises(ValueError, match="finite"):
                _mu(bad, low)

    def test_mu_bounds(self):
        for v in (-0.5, -0.75, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="^mu must exceed -1/2$"):
                _mu(v)
        for v in (0, 0.0, -0.0, -0.25):
            with pytest.raises(ValueError, match="^mu must be positive$"):
                _mu(v, 0.0)
        assert _mu(-0.4999) == -0.4999 and _mu(1e-300, 0.0) == 1e-300

    def test_mu_keeps_the_sign_of_zero(self):
        for v in (0.0, -0.0, np.float64(-0.0)):
            assert np.signbit(_mu(v)) == np.signbit(v)

    def test_pole_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="pole"):
                _rational(Fraction(-3, 2))
            with pytest.raises(ValueError, match="^mu = -1/2 is a pole of the factorial recursion$"):
                gamma_mu_exact(Fraction(-1, 2), 3)

    def test_pole_rule_matches_twice_mu(self):
        for q in range(1, 13):
            for p in range(-60, 61):
                mu = Fraction(p, q)
                if _pole_by_twice(mu):
                    with pytest.raises(ValueError, match="pole"):
                        _rational(mu)
                else:
                    assert _rational(mu) == mu

    def test_a_fraction_mu_gives_the_bits_of_its_float_spelling(self):
        x, g = np.linspace(-2.0, 2.0, 9), lambda t: np.exp(-t * t)
        calls = {
            "gamma_mu": lambda mu: gamma_mu(mu, 9),
            "e_mu": lambda mu: e_mu(mu, 3.0 * x),
            "gauss_hermite_mu": lambda mu: (lambda r: np.append(r.nodes, r.weights))(gauss_hermite_mu(mu, 12)),
            "gauss_alpha_mu": lambda mu: (lambda r: np.append(r.nodes, r.weights))(gauss_alpha_mu(mu, 12)),
            "phi_poly_table": lambda mu: phi_poly_table(mu, 8, x),
            "heat_apply_kernel": lambda mu: heat_apply_kernel(mu, g, 0.3, x, sigma=1.0),
            "translate_xi": lambda mu: translate_xi(mu, g, 0.4, 1.1),
        }
        for name, call in calls.items():
            got = []
            for mu in (Fraction(1, 3), 1 / 3):
                for cache in package_caches().values():  # each a cold call
                    cache.cache_clear()
                _array_memo.clear()
                got.append(call(mu))
            assert_array_equal(*got, err_msg=name)

    def test_require_exact_guard(self):
        for bad in (0.7, np.float64(0.5), 2.0):
            with pytest.raises(ValueError, match="exact"):
                _rational(bad)


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

    @pytest.mark.parametrize("mu", [0.15, 1.05, 2.35, 0.5, -0.45])
    def test_log_table_matches_mpmath(self, mu):
        # a plain prefix sum of the logs is 9.1e-13 off at n = 256, where log gamma_mu
        # is about 1000; with each step's rounding error added back, at most 2.3e-13
        mpmath = pytest.importorskip("mpmath")
        logs = gamma_table(mu, 256).log_values
        with mpmath.workdps(40):
            total, worst = mpmath.mpf(0), 0.0
            for n in range(1, 257):
                total += mpmath.log(n + 2 * mpmath.mpf(mu) * (n % 2))
                worst = max(worst, abs(float(mpmath.mpf(float(logs[n])) - total)))
        assert logs[0] == 0.0 and worst <= 2.3e-13

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

    def test_table_steps_are_the_recursion_steps_read_only(self):
        # the e_mu series divides by these; they keep the bits of one gamma_step call
        for mu in (-0.45, 0.0, 0.731):
            t = gamma_table(mu, 100)
            assert_array_equal(t.steps, gamma_step(mu, np.arange(1, len(t.steps) + 1)))
            assert len(t.steps) == len(t.values) - 1 and not t.steps.flags.writeable

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
        p = binomial_poly(mu, n)
        assert p(Fraction(1, 3), Fraction(5, 7)) == p(Fraction(5, 7), Fraction(1, 3))
        coeffs = p.as_dict()
        for j in range(n + 1):
            b = coeffs[(j, n - j)]
            assert b > 0
            assert_allclose(mu_binomial(float(mu), n, j), float(b), rtol=1e-13)
    assert binomial_poly(mu, 6).as_dict()[(0, 6)] == 1


def test_gamma_half_and_beta():
    assert_allclose(gamma_half(0.0), math.sqrt(math.pi), rtol=1e-15)
    assert_allclose(gamma_half(0.5), 1.0, rtol=1e-15)
    assert_allclose(beta_function(2.5, 1.5), math.gamma(2.5) * math.gamma(1.5) / math.gamma(4.0), rtol=1e-13)


def test_mu_binomial_and_beta_name_their_quantity_past_the_float_range():
    # both raised a bare "math range error"
    assert math.isfinite(mu_binomial(0.5, 300, 150)) and math.isfinite(beta_function(1e-300, 1.0))
    with pytest.raises(OverflowError, match=r"mu_binomial\(0\.5, 3000, 1500\) is e\^2071\.68, past the float range"):
        mu_binomial(0.5, 3000, 1500)
    with pytest.raises(OverflowError, match=r"B\(1e-310, 1\) is e\^713\.801, past the float range"):
        beta_function(1e-310, 1.0)


def test_gamma_half_names_mu_past_the_float_range():
    assert math.isfinite(gamma_half(171.1))
    f = lambda t: np.exp(-t * t)
    for refused in (
        lambda: gamma_half(171.2),
        lambda: fourier_quadrature(200.0, f, [0.0, 1.0], sigma=1.0),
        lambda: heat_apply_kernel(200.0, f, 0.4, [0.0, 1.0]),
    ):
        with pytest.raises(OverflowError, match=r"at mu = (171\.2|200) is past the float range, mu <= 171\.1"):
            refused()


def test_mu_caches_stay_bounded():
    from muhermite.core import _ARRAY_MEMO_BYTES, MU_CACHE_SIZE
    from muhermite.exact import verify_identity

    for k in range(300):
        mu = 0.1 + k / 128.0
        gamma_table(mu, 10)
        gauss_hermite_mu(mu, 4)
        gauss_alpha_mu(mu, 4)
        gamma_mu_exact(Fraction(k, 7), 3)
        l2mu_norm(lambda t: np.exp(-t * t), sigma=1.0, mu=mu, quad_n=4)
        translate_xi(mu, lambda t: np.exp(-t * t), 0.5, 0.7, quad_n=4)
        e_mu(mu, 0.5)
    # the exact walks keep no table, but add 100 fresh mu to the exact gamma cache
    for k in range(100):
        assert verify_identity("lowering", Fraction(k + 1, 101), 3).passed
        assert verify_identity("binomial_expansion", Fraction(k + 1, 101), 3).passed
    # every cache the package defines, found by scanning, so none is missed
    caches = package_caches()
    assert len(caches) == 7
    for name, cached in caches.items():
        assert 0 < cached.cache_info().currsize <= MU_CACHE_SIZE, name

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


def test_every_lru_cache_in_the_package_is_bounded_by_mu_cache_size():
    # found by scanning module globals, so a new plan cache cannot escape the bound
    from muhermite.core import MU_CACHE_SIZE

    caches = {name: cache.cache_parameters()["maxsize"] for name, cache in package_caches().items()}
    assert len(caches) == 7 and "efun._term_count" in caches
    assert not [name for name in caches if name.startswith("exact.")]  # its tables live for one walk
    assert {name: size for name, size in caches.items() if size != MU_CACHE_SIZE} == {}


# The package's names before each module's __all__ became the one export
# list, less OperatorMatrix, which was deleted (operator_matrix returns the
# read-only ndarray itself), less four names whose formula the library
# writes once elsewhere: alpha_mu_moment, inversion_expand, mu_binomial_exact
# and raise_apply, and less MuParam and as_mu, which were deleted (mu is a
# plain number, checked by core._mu and core._rational).
_EARLIER_EXPORTS = """
BivariatePoly CheckReport CriterionResult DensePoly IDENTITY_TAGS IdentityDefect IdentityReport
OscillatorRep QuadratureRule SpectralVector __version__ build c_s_mu check_commutation
check_equations_of_motion check_ladder_powers check_representation check_rodrigues_operator check_rotation
check_structure dunkl_apply dunkl_definition e_mu expand fourier_quadrature fourier_spectral gamma_half gamma_mu
gamma_mu_exact gauss_alpha_mu gauss_hermite_mu heat_apply_kernel heat_gaussian heat_gaussian_params heat_kernel
heat_odd_gaussian heat_pde_residual heat_poly heat_spectral_matrix hermite_coeffs hermite_eval identity_sides
jacobi_rule l2mu_norm log_gamma_mu mehler_rhs mu_binomial operator_matrix
phi_eval phi_poly_table run_acceptance run_all run_criterion synthesize theta
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


def test_every_export_is_called_by_the_library_or_named_in_the_readme():
    # an export that no module reads and the README does not name is a second
    # public name for a formula written elsewhere, or dead code
    import ast
    import pathlib
    import re

    import muhermite

    package = pathlib.Path(muhermite.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            # a definition's references to its own name (recursion) do not count
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    read.add(node.attr)
    readme = (package.parents[1] / "README.md").read_text()
    spans = re.findall(r"`([^`]*)`", readme)
    named = {name for name in muhermite.__all__ if any(re.search(rf"\b{name}\b", s) for s in spans)}
    public = [name for name in muhermite.__all__ if not name.startswith("__")]  # __version__ is metadata
    assert [name for name in public if name not in read | named] == []
