"""Every public count argument (a degree, an n_max or a size) goes through one check.

A float or a bool raises TypeError, a value below the argument's lower bound
raises ValueError, and a numpy integer gives the same result as the Python one.
"""

import dataclasses
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from muhermite.core import gamma_mu, gamma_mu_exact, log_gamma_mu, mu_binomial, theta
from muhermite.exact import identity_sides, verify_identity
from muhermite.heat import heat_spectral_matrix
from muhermite.hermite import binomial_poly, heat_poly, hermite_coeffs, hermite_eval, inversion_weights
from muhermite.oscillator import build, check_ladder_powers, check_rodrigues_operator
from muhermite.quadrature import gauss_alpha_mu, gauss_hermite_mu, jacobi_rule
from muhermite.transform import (
    expand,
    fourier_quadrature,
    operator_matrix,
    phi_eval,
    phi_poly_table,
    transform_of_hermite_gaussian,
    transform_of_monomial_gaussian,
)
from muhermite.translate import translate_spectral_matrix, translate_xi


@cache
def _rep():
    return build(0.5, 12)


def _gauss(t):
    return np.exp(-t * t)


# name -> (call on the count, its lower bound, a valid count, the argument's name in the errors)
CASES = {
    "theta": (theta, 0, 7, "theta's index"),
    "gamma_mu": (lambda n: gamma_mu(0.5, n), 0, 7, "gamma_mu's n"),
    "log_gamma_mu": (lambda n: log_gamma_mu(0.5, n), 0, 7, "log_gamma_mu's n"),
    "gamma_mu_exact": (lambda n: gamma_mu_exact(Fraction(1, 2), n), 0, 7, "gamma_mu_exact's n"),
    "hermite_coeffs": (lambda n: hermite_coeffs(0.5, n), 0, 7, "polynomial degree"),
    # 2^70 wraps in a numpy integer
    "hermite_coeffs_exact": (lambda n: hermite_coeffs(Fraction(1, 3), n), 0, 70, "polynomial degree"),
    "heat_poly": (lambda n: heat_poly(0.5, n, 0.3), 0, 7, "monomial degree"),
    "hermite_eval": (lambda n: hermite_eval(0.5, n, 0.3), 0, 7, "polynomial degree"),
    "inversion_weights": (inversion_weights, 0, 7, "monomial degree"),
    "binomial_poly": (lambda n: binomial_poly(0.5, n), 0, 7, "polynomial degree"),
    "phi_eval": (lambda n: phi_eval(0.5, n, 0.3), 0, 7, "basis index"),
    "phi_poly_table": (lambda n: phi_poly_table(0.5, n, [0.3, 1.0]), 0, 7, "basis index"),
    "transform_of_monomial_gaussian": (
        lambda n: transform_of_monomial_gaussian(0.5, n, 1.0, 0.3), 0, 7, "gamma_mu's n"
    ),
    "transform_of_hermite_gaussian": (
        lambda n: transform_of_hermite_gaussian(0.5, n, 1.3, 0.8, 0.3), 0, 7, "polynomial degree"
    ),
    "mu_binomial_n": (lambda n: mu_binomial(0.5, n, 0), 0, 7, "mu_binomial's n"),
    "mu_binomial_j": (lambda j: mu_binomial(0.5, 9, j), 0, 4, "mu_binomial's j"),
    "expand": (lambda n: expand(0.5, _gauss, n, sigma=1.0), 0, 7, "n_max"),
    "verify_identity": (lambda n: verify_identity("lowering", Fraction(1, 3), n), 0, 7, "n_max"),
    "identity_sides": (lambda n: identity_sides("lowering", Fraction(1, 3), n), 0, 7, "degree n"),
    "gauss_hermite_mu": (lambda n: gauss_hermite_mu(0.5, n), 1, 7, "rule size"),
    "gauss_alpha_mu": (lambda n: gauss_alpha_mu(0.5, n), 1, 7, "rule size"),
    "jacobi_rule": (lambda n: jacobi_rule(0.2, 0.3, n), 1, 7, "rule size"),
    "fourier_quadrature": (lambda n: fourier_quadrature(0.5, _gauss, 0.3, sigma=1.0, quad_n=n), 1, 12, "rule size"),
    "translate_xi": (lambda n: translate_xi(0.5, _gauss, 0.3, 0.7, quad_n=n), 1, 12, "rule size"),
    "operator_matrix": (lambda n: operator_matrix(0.5, "Q", n), 2, 7, "matrix size"),
    "heat_spectral_matrix": (lambda n: heat_spectral_matrix(0.5, 0.1, n), 2, 7, "matrix size"),
    "translate_spectral_matrix": (lambda n: translate_spectral_matrix(0.5, 0.7, n), 2, 7, "matrix size"),
    "build": (lambda n: build(0.5, n), 4, 7, "oscillator size"),
    "check_ladder_powers": (lambda n: check_ladder_powers(_rep(), n), 1, 2, "n_max"),
    "check_rodrigues_operator": (lambda n: check_rodrigues_operator(_rep(), n), 1, 5, "n_max"),
}


def _same(a, b) -> bool:
    """Equal values of equal types, arrays bit for bit and dtype for dtype."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("bad", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("name", CASES)
def test_a_count_that_is_not_an_integer_raises_type_error(name, bad):
    # without the one check, gamma_mu(0.5, 2.5) raised IndexError and hermite_eval(0.5, True, 0.3) read n = 1
    call, _, _, what = CASES[name]
    with pytest.raises(TypeError, match=f"^{what} must be an integer, got {bad!r}$"):
        call(bad)


@pytest.mark.parametrize("name", CASES)
def test_a_count_below_its_bound_raises_value_error(name):
    # without the one check, phi_eval(0.5, -1, x) and expand(0.5, f, -1) failed inside numpy
    call, low, _, what = CASES[name]
    with pytest.raises(ValueError, match=f"^{what} must be {'nonnegative' if low == 0 else f'>= {low}'}, got {low - 1}$"):
        call(low - 1)


@pytest.mark.parametrize("name", CASES)
def test_a_numpy_integer_count_gives_the_python_integer_result(name):
    call, _, k, _ = CASES[name]
    assert _same(call(np.int64(k)), call(k))
