"""Every public real parameter (a point, a shift, a time, a rate, an exponent) goes through one check.

A nan, an inf or a value past the parameter's bound raises one ValueError form
naming the parameter, the bound and the value; a bool, a complex or a string
raises TypeError; and an int, a Fraction or a numpy scalar gives the same
result as the Python float.  Grids and the exact-path parameters keep
checks of their own (EXEMPT gives each reason); mu and the complex alpha
and z are not real parameters here.
"""

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import muhermite
from muhermite import (
    beta_function,
    expand,
    fourier_quadrature,
    heat_apply_kernel,
    heat_gaussian,
    heat_gaussian_params,
    heat_kernel,
    heat_odd_gaussian,
    heat_pde_residual,
    heat_spectral_matrix,
    jacobi_rule,
    l2mu_norm,
    mehler_rhs,
    transform_of_efun_gaussian,
    transform_of_gaussian,
    transform_of_hermite_gaussian,
    transform_of_monomial_gaussian,
    translate_alpha,
    translate_gaussian_closed,
    translate_odd_gaussian_closed,
    translate_spectral_matrix,
    translate_xi,
)
from test_counts import _same


def _gauss(t):
    return np.exp(-t * t)


_TIME, _SIGMA, _LAM = "semigroup time t", "the envelope rate sigma", "the Gaussian rate lam"
_X, _SHIFT = "the point x", "the shift y"

# (function, parameter) -> (call on the value, the parameter's name in the errors, lower bound, closed)
CASES = {
    ("beta_function", "a"): (lambda v: beta_function(v, 0.7), "beta_function's a", 0.0, False),
    ("beta_function", "b"): (lambda v: beta_function(0.7, v), "beta_function's b", 0.0, False),
    ("jacobi_rule", "a"): (lambda v: jacobi_rule(v, 0.3, 6), "jacobi_rule's a", -1.0, False),
    ("jacobi_rule", "b"): (lambda v: jacobi_rule(0.3, v, 6), "jacobi_rule's b", -1.0, False),
    ("heat_kernel", "t"): (lambda v: heat_kernel(0.5, 0.4, 0.6, v), _TIME, 0.0, False),
    ("heat_gaussian_params", "t"): (lambda v: heat_gaussian_params(0.5, 1.0, 0.3, v), _TIME, 0.0, True),
    ("heat_gaussian", "t"): (lambda v: heat_gaussian(0.5, 1.0, 0.3, v, 0.4), _TIME, 0.0, True),
    ("heat_odd_gaussian", "t"): (lambda v: heat_odd_gaussian(0.5, 1.0, v, 0.4), _TIME, 0.0, True),
    ("heat_spectral_matrix", "t"): (lambda v: heat_spectral_matrix(0.5, v, 5), _TIME, 0.0, True),
    ("heat_apply_kernel", "t"): (lambda v: heat_apply_kernel(0.5, _gauss, v, 0.4), _TIME, 0.0, False),
    # the kernel's own rate 1/4t is added to sigma, so sigma = 0 is allowed here
    ("heat_apply_kernel", "sigma"): (lambda v: heat_apply_kernel(0.5, _gauss, 0.4, 0.4, sigma=v), _SIGMA, 0.0, True),
    ("heat_pde_residual", "t"): (lambda v: heat_pde_residual(0.5, "odd", v, 0.4), _TIME, 0.0, True),
    ("expand", "sigma"): (lambda v: expand(0.5, _gauss, 6, sigma=v), _SIGMA, 0.0, True),
    ("l2mu_norm", "sigma"): (lambda v: l2mu_norm(_gauss, sigma=v, mu=0.5), _SIGMA, 0.0, False),
    ("fourier_quadrature", "sigma"): (lambda v: fourier_quadrature(0.5, _gauss, 0.4, sigma=v), _SIGMA, 0.0, False),
    ("transform_of_gaussian", "lam"): (lambda v: transform_of_gaussian(0.5, v, 0.4), _LAM, 0.0, False),
    ("transform_of_monomial_gaussian", "lam"): (
        lambda v: transform_of_monomial_gaussian(0.5, 3, v, 0.4), _LAM, 0.0, False
    ),
    ("transform_of_efun_gaussian", "lam"): (lambda v: transform_of_efun_gaussian(0.5, v, 0.6, 0.4), _LAM, 0.0, False),
    ("transform_of_efun_gaussian", "y"): (
        lambda v: transform_of_efun_gaussian(0.5, 1.0, v, 0.4), "the frequency y", -math.inf, True
    ),
    # beta^2 > lam^2 > 0 is a relation, checked after both pass
    ("transform_of_hermite_gaussian", "beta"): (
        lambda v: transform_of_hermite_gaussian(0.5, 2, v, 0.6, 0.4), "the scale beta", -math.inf, True
    ),
    ("transform_of_hermite_gaussian", "lam"): (
        lambda v: transform_of_hermite_gaussian(0.5, 2, 1.3, v, 0.4), _LAM, -math.inf, True
    ),
    ("translate_alpha", "x"): (lambda v: translate_alpha(0.5, _gauss, v, 1.1), _X, -math.inf, True),
    ("translate_alpha", "y"): (lambda v: translate_alpha(0.5, _gauss, 0.4, v), _SHIFT, -math.inf, True),
    ("translate_xi", "x"): (lambda v: translate_xi(0.5, _gauss, v, 1.1), _X, -math.inf, True),
    ("translate_xi", "y"): (lambda v: translate_xi(0.5, _gauss, 0.4, v), _SHIFT, -math.inf, True),
    ("translate_gaussian_closed", "lam"): (lambda v: translate_gaussian_closed(0.5, v, 0.4, 1.1), _LAM, 0.0, False),
    ("translate_gaussian_closed", "y"): (lambda v: translate_gaussian_closed(0.5, 1.0, 0.4, v), _SHIFT, -math.inf, True),
    ("translate_odd_gaussian_closed", "lam"): (
        lambda v: translate_odd_gaussian_closed(0.5, v, 0.4, 1.1), _LAM, 0.0, False
    ),
    ("translate_odd_gaussian_closed", "y"): (
        lambda v: translate_odd_gaussian_closed(0.5, 1.0, 0.4, v), _SHIFT, -math.inf, True
    ),
    ("translate_spectral_matrix", "y"): (lambda v: translate_spectral_matrix(0.5, v, 6), _SHIFT, -math.inf, True),
}

_GRID = "a grid: core._as_grid reads scalars and arrays of any shape and refuses a nan or an inf"
EXEMPT = {
    **{
        (name, "x"): _GRID
        for name in (
            "c_s_mu", "hermite_eval", "phi_eval", "phi_poly_table", "synthesize", "fourier_quadrature",
            "heat_gaussian", "heat_odd_gaussian", "heat_apply_kernel", "heat_pde_residual", "transform_of_gaussian",
            "transform_of_monomial_gaussian", "transform_of_efun_gaussian", "transform_of_hermite_gaussian",
            "translate_gaussian_closed", "translate_odd_gaussian_closed",
        )
    },
    **{(name, p): _GRID for name in ("mehler_rhs", "heat_kernel") for p in ("x", "y")},
    ("heat_poly", "t"): "exact path: an int or a Fraction t keeps the polynomial exact, a float must be finite",
    ("translate_poly", "y"): "exact path: an int or a Fraction y keeps the polynomial exact, a complex y is allowed",
    ("heron_psi", "x"): "an elementwise formula on floats or arrays; translate_xi checks the points it passes",
    ("heron_psi", "y"): "an elementwise formula on floats or arrays; translate_xi checks the points it passes",
}

# A parameter of one of these names in the public API is a real number unless EXEMPT says otherwise.
REAL_NAMES = {"x", "y", "t", "lam", "beta", "sigma", "a", "b"}


def _public_real_parameters() -> set:
    found = set()
    for name in muhermite.__all__:
        obj = getattr(muhermite, name)
        if inspect.isfunction(obj):
            found |= {(name, p) for p in inspect.signature(obj).parameters if p in REAL_NAMES}
    return found


def test_every_public_real_parameter_has_a_row_or_a_reasoned_exemption():
    found = _public_real_parameters()
    assert not CASES.keys() & EXEMPT.keys()
    assert sorted(found - CASES.keys() - EXEMPT.keys()) == []
    # no stale row or exemption: each names a parameter that exists
    assert sorted((CASES.keys() | EXEMPT.keys()) - found) == []


def _bound(low: float, closed: bool) -> str:
    return "" if low == -math.inf else f" and {'>=' if closed else '>'} {low:g}"


def _refused(name: str) -> list:
    """nan, both infinities, and the bound itself (open) or the float just below it (closed)."""
    _, _, low, closed = CASES[name]
    edge = [] if low == -math.inf else [math.nextafter(low, -math.inf) if closed else low]
    return [math.nan, math.inf, -math.inf] + edge


@pytest.mark.parametrize("name", CASES, ids="{0[0]}.{0[1]}".format)
def test_a_real_that_is_not_finite_or_past_its_bound_raises_value_error(name):
    # without the one check, transform_of_gaussian(0.5, inf, x) returned 0, heat_kernel(0.5, x, y, inf) 0.0,
    # translate_gaussian_closed(0.5, 1.0, 0.0, inf) nan, and beta_function(inf, 1.0) raised OverflowError
    call, what, low, closed = CASES[name]
    for bad in _refused(name):
        with pytest.raises(ValueError, match=f"^{re.escape(what)} must be finite{_bound(low, closed)}, got {bad!r}$"):
            call(bad)


@pytest.mark.parametrize("bad", [True, 1j, "1"], ids=["bool", "complex", "str"])
@pytest.mark.parametrize("name", CASES, ids="{0[0]}.{0[1]}".format)
def test_a_real_that_is_not_a_real_number_raises_type_error(name, bad):
    # jacobi_rule read "1" as 1.0 and every bool as 0 or 1
    call, what, _, _ = CASES[name]
    with pytest.raises(TypeError, match=f"^{re.escape(what)} must be a real number, got {re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("name", CASES, ids="{0[0]}.{0[1]}".format)
def test_an_int_a_fraction_or_a_numpy_scalar_gives_the_float_result(name):
    call = CASES[name][0]
    for other, value in ((1, 1.0), (np.int64(1), 1.0), (Fraction(3, 4), 0.75), (np.float64(0.75), 0.75)):
        assert _same(call(other), call(value)), (other, value)


_GRID_READERS = {
    "hermite_eval": lambda x: muhermite.hermite_eval(0.5, 2, x),
    "phi_eval": lambda x: muhermite.phi_eval(0.5, 2, x),
    "c_s_mu": lambda x: muhermite.c_s_mu(0.5, x),
    "heat_gaussian": lambda x: heat_gaussian(0.5, 1.0, 0.0, 0.3, x),
    "fourier_quadrature": lambda x: fourier_quadrature(0.5, _gauss, x, sigma=1.0),
    "transform_of_gaussian": lambda x: transform_of_gaussian(0.5, 1.0, x),
    "translate_gaussian_closed": lambda x: translate_gaussian_closed(0.5, 0.5, x, 0.3),
    "heat_kernel": lambda x: heat_kernel(0.5, x, 0.4, 0.3),
    "mehler_rhs": lambda x: mehler_rhs(0.5, x, 0.4, 0.3),
    "heat_pde_residual": lambda x: heat_pde_residual(0.5, "odd", 0.3, x),
}
# the second point of a two-point kernel, read with x by the same core._as_grid
_Y_READERS = {
    "heat_kernel": lambda y: heat_kernel(0.5, 0.4, y, 0.3),
    "mehler_rhs": lambda y: mehler_rhs(0.5, 0.4, y, 0.3),
}
_COMPLEX_GRIDS = {
    "ndarray": np.array([1 + 1j, 0.5 + 2j]),
    "numpy_scalar": np.complex128(1 + 1j),
    "zero_imaginary": np.array([0.5 + 0j]),
    "complex64_list": [np.complex64(1), np.complex64(2)],
    "python_complex": 1 + 1j,
    "list": [1 + 1j, 0.5],
}


@pytest.mark.parametrize("grid", sorted(_COMPLEX_GRIDS))
@pytest.mark.parametrize("name", sorted(_GRID_READERS))
def test_a_complex_grid_raises_type_error(name, grid):
    # a complex array or numpy scalar lost its imaginary part, with only a ComplexWarning
    with pytest.raises(TypeError, match="x must be real"):
        _GRID_READERS[name](_COMPLEX_GRIDS[grid])


@pytest.mark.parametrize("name", sorted(_Y_READERS))
def test_a_grid_y_is_named_in_its_errors(name):
    call = _Y_READERS[name]
    for bad in (math.nan, [0.5, math.inf], np.array([-math.inf])):
        with pytest.raises(ValueError, match="^y must be finite"):
            call(bad)
    with pytest.raises(TypeError, match="^y must be real"):
        call(np.array([0.5, 1j]))
