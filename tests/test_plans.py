"""Warm-call plans: the f-independent state of a float call, built once per (mu, rule).

A warm call must return a cold call's floats, and a plan lookup must never
stand in for the checks of the arguments it is keyed on.
"""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from muhermite.core import _array_memo, _float_mu, as_mu, beta_function
from muhermite.heat import heat_apply_kernel
from muhermite.quadrature import _scaled_plan, _scaled_rule, gauss_hermite_mu, jacobi_rule
from muhermite.transform import expand, fourier_quadrature, l2mu_norm
from muhermite.translate import _xi_plan, translate_alpha, translate_xi

X = np.linspace(-1.5, 1.5, 13)
PAIRS = ((0.4, 1.1), (1.3, -0.6), (-0.9, -1.7), (0.7, 0.7))


def gaussian(t):
    return (1.0 + t**3) * np.exp(-0.7 * t * t)


def wave(t):
    return np.exp(-0.7 * t * t + 0.4j * t)


def _clear_every_cache():
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "muhermite":
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    _array_memo.clear()


def _calls(mu):
    """Every planned float call at mu, each returning an array to compare bitwise."""
    calls = {
        "as_mu": lambda: np.asarray(as_mu(mu).value),
        "fourier_quadrature": lambda: fourier_quadrature(mu, gaussian, X, sigma=0.7),
        "inverse": lambda: fourier_quadrature(mu, gaussian, X, sigma=0.7, inverse=True),
        "heat_apply_kernel": lambda: heat_apply_kernel(mu, gaussian, 0.4, X, sigma=0.7),
        "expand": lambda: (lambda v: np.append(v.coeffs, v.parseval_defect))(expand(mu, gaussian, 30, sigma=0.7)),
        "l2mu_norm": lambda: np.asarray(l2mu_norm(gaussian, sigma=0.7, mu=mu)),
    }
    if mu > 0.0:
        for phi in (gaussian, wave):
            calls[f"translate_xi_{phi.__name__}"] = lambda phi=phi: np.array(
                [translate_xi(mu, phi, x, y) for x, y in PAIRS]
            )
    return calls


@pytest.mark.parametrize("mu", [0.0, 0.3141, 1.5])
def test_warm_call_equals_a_cold_call_bit_for_bit(mu):
    for name, call in _calls(mu).items():
        _clear_every_cache()
        cold = call()
        hits = (_float_mu.cache_info().hits, _scaled_plan.cache_info().hits, _xi_plan.cache_info().hits)
        warm = call()
        assert_array_equal(warm, cold, err_msg=name)
        # the warm call read the plans the cold call built
        after = (_float_mu.cache_info().hits, _scaled_plan.cache_info().hits, _xi_plan.cache_info().hits)
        assert after[0] > hits[0], name
        if name.startswith(("fourier", "inverse", "heat", "expand", "l2mu")):
            assert after[1] > hits[1], name
        if name.startswith("translate_xi"):
            assert after[2] > hits[2], name


def _xi_per_branch(mu, phi, x, y, quad_n=80):
    # the unplanned form: each branch builds its own Heron density and Jacobian
    rule = jacobi_rule(mu - 1.0, mu, quad_n)
    t = rule.nodes
    om = np.sqrt(x * x + y * y + 2.0 * x * y * t)
    comp = (1.0 - t) ** (1.0 - mu) * (1.0 + t) ** (-mu)
    total = 0.0
    for sign in (1.0, -1.0):
        xi = sign * om
        psi = np.maximum(((x + y) ** 2 - xi * xi) * (xi * xi - (x - y) ** 2) / 16.0, 0.0)
        density = (2.0 * np.sqrt(psi) / abs(x * y)) ** (2.0 * mu)
        kernel = np.sign(x * y) * sign / (x + y - xi)
        jac = abs(x * y) / om
        total = total + (rule.weights * comp * kernel * density * jac * np.asarray(phi(xi))).sum()
    return total / beta_function(0.5, mu)


@pytest.mark.parametrize("mu", [0.3141, 1.5])
def test_translate_xi_keeps_the_per_branch_bits(mu):
    _clear_every_cache()
    for phi, kind in ((gaussian, float), (wave, complex)):
        for x, y in PAIRS:
            want = _xi_per_branch(mu, phi, x, y)
            for _ in range(2):  # cold, then warm
                got = translate_xi(mu, phi, x, y)
                assert type(got) is kind
                assert_array_equal(np.asarray(got), np.asarray(kind(want)))


@pytest.mark.parametrize("mu", [0.0, 0.3141, 1.5])
def test_scaled_rule_keeps_the_unplanned_bits(mu):
    _clear_every_cache()
    for sigma, rate, quad_n in ((0.7, 0.0, 96), (0.5, 0.5, 82), (0.0, 0.625, 96), (1.4, 0.0, 256)):
        rule = gauss_hermite_mu(mu, quad_n)
        s = math.sqrt(sigma + rate)
        t = rule.nodes / s
        want = (t, rule.weights * (np.asarray(wave(t)) * np.exp(sigma * t * t)), s ** (-2.0 * mu - 1.0))
        for _ in range(2):  # cold, then warm
            got = _scaled_rule(mu, wave, sigma, rate, quad_n)
            for a, b in zip(got, want):
                assert_array_equal(a, b)
        assert not got[0].flags.writeable


def test_as_mu_keeps_the_sign_of_zero_and_the_float_type():
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        _float_mu.cache_clear()
        assert np.signbit(as_mu(first).value) == np.signbit(first)
        assert np.signbit(as_mu(second).value) == np.signbit(second)
    _float_mu.cache_clear()
    assert type(as_mu(0.5).value) is float
    assert type(as_mu(np.float64(0.5)).value) is np.float64
    assert as_mu(0.5) is as_mu(0.5)
    # a raising build is never cached: nan and inf raise on every call
    for bad in (math.nan, math.inf, -math.inf):
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                as_mu(bad)
    assert _float_mu.cache_info().currsize == 2


def _sized_calls(quad_n):
    return {
        "translate_xi": lambda: translate_xi(0.5, gaussian, 0.4, 1.1, quad_n=quad_n),
        "translate_alpha": lambda: translate_alpha(0.5, gaussian, 0.4, 1.1, quad_n=quad_n),
        "fourier_quadrature": lambda: fourier_quadrature(0.5, gaussian, X, sigma=0.7, quad_n=quad_n),
        "expand": lambda: expand(0.5, gaussian, 30, sigma=0.7, quad_n=quad_n),
        "l2mu_norm": lambda: l2mu_norm(gaussian, sigma=0.7, mu=0.5, quad_n=quad_n),
        "heat_apply_kernel": lambda: heat_apply_kernel(0.5, gaussian, 0.4, X, sigma=0.7, quad_n=quad_n),
    }


def test_plans_never_skip_validation():
    _clear_every_cache()
    for quad_n in (80, 96):
        for call in _sized_calls(quad_n).values():
            call()
    for size in (80.0, 96.0, True):
        for call in _sized_calls(size).values():
            with pytest.raises(TypeError, match="rule size must be an integer"):
                call()
    # sigma and mu are checked before a plan is read as well
    f = gaussian
    for refused in (
        lambda: fourier_quadrature(0.5, f, X, sigma=math.inf),
        lambda: expand(0.5, f, 30, sigma=math.inf),
        lambda: l2mu_norm(f, sigma=math.inf, mu=0.5),
        lambda: heat_apply_kernel(0.5, f, 0.4, X, sigma=math.inf),
    ):
        with pytest.raises(ValueError, match="finite Gaussian envelope"):
            refused()
    for mu in (-0.5, -0.75):
        for refused in (
            lambda: fourier_quadrature(mu, f, X, sigma=0.7),
            lambda: expand(mu, f, 30, sigma=0.7),
            lambda: l2mu_norm(f, sigma=0.7, mu=mu),
            lambda: heat_apply_kernel(mu, f, 0.4, X, sigma=0.7),
        ):
            with pytest.raises(ValueError, match="exceed -1/2"):
                refused()
        for refused in (translate_xi, translate_alpha):
            with pytest.raises(ValueError, match="positive"):
                refused(mu, f, 0.4, 1.1)
