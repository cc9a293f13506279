"""Warm-call plans: the f-independent state of a float call, built once per (mu, rule).

A warm call must return a cold call's floats, and a plan lookup must never
stand in for the checks of the arguments it is keyed on.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import package_caches
from muhermite.core import _array_memo
from muhermite.efun import _term_count, e_mu
from muhermite.heat import heat_apply_kernel
from muhermite.quadrature import _scaled_plan, _scaled_rule, gauss_alpha_mu, gauss_hermite_mu
from muhermite.transform import expand, fourier_quadrature, l2mu_norm
from muhermite.translate import _xi_plan, translate_alpha, translate_xi

X = np.linspace(-1.5, 1.5, 13)
Z = np.linspace(-8.0, 8.0, 201)
PAIRS = ((0.4, 1.1), (1.3, -0.6), (-0.9, -1.7), (0.7, 0.7))


def gaussian(t):
    return (1.0 + t**3) * np.exp(-0.7 * t * t)


def wave(t):
    return np.exp(-0.7 * t * t + 0.4j * t)


def _clear_every_cache():
    for cache in package_caches().values():
        cache.cache_clear()
    _array_memo.clear()


def _calls(mu):
    """Every planned float call at mu, each returning an array to compare bitwise."""
    calls = {
        "fourier_quadrature": lambda: fourier_quadrature(mu, gaussian, X, sigma=0.7),
        "inverse": lambda: fourier_quadrature(mu, gaussian, X, sigma=0.7, inverse=True),
        "heat_apply_kernel": lambda: heat_apply_kernel(mu, gaussian, 0.4, X, sigma=0.7),
        "expand": lambda: (lambda v: np.append(v.coeffs, v.parseval_defect))(expand(mu, gaussian, 30, sigma=0.7)),
        "l2mu_norm": lambda: np.asarray(l2mu_norm(gaussian, sigma=0.7, mu=mu)),
    }
    for grid in (Z, Z * (0.3 - 0.8j)):
        calls[f"e_mu_{grid.dtype}"] = lambda grid=grid: e_mu(mu, grid)
    if mu > 0.0:
        for phi in (gaussian, wave):
            for route in (translate_xi, translate_alpha):
                calls[f"{route.__name__}_{phi.__name__}"] = lambda phi=phi, route=route: np.array(
                    [route(mu, phi, x, y) for x, y in PAIRS]
                )
    return calls


def _plan_hits():
    return tuple(plan.cache_info().hits for plan in (_scaled_plan, _xi_plan, _term_count))


@pytest.mark.parametrize("mu", [0.0, 0.3141, 1.5])
def test_warm_call_equals_a_cold_call_bit_for_bit(mu):
    for name, call in _calls(mu).items():
        _clear_every_cache()
        cold = call()
        hits = _plan_hits()
        warm = call()
        assert_array_equal(warm, cold, err_msg=name)
        # the warm call read the plans the cold call built
        after = _plan_hits()
        if name.startswith(("fourier", "inverse", "heat", "expand", "l2mu")):
            assert after[0] > hits[0], name
        if name.startswith("translate_xi"):
            assert after[1] > hits[1], name
        if name.startswith("e_mu") and mu != 0.0:
            assert after[2] > hits[2], name


def _memo_calls(mu, sigma):
    """The calls whose matrices the memo keeps by the scaled rule's plan key."""
    return {
        "fourier_quadrature": lambda: fourier_quadrature(mu, gaussian, X, sigma=sigma),
        "inverse": lambda: fourier_quadrature(mu, gaussian, X, sigma=sigma, inverse=True),
        "heat_apply_kernel": lambda: heat_apply_kernel(mu, gaussian, 0.4, X, sigma=sigma),
        "expand": lambda: expand(mu, gaussian, 30, sigma=sigma).coeffs,
    }


@pytest.mark.parametrize(
    "spellings",
    [((0.0, 1.0), (-0.0, 1.0)), ((-0.0, 1.0), (0.0, 1.0)), ((0.5, 1), (0.5, 1.0)), ((0.5, 1.0), (0.5, 1))],
)
def test_plan_keys_that_compare_equal_share_a_matrix_with_equal_bits(spellings):
    # -0.0 == 0.0 and 1 == 1.0 give equal plan keys, so the second spelling reads
    # the first one's matrix; it must be the matrix a cold call builds for it
    first, second = spellings
    for name, call in _memo_calls(*second).items():
        _clear_every_cache()
        cold = call()
        _clear_every_cache()
        _memo_calls(*first)[name]()
        held = _array_memo.info()
        warm = call()
        assert _array_memo.info().hits > held.hits, name
        assert_array_equal(warm, cold, err_msg=name)


def _xi_per_branch(mu, phi, x, y, quad_n=80):
    # the unplanned form: each branch builds its own Heron density and Jacobian
    rule = gauss_alpha_mu(mu, quad_n)
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
    return total


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
        with pytest.raises(ValueError, match="^the envelope rate sigma must be finite and >=? 0, got inf$"):
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


def _variants():
    """Calls that differ from the first of their kind in one memo-key argument each.

    x's shape is not among them: every grid is read flat, so a reshaped x shares its matrix.
    """
    assert 0.25 / 0.4000000000000002 == 0.25 / 0.40000000000000024
    fq = lambda mu=0.5, x=X, sigma=0.7, quad_n=96, inverse=False: fourier_quadrature(
        mu, gaussian, x, sigma=sigma, quad_n=quad_n, inverse=inverse
    )
    heat = lambda mu=0.5, x=X, t=0.4, sigma=0.7, quad_n=96: heat_apply_kernel(mu, gaussian, t, x, sigma=sigma, quad_n=quad_n)
    exp = lambda mu=0.5, n_max=30, sigma=0.7, quad_n=96: expand(mu, gaussian, n_max, sigma=sigma, quad_n=quad_n).coeffs
    return [
        fq, lambda: fq(inverse=True), lambda: fq(x=-X), lambda: fq(x=X[:-1]),
        lambda: fq(sigma=0.8), lambda: fq(quad_n=80), lambda: fq(mu=0.6),
        heat, lambda: heat(t=0.5), lambda: heat(x=-X),
        # adjacent floats whose rate 0.25 / t rounds to one value: one plan key, two kernels
        lambda: heat(t=0.4000000000000002), lambda: heat(t=0.40000000000000024), lambda: heat(sigma=0.8), lambda: heat(quad_n=80), lambda: heat(mu=0.6),
        exp, lambda: exp(n_max=31), lambda: exp(sigma=0.8), lambda: exp(quad_n=80), lambda: exp(mu=0.6),
    ]


def test_plan_keys_tell_every_argument_apart():
    # each variant builds its own matrix, with the bits of a cold call
    _clear_every_cache()
    for k, call in enumerate(_variants()):
        misses = _array_memo.info().misses
        warm = call()
        assert _array_memo.info().misses == misses + 1, k
        _array_memo.clear()
        assert_array_equal(warm, call(), err_msg=str(k))
        _array_memo.clear()
        for earlier in _variants()[: k + 1]:
            earlier()
