import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from muhermite import verify
from muhermite.core import _array_memo, _memo_key, gamma_half, gamma_mu
from muhermite.efun import c_s_mu, e_mu
from muhermite.heat import heat_apply_kernel, heat_gaussian, heat_odd_gaussian
from muhermite.hermite import hermite_coeffs, hermite_eval
from muhermite.quadrature import gauss_hermite_mu
from muhermite.transform import (
    SpectralVector,
    _kernel_matrix,
    _momentum_svd,
    expand,
    fourier_quadrature,
    fourier_spectral,
    l2mu_norm,
    operator_matrix,
    phi_eval,
    phi_poly_table,
    synthesize,
    transform_of_efun_gaussian,
    transform_of_gaussian,
    transform_of_hermite_gaussian,
    transform_of_monomial_gaussian,
)
from muhermite.translate import translate_gaussian_closed, translate_odd_gaussian_closed

MUS = (0.0, 0.5, 1.5)


def test_phi_orthonormal_small():
    for mu in MUS:
        rule = gauss_hermite_mu(mu, 48)
        table = phi_poly_table(mu, 8, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert_allclose(gram, np.eye(9), atol=1e-13)


def test_phi_eval_consistent_with_coefficients():
    # phi_n = sqrt(gamma_mu(n) / Gamma(mu + 1/2)) / (2^(n/2) n!) e^(-x^2/2) H_n, H_n from its coefficients
    mu = 0.75
    x = np.linspace(-2.5, 2.5, 9)
    for n in (0, 3, 6):
        norm = math.sqrt(gamma_mu(mu, n) / gamma_half(mu)) / (2.0 ** (n / 2.0) * math.factorial(n))
        want = norm * hermite_coeffs(mu, n)(x) * np.exp(-0.5 * x * x)
        assert_allclose(phi_eval(mu, n, x), want, rtol=1e-12)


def test_spectral_vector_keeps_its_own_read_only_copy():
    a = np.ones(3)
    vec = SpectralVector(0.5, a)
    a[0] = 2.0  # the caller's array stays writable and apart
    assert_array_equal(vec.coeffs, np.ones(3))
    assert not vec.coeffs.flags.writeable
    listed = SpectralVector(0.5, [1.0, 2.0])
    assert_array_equal(listed.coeffs, [1.0, 2.0])
    assert not listed.coeffs.flags.writeable


def test_expand_recovers_finite_combination():
    mu = 0.6
    f = lambda t: phi_eval(mu, 3, t) + 0.5 * phi_eval(mu, 7, t)
    vec = expand(mu, f, 10)
    want = np.zeros(11)
    want[3], want[7] = 1.0, 0.5
    assert_allclose(vec.coeffs.real, want, atol=1e-12)
    assert abs(vec.parseval_defect) < 1e-12


def test_synthesize_inverts_expand():
    mu = 1.1
    f = lambda t: (1.0 + t * t) * np.exp(-0.7 * t * t)
    vec = expand(mu, f, 40, sigma=0.7)
    x = np.linspace(-2.0, 2.0, 15)
    assert_allclose(synthesize(vec, x), f(x), rtol=1e-10, atol=1e-12)


def test_parseval_defect_measures_truncation():
    mu = 0.5
    f = lambda t: np.exp(-0.8 * t * t)
    small = expand(mu, f, 4, sigma=0.8).parseval_defect
    large = expand(mu, f, 40, sigma=0.8).parseval_defect
    assert small > large > -1e-13
    assert large < 1e-12


def test_coefficients_are_read_only():
    vec = expand(0.5, lambda t: np.exp(-0.5 * t * t), 6)
    with pytest.raises(ValueError):
        vec.coeffs[0] = 99.0


def test_fourier_spectral_is_diagonal_phase():
    vec = SpectralVector(mu=0.5, coeffs=np.array([1.0, 2.0, 3.0, 4.0]))
    out = fourier_spectral(vec)
    assert_allclose(out.coeffs, [1.0, -2.0j, -3.0, 4.0j])


def test_the_transform_phase_is_exact_past_degree_100():
    # (-1j) ** n drifts from n = 100; (-i)^n is one of 1, -i, -1, i exactly
    n = np.arange(200)
    phase = np.array((1, -1j, -1, 1j))[n % 4]
    assert_array_equal(np.diag(operator_matrix(0.5, "F", 200)), phase)
    assert_array_equal(fourier_spectral(SpectralVector(mu=0.5, coeffs=np.ones(200))).coeffs, phase)
    for got in (
        transform_of_monomial_gaussian(0.5, 150, 1.0, [0.7]),
        transform_of_hermite_gaussian(0.5, 150, 1.0, 0.7071, [0.3]),
    ):
        assert got.real[0] != 0.0 and got.imag[0] == 0.0  # (-i)^150 = -1


def test_quadrature_transform_fixes_eigenfunctions():
    x = np.linspace(-3.0, 3.0, 11)
    for mu in MUS:
        for n in (0, 1, 4, 7):
            f = lambda t: hermite_eval(mu, n, t) * np.exp(-0.5 * t * t)
            got = fourier_quadrature(mu, f, x, sigma=0.5)
            want = (-1j) ** n * f(x)
            assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_quadrature_transform_inverse_roundtrip():
    # forward via the closed form, back via quadrature; the intermediate
    # must be closed-form so the envelope compensation sees clean tails
    mu, lam = 0.8, 0.9
    f = lambda t: (t + t**3) * np.exp(-lam * t * t)
    g = lambda t: transform_of_monomial_gaussian(mu, 1, lam, t) + transform_of_monomial_gaussian(
        mu, 3, lam, t
    )
    x = np.linspace(-2.0, 2.0, 9)
    back = fourier_quadrature(mu, g, x, sigma=1.0 / (4 * lam), inverse=True)
    assert_allclose(back.real, f(x), rtol=1e-9, atol=1e-11)
    assert_allclose(back.imag, 0.0, atol=1e-11)


class TestClosedForms:
    def test_gaussian_fixed_point(self):
        x = np.linspace(-2.0, 2.0, 7)
        for mu in MUS:
            got = transform_of_gaussian(mu, 0.5, x)
            assert_allclose(got, np.exp(-0.5 * x * x), rtol=1e-13)

    def test_gaussian_general_rate_vs_quadrature(self):
        mu, lam = 0.75, 1.4
        x = np.linspace(-1.5, 1.5, 7)
        want = fourier_quadrature(mu, lambda t: np.exp(-lam * t * t), x, sigma=lam)
        assert_allclose(transform_of_gaussian(mu, lam, x), want.real, rtol=1e-11)
        assert_allclose(want.imag, 0.0, atol=1e-12)

    def test_monomial_gaussian_vs_quadrature(self):
        mu, lam, n = 0.5, 0.8, 3
        x = np.linspace(-1.5, 1.5, 5)
        want = fourier_quadrature(mu, lambda t: t**n * np.exp(-lam * t * t), x, sigma=lam)
        got = transform_of_monomial_gaussian(mu, n, lam, x)
        assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_efun_gaussian_vs_quadrature(self):
        # closed form transforms e(+iyt) e^(-lam t^2)
        mu, lam, y = 1.2, 0.9, 0.7
        x = np.linspace(-1.0, 1.0, 5)
        f = lambda t: np.exp(-lam * t * t) * e_mu(mu, np.asarray(1j * y * t))
        want = fourier_quadrature(mu, f, x, sigma=lam)
        got = transform_of_efun_gaussian(mu, lam, y, x)
        assert_allclose(got, want, rtol=1e-10, atol=1e-13)

    def test_hermite_gaussian_needs_dominant_decay(self):
        with pytest.raises(ValueError):
            transform_of_hermite_gaussian(0.5, 2, 1.0, 1.1, np.array([0.0]))


@pytest.mark.parametrize("mu", [-0.25, 0.5, 1.5])
@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("reach", [29.5, 30.5])
def test_quadrature_on_both_sides_of_the_kernel_switch(mu, lam, reach):
    # max|x t| = 30 was where the kernel used to switch from the series to the
    # averaging-measure integral; the grid is scaled to put max|x t| at reach
    t_max = np.max(np.abs(gauss_hermite_mu(mu, 96).nodes)) / math.sqrt(lam)
    x = np.linspace(-1.0, 1.0, 9) * reach / t_max
    got = fourier_quadrature(mu, lambda t: np.exp(-lam * t * t), x, sigma=lam)
    assert_allclose(got, transform_of_gaussian(mu, lam, x), rtol=1e-13, atol=0)


def _kernel_on_every_node(mu, x, t):
    """c_s_mu evaluated on the full outer product, without the mirror fold."""
    c, s = c_s_mu(mu, np.outer(x, t))
    return c - 1j * s


@pytest.mark.parametrize("mu", [0.0, -0.25, 0.5, 1.5])
@pytest.mark.parametrize("n", [1, 2, 7, 95, 96])
@pytest.mark.parametrize("reach", [20.0, 45.0])
def test_kernel_mirror_fold_is_exact(mu, n, reach):
    # half the columns are mirrored conjugates; they must equal c_s_mu's own values
    t = gauss_hermite_mu(mu, n).nodes / math.sqrt(0.7)
    x = np.linspace(-1.0, 1.0, 9) * reach / max(np.max(np.abs(t)), 1.0)
    for grid in (x, -x, x[:0]):
        got = _kernel_matrix(mu, grid, t)
        assert got.shape == (len(grid), n)
        assert np.array_equal(got, _kernel_on_every_node(mu, grid, t))


def test_quadrature_past_the_averaging_reach_raises():
    # omega = max|x| / sqrt(sigma) = 25 is past the 96-node rule's reach 18.5;
    # at mu = 0 the quadrature is 0.14 off there, relative to the peak
    for mu in (-0.25, 0.0, 0.5):
        with pytest.raises(ValueError, match="96-node rule's reach 18.51"):
            fourier_quadrature(mu, lambda t: np.exp(-t * t), [25.0], sigma=1.0)


def _reach(n):
    return 2.0 * math.sqrt(2.0 * n) - 2.0 * math.sqrt(11.0 * math.log(10.0)) + 8.5 / math.sqrt(n)


@pytest.mark.parametrize("n", [8, 16, 24, 48, 96, 192, 256])
def test_quadrature_reach_lies_between_the_1e13_and_1e10_crossings(n):
    # on a Gaussian the error relative to the peak passes 1e-13 inside the
    # reach, so nothing accurate is refused, and stays below 1e-10 there, so
    # nothing worse is returned; the rate does not move either crossing
    for mu, sigma in ((-0.45, 1.0), (0.0, 0.3), (3.0, 1.0)):
        x = np.linspace(0.0, _reach(n) * (1.0 - 1e-12), 401) * math.sqrt(sigma)
        got = fourier_quadrature(mu, lambda t: np.exp(-sigma * t * t), x, sigma=sigma, quad_n=n)
        want = transform_of_gaussian(mu, sigma, x)
        err = np.max(np.abs(got - want)) / transform_of_gaussian(mu, sigma, 0.0)
        assert 1e-13 < err <= 1e-10, (mu, n)
        with pytest.raises(ValueError, match="reach"):
            fourier_quadrature(mu, lambda t: np.exp(-sigma * t * t), -1.001 * x, sigma=sigma, quad_n=n)


def test_negative_mu_quadrature_at_large_x_matches_closed_form():
    # max|x t| reaches 186: the cancelling series for this kernel is 3.4e-7 off
    # at x = 10 and 2.4e3 at 14, relative to the peak
    x = np.array([7.0, 10.0, 14.0])
    got = fourier_quadrature(-0.25, lambda t: np.exp(-t * t), x, sigma=1.0)
    peak = transform_of_gaussian(-0.25, 1.0, 0.0)
    assert np.max(np.abs(got - transform_of_gaussian(-0.25, 1.0, x))) <= 1e-13 * peak


@pytest.mark.parametrize("mu", [-0.45, -0.25, 0.0, 0.5, 1.5, 5.0])
@pytest.mark.parametrize("n", [8, 63, 64, 96, 128])
def test_momentum_singular_values_are_the_positive_gauss_nodes(n, mu):
    # |P| is unitarily equivalent to |Q| through F, and the truncated Q is the
    # Jacobi matrix of the hermite_mu rule: the heat and translation routes
    # built on this SVD run on the quadrature's own nodes (for odd n the zero
    # node meets the zero that pads s).  The two sides are different
    # factorizations, the SVD of P's parity block and the rule's t = x^2
    # eigenproblem, so the small nodes are also held node by node in
    # relative terms.  Worst 1.8e-14 absolute (mu = 0.5, n = 63, at x = 9.8)
    # and 3.4e-14 relative (mu = 0, n = 128).
    _, s, _ = _momentum_svd(mu, n)
    want = gauss_hermite_mu(mu, n).nodes[n // 2 :]
    assert_allclose(np.sort(s), want, rtol=0, atol=1e-13)
    assert_allclose(np.sort(s), want, rtol=1e-13, atol=0)


def _gauss(t):
    return np.exp(-t * t)


# Every public float function that takes a real grid x, as (mu, x) -> value.
# They all read x through core._as_grid.
GRID_ROUTES = {
    "phi_eval": lambda mu, x: phi_eval(mu, 3, x),
    "synthesize": lambda mu, x: synthesize(expand(mu, _gauss, 12, sigma=1.0), x),
    "synthesize_complex": lambda mu, x: synthesize(fourier_spectral(expand(mu, _gauss, 12, sigma=1.0)), x),
    "fourier_quadrature": lambda mu, x: fourier_quadrature(mu, _gauss, x, sigma=1.0),
    "fourier_quadrature_inverse": lambda mu, x: fourier_quadrature(mu, _gauss, x, sigma=1.0, inverse=True),
    "transform_of_gaussian": lambda mu, x: transform_of_gaussian(mu, 0.7, x),
    "transform_of_monomial_gaussian": lambda mu, x: transform_of_monomial_gaussian(mu, 3, 0.7, x),
    "transform_of_efun_gaussian": lambda mu, x: transform_of_efun_gaussian(mu, 0.7, 0.4, x),
    "transform_of_hermite_gaussian": lambda mu, x: transform_of_hermite_gaussian(mu, 3, 1.0, 0.6, x),
    "heat_gaussian": lambda mu, x: heat_gaussian(mu, 0.8, 0.3, 0.3, x),
    "heat_gaussian_complex": lambda mu, x: heat_gaussian(mu, 0.8 + 0.2j, 0.2 + 0.1j, 0.3, x),
    "heat_odd_gaussian": lambda mu, x: heat_odd_gaussian(mu, 0.8, 0.3, x),
    "heat_apply_kernel": lambda mu, x: heat_apply_kernel(mu, _gauss, 0.4, x, sigma=1.0),
    "c_s_mu.c": lambda mu, x: c_s_mu(mu, x)[0],
    "c_s_mu.s": lambda mu, x: c_s_mu(mu, x)[1],
    "hermite_eval": lambda mu, x: hermite_eval(mu, 5, x),
    "translate_gaussian_closed": lambda mu, x: translate_gaussian_closed(mu, 0.5, x, 0.3),
    "translate_odd_gaussian_closed": lambda mu, x: translate_odd_gaussian_closed(mu, 0.5, x, 0.3),
}


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("mu", [-0.25, 0.0, 0.5])
def test_non_finite_x_refused_on_every_route(mu, x):
    # in any shape, on every route: cos and sin (mu = 0) and the recurrence
    # (mu != 0) alike
    for call in [*GRID_ROUTES.values(), lambda mu, x: phi_poly_table(mu, 4, x)]:
        for bad in (x, [x, 1.0], np.array([[1.0], [x]])):
            with pytest.raises(ValueError, match="finite"):
                call(mu, bad)


@pytest.mark.parametrize("mu", [0.0, 0.3141])
@pytest.mark.parametrize("name", [*sorted(GRID_ROUTES), "phi_poly_table"])
def test_one_grid_convention(name, mu):
    if name == "phi_poly_table":
        # a table holds one row per degree, each row in x's shape, and runs
        # the flat grid's arithmetic
        grid = np.array([[-1.5, -0.25, 0.0], [0.5, 1.25, 2.0]])
        got = phi_poly_table(mu, 4, grid)
        assert got.shape == (5, 2, 3)
        assert_array_equal(got, phi_poly_table(mu, 4, grid.ravel()).reshape(5, 2, 3))
        assert_array_equal(phi_poly_table(mu, 4, grid.tolist()), got)
        assert phi_poly_table(mu, 4, 1.25).shape == (5,)
        assert_array_equal(phi_poly_table(mu, 4, 1.25), phi_poly_table(mu, 4, [1.25])[:, 0])
        return
    call = GRID_ROUTES[name]
    # a scalar of any spelling gives the same Python float or complex
    scalars = [call(mu, v) for v in (1.25, np.float64(1.25), np.array(1.25))]
    assert {type(v) for v in scalars} <= {float, complex}
    assert len({type(v) for v in scalars}) == 1
    assert scalars[0] == scalars[1] == scalars[2]
    # a scalar is the one-point grid, bit for bit
    assert scalars[0] == call(mu, [1.25])[0]
    # a 2-D x keeps its shape and runs the flat grid's arithmetic
    grid = np.array([[-1.5, -0.25, 0.0], [0.5, 1.25, 2.0]])
    flat = call(mu, grid.ravel())
    got = call(mu, grid)
    assert got.shape == (2, 3)
    assert_array_equal(got, flat.reshape(2, 3))
    # a list is read as the array it spells
    assert_array_equal(call(mu, grid.tolist()), got)


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
def test_envelope_rate_must_be_finite_and_positive(sigma):
    f = lambda t: np.exp(-0.5 * t * t)
    with pytest.raises(ValueError, match="envelope rate"):
        expand(0.5, f, 8, sigma=sigma)
    with pytest.raises(ValueError, match="envelope rate"):
        l2mu_norm(f, sigma=sigma, mu=0.5)
    with pytest.raises(ValueError, match="envelope rate"):
        fourier_quadrature(0.5, f, [0.0, 1.0], sigma=sigma)


def test_l2mu_norm_of_ground_gaussian():
    for mu in (0.0, 0.75, 1.5):
        got = l2mu_norm(lambda t: np.exp(-0.5 * t * t), sigma=0.5, mu=mu)
        assert_allclose(got, math.sqrt(gamma_half(mu)), rtol=1e-13)


def _fresh(call):
    """call() on a memo that holds nothing yet, then again on the entry it stored."""
    _array_memo.clear()
    cold = call()
    before = _array_memo.info()
    warm = call()
    after = _array_memo.info()
    assert after.hits > before.hits and after.misses == before.misses
    return cold, warm


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("mu", [-0.25, 0.0, 0.5, 1.5])
def test_memo_hit_equals_a_cold_build(mu, inverse):
    x = np.linspace(-3.0, 3.0, 20)
    f = lambda t: (1.0 + t**3) * np.exp(-0.7 * t * t)
    cold, warm = _fresh(lambda: fourier_quadrature(mu, f, x, sigma=0.7, inverse=inverse))
    assert_array_equal(warm, cold)
    # f is sampled on every call; only its kernel is kept
    g = lambda t: np.exp(-0.7 * t * t)
    assert_allclose(fourier_quadrature(mu, g, x, sigma=0.7, inverse=inverse), transform_of_gaussian(mu, 0.7, x), rtol=1e-12)
    cold, warm = _fresh(lambda: expand(mu, f, 30, sigma=0.7))
    assert_array_equal(warm.coeffs, cold.coeffs)
    assert warm.parseval_defect == cold.parseval_defect
    cold, warm = _fresh(lambda: synthesize(expand(mu, f, 30, sigma=0.7), x))
    assert_array_equal(warm, cold)


def test_memo_stores_read_only_arrays():
    _array_memo.clear()
    x = np.linspace(-2.0, 2.0, 9)
    f = lambda t: np.exp(-t * t)
    synthesize(expand(0.5, f, 12, sigma=1.0), x)
    fourier_quadrature(0.5, f, x, sigma=1.0)
    assert _array_memo.info().entries == 3
    for stored in _array_memo._entries.values():
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 0.0


def test_memo_keys_tell_x_from_minus_x_and_one_shape_from_another():
    _array_memo.clear()
    x = np.array([0.5, 1.0, 2.0, 2.5])
    f = lambda t: np.exp(-t * t)
    plus = fourier_quadrature(0.5, f, x, sigma=1.0)
    minus = fourier_quadrature(0.5, f, -x, sigma=1.0)
    assert _array_memo.info().misses == 2
    # the transform of an even f is even and real
    assert_allclose(minus, plus, rtol=1e-14)
    flat = _array_memo(_memo_key(x), np.negative, x)
    square = _array_memo(_memo_key(x.reshape(2, 2)), np.negative, x.reshape(2, 2))
    assert flat.shape == (4,) and square.shape == (2, 2)
    assert _array_memo.info().misses == 4


def test_phi_poly_table_stays_fresh_and_writable():
    x = np.linspace(-2.0, 2.0, 9)
    first = phi_poly_table(0.5, 8, x)
    want = first.copy()
    first[:] = 99.0
    assert_array_equal(phi_poly_table(0.5, 8, x), want)
    vec = SpectralVector(0.5, np.eye(9)[3])
    assert_array_equal(synthesize(vec, x), synthesize(vec, x))
    assert_allclose(synthesize(vec, x), phi_eval(0.5, 3, x), rtol=1e-14)


def test_phi_poly_table_raises_where_its_entries_leave_float64():
    # phi_eval(0.5, 600, 40.0) was nan, with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape("phi_n(x) e^(x^2/2) leaves float64 at n = 567, x = 40.0 (mu = 0.5)")
        with pytest.raises(OverflowError, match=f"^{message}$"):
            phi_eval(0.5, 600, 40.0)
        with pytest.raises(OverflowError, match=r"at n = 567, x = -40\.0 "):
            phi_poly_table(0.5, 600, [[1.0, -40.0], [40.0, 2.0]])
        assert np.isfinite(phi_poly_table(0.5, 566, [1.0, -40.0, 40.0])).all()
        # past |x| = 38.6 e^(-x^2/2) underflows: phi_600(39) is about 1e-24, and reads 0
        assert phi_eval(0.5, 600, 39.0) == 0.0


def test_refused_calls_leave_the_memo_as_it_was():
    _array_memo.clear()
    f = lambda t: np.exp(-t * t)
    for x in ([math.nan, 1.0], [math.inf, 1.0], [40.0]):
        with pytest.raises(ValueError):
            fourier_quadrature(0.5, f, x, sigma=1.0)

    def broken(value, x):
        raise ArithmeticError("no build")

    with pytest.raises(ArithmeticError):
        _array_memo((0.5, 3), broken, 0.5, np.ones(3))
    assert _array_memo.info() == (0, 1, 0, 0)


def test_criterion_4_builds_one_kernel_per_distinct_grid(monkeypatch):
    # criterion 4 transforms 11 eigenfunctions at each of 3 mu on one grid
    keys = []

    def recording(mu, f, x, *, sigma, quad_n=96, inverse=False):
        keys.append((mu, sigma, quad_n, inverse, np.asarray(x, dtype=float).tobytes()))
        return fourier_quadrature(mu, f, x, sigma=sigma, quad_n=quad_n, inverse=inverse)

    monkeypatch.setattr(verify, "fourier_quadrature", recording)
    _array_memo.clear()
    assert verify.run_criterion(4).passed
    info = _array_memo.info()
    assert len(keys) == 33
    assert info.misses == len(set(keys)) == 3
    assert info.hits == len(keys) - info.misses


class TestOperatorMatrix:
    def test_lowering_entries(self):
        mu = 0.5
        m = operator_matrix(mu, "A", 6)
        for n in range(1, 6):
            assert_allclose(m[n - 1, n], math.sqrt(n + 2 * mu * (n % 2)), rtol=1e-15)
        assert np.count_nonzero(m) == 5

    def test_adjoint_pair(self):
        a = operator_matrix(0.75, "A", 8)
        adag = operator_matrix(0.75, "Adag", 8)
        assert_allclose(adag, a.conj().T, atol=1e-15)

    def test_position_momentum_hermitian(self):
        for kind in ("Q", "P", "H"):
            m = operator_matrix(0.8, kind, 10)
            assert_allclose(m, m.conj().T, atol=1e-14)

    def test_parity_and_transform_diagonals(self):
        j = operator_matrix(0.5, "J", 6)
        f = operator_matrix(0.5, "F", 6)
        assert_allclose(np.diag(j), [1, -1, 1, -1, 1, -1], atol=1e-15)
        assert_allclose(np.diag(f), [(-1j) ** n for n in range(6)], atol=1e-15)
        assert_allclose(f @ f @ f @ f, np.eye(6), atol=1e-14)

    def test_energy_levels(self):
        mu = 1.5
        h = operator_matrix(mu, "H", 7)
        assert_allclose(np.diag(h).real, [n + mu + 0.5 for n in range(7)], rtol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            operator_matrix(0.5, "X", 4)

    def test_read_only(self):
        with pytest.raises(ValueError):
            operator_matrix(0.5, "A", 4)[0, 1] = 1.0
