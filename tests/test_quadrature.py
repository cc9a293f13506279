import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_genlaguerre, roots_jacobi

from muhermite.core import gamma_half, gamma_mu, gamma_mu_exact, gamma_step
import muhermite.quadrature as quadrature
from muhermite.hermite import hermite_coeffs
from muhermite.translate import translate_alpha
from muhermite.quadrature import _jacobi_coefficients, _recurrence_table, gauss_alpha_mu, gauss_hermite_mu, jacobi_rule


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
            got = np.dot(rule.weights, rule.nodes ** (2 * r))
            want = math.gamma(r + mu + 0.5)
            assert_allclose(got, want, rtol=1e-12)

    def test_odd_moments_cancel(self):
        rule = gauss_hermite_mu(1.2, 16)
        got = np.dot(rule.weights, rule.nodes**7)
        assert abs(got) < 1e-13 * math.gamma(1.2 + 4.0)

    def test_node_count_guard(self):
        with pytest.raises(ValueError):
            gauss_hermite_mu(0.5, 0)
        with pytest.raises(ValueError):
            gauss_hermite_mu(0.5, 257)


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


def _laguerre_reduction(mu, n):
    """The n-point hermite_mu rule from scipy's generalized Laguerre rule in t = x^2.

    n = 2m: nodes +-sqrt(t_k), t_k the roots of L_m^(mu-1/2), weights w_k / 2.
    n = 2m+1: nodes 0 and +-sqrt(t_k) with L_m^(mu+1/2), weights w_k / (2 t_k)
    and Gamma(mu + 1/2) - sum w_k / t_k at the origin.
    """
    m, odd = divmod(n, 2)
    t, w = roots_genlaguerre(m, mu - 0.5 + odd) if m else (np.empty(0), np.empty(0))
    if odd:
        w = w / t
        centre = [math.gamma(mu + 0.5) - w.sum()]
    else:
        centre = []
    root = np.sqrt(t)
    return np.concatenate((-root[::-1], [0.0] * odd, root)), np.concatenate((0.5 * w[::-1], centre, 0.5 * w))


@pytest.mark.parametrize("mu", [-0.49, -0.25, 0.0, 0.5, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3, 33, 255])
def test_odd_and_small_rules_match_scipy_laguerre(mu, n):
    rule = gauss_hermite_mu(mu, n)
    nodes, weights = _laguerre_reduction(mu, n)
    if n % 2:
        # scipy's weight at the origin is the mass less all the others, so it is
        # good to n ulps of the mass only (at mu = 3, n = 255 it is 1.6e-6 of
        # 3.3); the 25-digit test below checks it per weight
        assert abs(rule.weights[n // 2] - weights[n // 2]) <= 1e-13 * rule.mass
        weights[n // 2] = rule.weights[n // 2]
    assert_allclose(rule.nodes, nodes, rtol=1e-12, atol=0)
    assert_allclose(rule.weights, weights, rtol=1e-10, atol=0)


def _mp_hermite_half_rule(mu, n):
    """Nonnegative nodes and their weights of the n-point hermite_mu rule, to 25 digits.

    Each root of L_m^(a)(t), a = mu - 1/2 + (n mod 2), is polished by Newton's
    method on the three-term recurrence in mpmath, at 30 digits, until the
    step is below 1e-22 of the root; the next step would be near the floor.
    The start is scipy's roots at a, or at a + 1 = 1e-9 nearer the pole,
    where scipy loses them, with the smallest root scaled by (a + 1) / 1e-9:
    it is about (a + 1) / m there.
    """
    mpmath = pytest.importorskip("mpmath")
    m, odd = divmod(n, 2)
    with mpmath.workdps(30):
        a = mpmath.mpf(mu) + mpmath.mpf(1) / 2 + odd - 1

        def laguerre(t):
            prev, cur = mpmath.mpf(1), 1 + a - t
            for k in range(1, m):
                prev, cur = cur, ((2 * k + 1 + a - t) * cur - (k + a) * prev) / (k + 1)
            return cur, (m * cur - (m + a) * prev) / t

        a_start = max(float(a), -1.0 + 1e-9)
        start = [mpmath.mpf(t) for t in roots_genlaguerre(m, a_start)[0]]
        if start:
            start[0] *= (a + 1) / (mpmath.mpf(a_start) + 1)
        scale = mpmath.gamma(m + a + 1) / mpmath.factorial(m)
        roots, weights = [], []
        for t in start:
            for _ in range(50):
                value, slope = laguerre(t)
                step = value / slope
                t -= step
                if abs(step) < mpmath.mpf(10) ** -22 * t:
                    break  # the slope before that step is good to about 1e-20
            else:
                raise AssertionError(f"Newton did not settle on the root near {t}")
            roots.append(t)
            weights.append(scale / (t * slope**2) / (2 * t**odd))
        assert all(left < right for left, right in zip(roots, roots[1:]))
        nodes = [mpmath.sqrt(t) for t in roots]
        if odd:
            nodes.insert(0, mpmath.mpf(0))
            weights.insert(0, mpmath.gamma(mpmath.mpf(mu) + mpmath.mpf(1) / 2) - 2 * mpmath.fsum(weights))
        return np.array(nodes, dtype=float), np.array(weights, dtype=float)


@pytest.mark.parametrize(
    "mu, n",
    [(-0.49, 96), (-0.49, 97), (-0.49, 256)] + [(-0.5 + eps, n) for eps in (1e-12, 1e-13, 1e-15) for n in (96, 256)],
)
def test_small_nodes_keep_their_relative_accuracy_near_the_pole(mu, n):
    # the smallest t = x^2 of an even rule is about (mu + 1/2) / m: 2e-4 at
    # mu = -0.49 and n = 96, 8e-18 at mu = -1/2 + 1e-15 and n = 256.  An error
    # of eps |T| in t would be a relative 1e-9 in x at mu = -0.49 and would
    # leave nothing near the pole; an error in a + 1 = mu + 1/2 moves the
    # smallest node by half of it.  Worst per node 1.3e-15 (mu = -1/2 + 1e-13,
    # n = 256), per weight 8.3e-14 (mu = -1/2 + 1e-12, n = 256), at an outer
    # node, where the last bit of x moves the weight by a relative 2 x^2 eps.
    rule = gauss_hermite_mu(mu, n)
    nodes, weights = _mp_hermite_half_rule(mu, n)
    assert np.all(np.isfinite(rule.nodes)) and np.all(np.isfinite(rule.weights))
    assert_allclose(rule.nodes[n // 2 :], nodes, rtol=2e-15, atol=0)
    assert_allclose(rule.weights[n // 2 :], weights, rtol=2e-13, atol=0)


@pytest.mark.parametrize("rule", [gauss_hermite_mu, gauss_alpha_mu, lambda mu, n: jacobi_rule(mu - 1.0, mu, n)])
def test_rule_size_must_be_an_integer(rule):
    # a float or bool size used to slip through: 8.0 shared the cache entry
    # of 8 or failed inside numpy, 2.5 and True raised obscure TypeErrors
    for size in (8.0, 2.5, True, np.float64(8.0), np.bool_(True)):
        with pytest.raises(TypeError, match="rule size must be an integer"):
            rule(0.5, size)
    assert_allclose(rule(0.5, np.int64(8)).nodes, rule(0.5, 8).nodes, rtol=0, atol=0)


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
    # refused up front: a nan exponent would reach eigvalsh, an inf one build a nan rule
    for a, b, which, bad in (
        (math.nan, 1.0, "a", "nan"), (1.0, math.inf, "b", "inf"), (-math.inf, 0.5, "a", "-inf"), (0.5, math.nan, "b", "nan")
    ):
        with pytest.raises(ValueError, match=f"^jacobi_rule's {which} must be finite and > -1, got {bad}$"):
            jacobi_rule(a, b, 10)


class TestGaussAlphaMu:
    def test_moments_match_closed_form(self):
        for mu in (0.3, 0.75, 2.0):
            rule = gauss_alpha_mu(mu, 24)
            for n in range(12):
                got = np.dot(rule.weights, rule.nodes**n)
                assert_allclose(got, math.factorial(n) / gamma_mu(mu, n), rtol=1e-12, atol=1e-15)

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


def test_derivative_rows_match_exact_hermite_derivatives():
    # p_n = phi_n e^(x^2/2) = c_n H_n(x; mu), c_n^2 = gamma_mu(n) / (2^n n!^2 Gamma(mu + 1/2));
    # the reference differentiates H_n's exact rational coefficients
    mu, n_max = Fraction(1, 3), 20
    x = np.linspace(-4.5, 4.5, 19)
    off = np.sqrt(gamma_step(float(mu), np.arange(1, n_max + 1)) / 2.0)
    args = (np.zeros(n_max), off, gamma_half(float(mu)), x)
    rows = _recurrence_table(*args, order=2)
    assert rows.shape == (3, n_max + 1, len(x))
    assert rows[0].tobytes() == _recurrence_table(*args).tobytes()
    points = [Fraction(t) for t in x]
    for n in range(n_max + 1):
        h = hermite_coeffs(mu, n)
        c = math.sqrt(float(gamma_mu_exact(mu, n) / (2**n * math.factorial(n) ** 2)) / math.gamma(float(mu) + 0.5))
        for j, poly in enumerate((h, h.derivative(), h.derivative().derivative())):
            want = c * np.array([float(poly(t)) for t in points])
            # relative to the row's size, since a row passes near its zeros
            assert_allclose(rows[j, n], want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=f"n={n} j={j}")


def _plain_recurrence(diag, off, mass, x, order):
    """The recursion one step at a time, every step a fresh array."""
    out = np.zeros((order + 1, len(off) + 1, x.size))
    out[0, 0] = 1.0 / math.sqrt(mass)
    for j in range(order + 1):
        for k in range(len(off)):
            step = (x - diag[k]) * out[j, k]
            if k:
                step -= off[k - 1] * out[j, k - 1]
            if j:
                step += j * out[j - 1, k]
            out[j, k + 1] = step / off[k]
    return out


def _recurrence_cases():
    # zero diagonal (hermite_mu, phi) and a nonzero one (Jacobi), nodes at -0.0 and 0.0 too
    x = np.concatenate((np.linspace(-4.0, 4.0, 37), [-0.0, 0.0]))
    alpha, beta = _jacobi_coefficients(0.731 - 1.0, 0.731, 41)
    hermite_off = np.sqrt(gamma_step(0.731, np.arange(1, 41)) / 2.0)
    return x, ((np.zeros(40), hermite_off, gamma_half(0.731)), (alpha, np.sqrt(beta[1:]), 1.0))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_recurrence_table_matches_the_plain_recursion(order):
    # the rows are carried scaled, q_k = p_k / s_k, so they round apart from the
    # plain steps: within 2 (k + 1) eps of row k's largest value (0.96 k eps seen);
    # rows that vanish identically stay exact zeros
    x, cases = _recurrence_cases()
    eps = np.finfo(float).eps
    for diag, off, mass in cases:
        got = _recurrence_table(diag, off, mass, x, order)
        want = _plain_recurrence(diag, off, mass, x, order)
        if order:
            assert got[0].tobytes() == _recurrence_table(diag, off, mass, x).tobytes()
        else:
            got = got[None]
        envelope = np.abs(want).max(axis=2, keepdims=True)
        bound = 2.0 * eps * (np.arange(len(off) + 1)[:, None] + 1.0) * envelope
        assert np.all(np.abs(got - want) <= bound)


def test_recurrence_table_is_its_own_mirror_image_bit_for_bit():
    # p_k(-x) = (-1)^k p_k(x) on a zero diagonal, at x = -0.0 and 0.0 too; the
    # rules' mirror halves and the transform's mirror fold rely on it
    x, ((diag, off, mass), _) = _recurrence_cases()
    sign = (-1.0) ** np.arange(len(off) + 1)[:, None]
    for order in (0, 2):
        p = _recurrence_table(diag, off, mass, x, order)
        mirror = _recurrence_table(diag, off, mass, -x, order)
        rows = (p, mirror) if order == 0 else (p[0], mirror[0])
        assert rows[1].tobytes() == (sign * rows[0]).tobytes()


@pytest.mark.parametrize("case", ["mu=-1/2+1e-13", "mu=170", "jacobi a=-1+1e-12"])
def test_recurrence_table_stays_finite_and_quiet_at_the_extremes(case):
    # 256 rows and their derivatives at the rule's own nodes and at the ends:
    # the scales s_k swing with off[k-1] / off[k], 3e-7 at mu = -1/2 + 1e-13
    if case.startswith("jacobi"):
        a = -1.0 + 1e-12
        alpha, beta = _jacobi_coefficients(a, a + 1.0, 257)
        diag, off, mass = alpha[:256], np.sqrt(beta[1:]), 1.0
        x = np.append(gauss_alpha_mu(1e-12, 256).nodes, [-1.0, 1.0])
    else:
        mu = -0.5 + 1e-13 if case == "mu=-1/2+1e-13" else 170.0
        diag, off, mass = np.zeros(256), np.sqrt(gamma_step(mu, np.arange(1, 257)) / 2.0), gamma_half(mu)
        x = np.append(gauss_hermite_mu(mu, 256).nodes, [-0.0, 0.0])
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        rows = _recurrence_table(diag, off, mass, x, order=2)
    assert np.all(np.isfinite(rows))
    assert rows[0].tobytes() == _recurrence_table(diag, off, mass, x).tobytes()


@pytest.mark.parametrize("a, b", [(-0.5, 0.5), (0.731 - 1.0, 0.731), (0.25, 0.25), (3.5, -0.75)])
def test_jacobi_coefficients_as_arrays_keep_every_bit(a, b):
    # the k >= 2 coefficients, formula by formula in Python floats
    alpha, beta = _jacobi_coefficients(a, b, 193)
    s = a + b
    for k in range(2, 193):
        t = 2.0 * k + s
        assert alpha[k] == (b * b - a * a) / (t * (t + 2.0))
        assert beta[k] == 4.0 * k * (k + a) * (k + b) * (k + s) / (t * t * (t + 1.0) * (t - 1.0))


# Uncached rule builders, each returning its nodes: hermite_mu (mu, n), and the
# Jacobi weight (a, b) behind both gauss_alpha_mu and jacobi_rule.
_HERMITE_BUILDS = [(mu, n) for mu in (-0.45, 0.0, 0.7731, 3.0) for n in (2, 32, 33, 256)]
_JACOBI_BUILDS = [(mu - 1.0, mu, n) for mu in (0.05, 0.7731, 2.4) for n in (2, 80, 192)] + [
    (0.3, -0.6, n) for n in (2, 80, 192)
]


def _build(case):
    if len(case) == 2:
        return quadrature._hermite_rule_cached.__wrapped__(*case).nodes
    return quadrature._jacobi_rule_cached.__wrapped__(*case).nodes


@pytest.mark.parametrize("case", _HERMITE_BUILDS + _JACOBI_BUILDS, ids=str)
def test_polish_curvature_is_the_second_derivative_ratio(monkeypatch, case):
    # _polish carries the Christoffel number across the Newton step with
    # K = p_n'' / p_n' at a zero of p_n; a slip in K's sign or formula shows
    # against the order-2 rows of the same recurrence at the rule's nodes.
    # K crosses 0 between nodes, where the rounded node's p_n term of the
    # differential equation is left (1.3e-8 of K at one Jacobi n = 192 node),
    # so the rtol is of the size of K's two terms
    seen = []
    polish = quadrature._polish

    def recorder(diag, off, x, curvature):
        seen.append((diag, off, curvature))
        return polish(diag, off, x, curvature)

    monkeypatch.setattr(quadrature, "_polish", recorder)
    nodes = _build(case)
    ((diag, off, curvature),) = seen
    x = nodes[nodes != 0.0]
    rows = _recurrence_table(diag, off, 1.0, x, order=2)
    if len(case) == 2:
        terms = 2.0 * np.abs(x) + 2.0 * abs(case[0]) / np.abs(x)
    else:
        terms = (abs(case[0] - case[1]) + abs(case[0] + case[1] + 2.0) * np.abs(x)) / (1.0 - x * x)
    assert np.all(np.abs(curvature(x) - rows[2, len(diag)] / rows[1, len(diag)]) <= 1e-9 * terms)


@pytest.mark.parametrize("case", [(0.7731, 32), (0.7731, 33), (0.7731 - 1.0, 0.7731, 80), (0.3, -0.6, 2)], ids=str)
def test_each_rule_build_runs_the_recurrence_once(monkeypatch, case):
    calls = []
    table = quadrature._recurrence_table
    monkeypatch.setattr(quadrature, "_recurrence_table", lambda *a, **k: calls.append(a) or table(*a, **k))
    _build(case)
    assert len(calls) == 1


def _christoffel_at_true_zeros(diag, beta, mass, nodes):
    """Christoffel numbers at the true zeros of P_n, to 30 digits, by Newton from the given nodes.

    P is monic, P_{k+1} = (x - diag[k]) P_k - beta[k] P_{k-1} (beta[0] unused), and
    the Christoffel number is 1 / sum_{k<n} P_k^2 / h_k, h_k = mass beta[1] ... beta[k].
    Every argument is a Decimal; the arithmetic is 30-digit decimal on object
    arrays, about ten times faster than mpmath's pure-Python numbers.  One Newton
    step from a float node lands within ~1e-30 of the zero; the next step is checked.
    """
    n = len(diag)
    with localcontext(prec=30):
        x = np.array([Decimal(float(v)) for v in nodes], dtype=object)
        zero, one = np.full_like(x, Decimal(0)), np.full_like(x, Decimal(1))
        prev, cur, dprev, dcur = zero, one, zero, zero
        for k in range(n):
            shifted = x - diag[k]
            prev, cur, dprev, dcur = cur, shifted * cur - beta[k] * prev, dcur, cur + shifted * dcur - beta[k] * dprev
        x = x - cur / dcur
        inv_h = [1 / mass]
        for k in range(1, n):
            inv_h.append(inv_h[-1] / beta[k])
        prev, cur, total = zero, one, zero
        for k in range(n):
            total = total + cur * cur * inv_h[k]
            prev, cur = cur, (x - diag[k]) * cur - beta[k] * prev
        assert all(abs(c / d) <= Decimal("1e-26") * max(abs(v), 1) for c, d, v in zip(cur, dcur, x))
        return np.array([float(1 / v) for v in total])


def _jacobi_recursion(a, b, n):
    """Monic recursion coefficients of (1-t)^a (1+t)^b as 30-digit Decimals, beta[0] unused."""
    a, b = Decimal(a), Decimal(b)
    s = a + b
    diag = [(b - a) / (s + 2)] + [(b * b - a * a) / ((2 * k + s) * (2 * k + s + 2)) for k in range(1, n)]
    beta = [0, 4 * (1 + a) * (1 + b) / ((2 + s) ** 2 * (3 + s))] + [
        4 * k * (k + a) * (k + b) * (k + s) / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)) for k in range(2, n)
    ]
    return diag, beta


@pytest.mark.parametrize(
    "case",
    [(-0.95, 0.05, 80), (1.4, 2.4, 80), (-0.45, 96), (-0.45, 97), (1.5, 96), (1.5, 97), (0.77, 256), (2.4, 256)],
    ids=str,
)
def test_one_pass_weights_match_christoffel_numbers_at_the_true_zeros(case):
    # worst 5.7e-14 (Jacobi (1.4, 2.4)); the two-pass weights at the rounded nodes
    # were 1.3e-13 there.  hermite_mu: the nonnegative half, the rule is its mirror;
    # at the 256 nodes the benchmark builds, 2.9e-14 (mu = 0.77) and 2.3e-14 (mu = 2.4)
    mpmath = pytest.importorskip("mpmath")
    with localcontext(prec=30), mpmath.workdps(34):
        if len(case) == 3:
            a, b, n = case
            rule = jacobi_rule(a, b, n)
            diag, beta = _jacobi_recursion(a, b, n)
            mass = 2 ** (mpmath.mpf(a) + b + 1) * mpmath.beta(mpmath.mpf(a) + 1, b + 1)
            nodes, weights = rule.nodes, rule.weights
        else:
            mu, n = case
            rule = gauss_hermite_mu(mu, n)
            diag = [Decimal(0)] * n
            beta = [0] + [(k + 2 * Decimal(mu) * (k % 2)) / 2 for k in range(1, n)]
            mass = mpmath.gamma(mpmath.mpf(mu) + 0.5)
            nodes, weights = rule.nodes[n // 2 :], rule.weights[n // 2 :]
        mass = Decimal(mpmath.nstr(mass, 34, min_fixed=-mpmath.inf, max_fixed=mpmath.inf))
    assert_allclose(weights, _christoffel_at_true_zeros(diag, beta, mass, nodes), rtol=2e-13, atol=0)


@pytest.mark.parametrize("mu", [1.3, 0.4])
def test_averaging_weights_match_christoffel_numbers_within_the_node_rounding_bound(mu):
    # gauss_alpha_mu at the 192 nodes the benchmark builds.  Next to t = +-1 a
    # weight moves by |K(t)| = |d log w / dt| times the rounding of its node, so the
    # bound is 2e-13 + eps |K(t)|, its multiple set from measured errors: the outermost
    # weights 5.1e-13 (mu = 1.3) and 3.5e-13 (mu = 0.4) off, 0.48 eps |K| past the 2e-13
    rule = gauss_alpha_mu(mu, 192)
    a, b, t = mu - 1.0, mu, rule.nodes
    diag, beta = _jacobi_recursion(a, b, 192)
    want = _christoffel_at_true_zeros(diag, beta, Decimal(1), t)
    curvature = np.abs((a - b + (a + b + 2.0) * t) / (1.0 - t * t))
    assert np.all(np.abs(rule.weights / want - 1.0) <= 2e-13 + np.finfo(float).eps * curvature)


class TestJacobiMass:
    # the unit-mass rule reads no mass; jacobi_rule forms it in log space
    @pytest.mark.parametrize("mu", [1e3, 1e5, 1e7])
    def test_averaging_rule_past_the_mass_overflow(self, mu):
        rule = gauss_alpha_mu(mu, 64)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-15, abs=0.0)
        for n in range(1, 26):
            # n! / gamma_mu(n) from exact rationals (log-gamma would round at 3e-14 here);
            # odd moments nearly cancel, so measure against the n-th absolute moment
            want = float(math.factorial(n) / gamma_mu_exact(Fraction(mu), n))
            scale = np.dot(rule.weights, np.abs(rule.nodes) ** n)
            assert abs(np.dot(rule.weights, rule.nodes**n) - want) <= 8e-15 * scale

    def test_translate_alpha_past_the_mass_overflow(self):
        # z^2 translates to x^2 + y^2 + 2 x y E[t], E[t] = 1 / gamma_mu(1) = 1 / (2 mu + 1)
        x, y, mu = 0.3, 0.2, 1e5
        got = translate_alpha(mu, lambda z: z * z, x, y)
        assert got == pytest.approx(x * x + y * y + 2.0 * x * y / gamma_mu(mu, 1), rel=1e-14)

    @pytest.mark.parametrize("a, b", [(1e5, 1e5), (1e3, 0.5), (0.3, -0.6), (1.4, 2.4)])
    def test_mass_formed_in_log_space(self, a, b):
        # log-gamma rounds each of its terms, so the mass is good to eps times their size:
        # 1.2e-10 relative at a = b = 1e5, where the true mass is 0.0056
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = float(2 ** (mpmath.mpf(a) + b + 1) * mpmath.beta(mpmath.mpf(a) + 1, b + 1))
        rule = jacobi_rule(a, b, 8)
        terms = abs(math.lgamma(a + 1.0)) + abs(math.lgamma(b + 1.0)) + abs(math.lgamma(a + b + 2.0)) + 1.0
        assert rule.mass == pytest.approx(want, rel=4.0 * np.finfo(float).eps * terms)
        assert np.array_equal(rule.weights, rule.mass * quadrature._jacobi_rule_cached(a, b, 8).weights)

    def test_a_mass_past_the_float_range_raises_naming_it(self):
        with pytest.raises(OverflowError, match=r"Jacobi mass .* \(a, b\) = \(1e\+06, 1\) .* past the float range"):
            jacobi_rule(1e6, 1.0, 8)
