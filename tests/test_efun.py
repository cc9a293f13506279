import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from muhermite.core import MU_CACHE_SIZE, gamma_mu, gamma_step
from muhermite.efun import _TABLE_BYTES, _miller, _series, _term_count, c_s_mu, e_mu, heat_kernel, mehler_rhs
from muhermite.quadrature import gauss_alpha_mu, gauss_hermite_mu
from muhermite.transform import phi_eval


def test_reduces_to_exp_at_mu_zero():
    for z in (0.3, -1.7, 2.0 + 1.5j, -0.4j, 25.0):
        assert_allclose(e_mu(0.0, z), np.exp(z), rtol=1e-13)


def test_value_at_origin_is_one():
    for mu in (0.0, 0.4, 1.7, -0.2):
        assert e_mu(mu, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_series_terms_are_reciprocal_gamma():
    # e(z) = sum z^n / gamma_mu(n); check against a direct partial sum
    mu, z = 0.8, 0.9
    direct = sum(z**n / gamma_mu(mu, n) for n in range(60))
    assert_allclose(e_mu(mu, z), direct, rtol=1e-14)


def test_array_input_broadcasts():
    z = np.array([0.1, -0.3, 2.0])
    vals = e_mu(0.5, z)
    assert vals.shape == (3,)
    assert_allclose(vals[1], e_mu(0.5, -0.3), rtol=1e-14)


def test_large_argument_positive_mu_stays_accurate():
    # the backward recurrence has no cancellation at large |x|
    c, s = c_s_mu(1.2, 50.0)
    assert math.isfinite(c) and math.isfinite(s)
    assert c * c + s * s <= 1.0 + 1e-12


def test_cos_sin_matches_series_at_moderate_argument():
    mu, x = 0.7, 3.0
    c, s = c_s_mu(mu, x)
    val = e_mu(mu, complex(0.0, -x))
    assert_allclose(c, val.real, rtol=1e-12, atol=1e-14)
    assert_allclose(s, -val.imag, rtol=1e-12, atol=1e-14)


def test_cos_sin_classical_reduction():
    c, s = c_s_mu(0.0, 2.0)
    assert_allclose((c, s), (math.cos(2.0), math.sin(2.0)), rtol=1e-14)


def test_cos_sin_exact_at_mu_zero_inside_the_series_range():
    for x in np.linspace(-12.0, 12.0, 97):
        c, s = c_s_mu(0.0, float(x))
        assert_allclose((c, s), (math.cos(x), math.sin(x)), rtol=0, atol=1e-15)


def test_negative_mu_large_argument_matches_bessel():
    # past |x| = 30, where the series for -1/2 < mu < 0 is hopeless in float64
    # (at 29.9 its error is 4.2e-4 for mu = -0.25)
    for mu in (-0.25, -0.45):
        assert_allclose(c_s_mu(mu, 40.0), _mp_cos_sin(mu, 40.0), rtol=1e-13, atol=1e-13)


@given(st.floats(min_value=-1e4, max_value=1e4), st.sampled_from([0.0, 0.4, 1.7]))
@example(0.0, 0.4)
@example(5e-324, 0.4)
@example(-1e-300, 1.7)
@example(3.457971446969339e-174, 0.4)
def test_oscillatory_values_stay_in_unit_disc(x, mu):
    # the whole domain of c_s_mu; where x^2 underflows, (c, s) is (1, x / (2 mu + 1))
    c, s = c_s_mu(mu, x)
    assert c * c + s * s <= 1.0 + 1e-10
    if abs(x) < 1e-160:
        assert c == 1.0
        assert s == pytest.approx(x / (2.0 * mu + 1.0), rel=1e-15, abs=0.0)


def test_mehler_rhs_small_z_matches_eigenfunction_series():
    mu, x, y = 0.9, 0.7, -1.1
    z = 0.05
    series = sum(phi_eval(mu, n, x) * phi_eval(mu, n, y) * z**n for n in range(24))
    assert_allclose(mehler_rhs(mu, x, y, z), series, rtol=1e-12)


def test_mehler_rhs_z_zero_is_rank_one():
    mu, x, y = 1.5, 0.4, 0.9
    assert_allclose(
        mehler_rhs(mu, x, y, 0.0), phi_eval(mu, 0, x) * phi_eval(mu, 0, y), rtol=1e-13
    )


@pytest.mark.parametrize("z", [1.0, -1.5, 2j, math.inf, math.nan, complex(0.0, math.nan)])
def test_mehler_rhs_refuses_z_outside_the_unit_disc(z):
    # a nan z reached e_mu, which refused it as "the deformed exponential needs a finite argument"
    with pytest.raises(ValueError, match=r"^the bilinear kernel needs \|z\| < 1$"):
        mehler_rhs(0.5, 0.3, 0.4, z)


class TestHeatKernel:
    def test_symmetry(self):
        assert_allclose(heat_kernel(0.8, 0.5, 1.2, 0.3), heat_kernel(0.8, 1.2, 0.5, 0.3), rtol=1e-13)

    def test_classical_reduction(self):
        x, y, t = 0.4, -0.9, 0.35
        want = math.exp(-((x - y) ** 2) / (4 * t)) / math.sqrt(4 * math.pi * t)
        assert_allclose(heat_kernel(0.0, x, y, t), want, rtol=1e-12)

    def test_positive_for_positive_mu(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, size=2)
            assert heat_kernel(1.5, float(x), float(y), 0.4) > 0

    def test_needs_positive_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.5, 0.1, 0.2, 0.0)


def test_overflow_raises_instead_of_inf_or_nan():
    with pytest.raises(OverflowError, match="overflows float64"):
        e_mu(0.5, 800.0)
    with pytest.raises(OverflowError, match="overflows float64"):
        heat_kernel(0.5, 30.0, 30.0, 0.5)
    with pytest.raises(OverflowError):
        e_mu(0.5, np.array([1.0, 1e12]))


def test_non_finite_argument_refused():
    for z in (math.inf, math.nan, complex(0.0, math.inf), np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            e_mu(0.5, z)


def _mp_exp(z):
    with mpmath.workdps(40):
        return complex(mpmath.exp(mpmath.mpc(z)))


def test_mu_zero_is_within_two_ulp_of_a_40_digit_exp():
    # numpy's exp at mu = 0, for every spelling of 0, scalar and array alike;
    # the series was 9.7e-11 relative off at z = -7.92 and 1.3e288 at -703
    real = np.linspace(-700.0, 700.0, 1401)
    want = np.array([_mp_exp(z).real for z in real])
    for mu in (0.0, -0.0, 0, Fraction(0), np.int64(0)):
        for got in (e_mu(mu, real), np.array([e_mu(mu, z) for z in real])):
            assert got.dtype == np.float64
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), mu
    rng = np.random.default_rng(5)
    zc = rng.uniform(0.0, 700.0, 400) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    want = np.array([_mp_exp(z) for z in zc])
    for got in (e_mu(0.0, zc), np.array([e_mu(0.0, complex(z)) for z in zc])):
        assert got.dtype == np.complex128
        assert np.all(np.abs(got - want) <= 2 * 2.0**-52 * np.abs(want))
    assert type(e_mu(0.0, 1.5)) is float and type(e_mu(0.0, 1.5j)) is complex


def test_mu_zero_keeps_the_series_overflow_boundary_and_checks():
    # |z| + ln |z| past ln(float max), as the series checks it at mu = 0
    assert e_mu(0.0, 703.0) == pytest.approx(2.0371395384060414e305, rel=1e-15)
    assert 0.0 < e_mu(0.0, -703.0) < 1e-305
    assert math.isfinite(abs(e_mu(0.0, 703j)))
    for z in (703.5, -703.5, 703.5j, np.array([0.0, 703.5]), np.array([703.5 + 0j]), np.full((1, 1), -703.5)):
        with pytest.raises(OverflowError, match="overflows float64"):
            e_mu(0.0, z)
    for z in (math.inf, math.nan, complex(0.0, math.inf), np.array([0.0, math.nan])):
        with pytest.raises(ValueError, match="finite"):
            e_mu(0.0, z)


def test_series_term_count_is_planned_per_mu_and_radius():
    _term_count.cache_clear()
    z = np.linspace(-8.0, 8.0, 201)
    cold = e_mu(0.5, z)
    assert_array_equal(e_mu(0.5, z), cold)
    e_mu(0.5, -8.0)  # the same radius as the grid
    assert _term_count.cache_info()[:2] == (2, 1)
    e_mu(0.0, z)  # exp reads no plan
    assert _term_count.cache_info()[:2] == (2, 1)
    # a refused radius raises on every call and plans nothing
    for _ in range(2):
        with pytest.raises(OverflowError):
            e_mu(0.5, 800.0)
    assert _term_count.cache_info().currsize == 1
    assert _term_count.cache_info().maxsize == MU_CACHE_SIZE


def _mp_series(mu, z, dps=50):
    """e(z; mu) and sum of |terms| = e(|z|; mu), summed at ``dps`` digits."""
    with mpmath.workdps(dps):
        mu, z = mpmath.mpf(mu), mpmath.mpc(z)
        r = abs(z)
        term, size = mpmath.mpc(1), mpmath.mpf(1)
        total, total_size = term, size
        m = 0
        while not (m > r and size < total_size * mpmath.mpf(10) ** (-dps)):
            m += 1
            step = m + 2 * mu * (m % 2)
            term, size = term * z / step, size * r / step
            total, total_size = total + term, total_size + size
        return complex(total), float(total_size)


_REFERENCE_Z = (
    [float(z) for z in np.linspace(-150.0, 150.0, 13)]
    + [-30.5, -35.0, -50.0, -80.0]
    + [complex(0.0, y) for y in np.linspace(-30.0, 30.0, 9)]
    + [complex(a, b) for a in (-8.0, -3.0, 5.0, 8.0) for b in (-8.0, 2.0, 8.0)]
)


@pytest.mark.parametrize("mu", [-0.45, -0.25, 0.0, 0.5, 1.5])
def test_matches_mpmath_within_eps_of_term_magnitudes(mu):
    # |err| <= 16 eps e(|z|; mu): the best a float64 sum of these terms can do,
    # also where they cancel (real z < 0, imaginary and complex z)
    for z in _REFERENCE_Z:
        want, size = _mp_series(mu, z)
        for got in (e_mu(mu, z), e_mu(mu, np.array([z]))[0]):
            assert abs(got - want) <= 16 * 2.0**-52 * size, (mu, z)


@pytest.mark.parametrize("mu", [-0.25, -0.45])
def test_array_sum_rounds_like_the_scalar_sum(mu):
    # an array term divided by the real recursion step must round once per
    # part, as a Python complex does; through the reciprocal it rounded twice
    # and the array error at this point was up to 3.4 times the scalar one
    z = complex(0.0, -29.9)
    want, _ = _mp_series(mu, z)
    scalar_err = abs(e_mu(mu, z) - want)
    assert abs(e_mu(mu, np.array([z, 0.5j]))[0] - want) <= 1.25 * scalar_err
    # a numpy scalar or a 0-d array is summed as the Python scalar is
    assert e_mu(mu, np.complex128(z)) == e_mu(mu, np.array(z)) == e_mu(mu, z)


@given(
    st.floats(min_value=-0.49, max_value=4.0),
    st.floats(min_value=-120.0, max_value=120.0),
)
@example(-0.45, -35.0)
@example(0.5, 0.0)
def test_real_one_point_grid_is_summed_as_the_scalar(mu, z):
    # A real one-point array takes the Python float sum; it must give the
    # bits of the array loop, which sums z beside a 0 (the same term count).
    loop = e_mu(mu, np.array([z, 0.0]))[0]
    one = e_mu(mu, np.array([z]))
    assert one.shape == (1,) and one.dtype == np.float64
    assert one[0] == loop == e_mu(mu, z)
    assert e_mu(mu, np.full((1, 1), z)).shape == (1, 1)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
@pytest.mark.parametrize("x", [11.9, 12.1, -12.1])
def test_cos_sin_on_both_sides_of_the_series_switch(mu, x):
    # |x| = 12 was where the series used to hand over to the averaging
    # integral; the recurrence has no switch there, scalar or array
    want, _ = _mp_series(mu, complex(0.0, -x))
    assert_allclose(c_s_mu(mu, x), (want.real, -want.imag), rtol=0, atol=1e-11)
    xs = np.array([11.9, 12.1, -12.1])
    c, s = c_s_mu(mu, xs)
    assert c.shape == s.shape == (3,)
    assert_allclose((c[xs == x][0], s[xs == x][0]), (want.real, -want.imag), rtol=0, atol=1e-11)


def _mp_cos_sin(mu, x, dps=40):
    """(c, s)(x; mu) from Bessel functions: Gamma(mu+1/2) (|x|/2)^(1/2-mu) J_{mu-/+1/2}(|x|), s odd."""
    if x == 0.0:
        return 1.0, 0.0
    with mpmath.workdps(dps):
        mu, r = mpmath.mpf(mu), abs(mpmath.mpf(x))
        pref = mpmath.gamma(mu + 0.5) * (r / 2) ** (0.5 - mu)
        c, s = float(pref * mpmath.besselj(mu - 0.5, r)), float(pref * mpmath.besselj(mu + 0.5, r))
    return c, (s if x > 0.0 else -s)


def _averaging_integral(mu, z):
    """e(-iz; mu) for real z and mu > 0 by the averaging measure, |z| <= 300.

    e(-iz; mu) = sum_j v_j exp(-i z tau_j) over the 192-node alpha_mu rule,
    with cos and -sin of the real phases filling one complex buffer.  It is
    an independent route to c and s: its error against mpmath is below
    4e-13 up to |z| = 300, where the rule stops resolving the oscillation
    (at mu = 0.5 it is 5e-11 at 330 and 0.07 at 400).
    """
    rule = gauss_alpha_mu(mu, 192)
    phase = np.asarray(z, dtype=float)[..., None] * rule.nodes
    kernel = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=kernel.real)
    np.sin(np.negative(phase, out=phase), out=kernel.imag)
    return np.dot(kernel, rule.weights)


def test_bessel_reference_matches_the_series():
    want, _ = _mp_series(1.5, complex(0.0, -11.9))
    assert_allclose(_mp_cos_sin(1.5, 11.9), (want.real, -want.imag), rtol=0, atol=1e-15)
    want, _ = _mp_series(-0.25, complex(0.0, 7.5))
    assert_allclose(_mp_cos_sin(-0.25, -7.5), (want.real, -want.imag), rtol=0, atol=1e-15)


@pytest.mark.parametrize("mu", [-0.45, -0.25, 0.01, 0.5, 1.5, 5.0, 20.0])
def test_recurrence_matches_mpmath_bessel(mu):
    # relative to max(1, |value|): at most 1e-14 for mu >= 1/2, 1e-12 below,
    # where the error grows like |x| eps; for scalars and for one array
    tol = 1e-14 if mu >= 0.5 else 1e-12
    xs = [0.0, 1e-3, 12.0, 30.5, 100.0, 350.0, 1000.0, 1e4]
    xs = np.array(xs + [-x for x in xs[1:]])
    c, s = c_s_mu(mu, xs)
    for x, ca, sa in zip(xs, c, s):
        want = _mp_cos_sin(mu, x)
        for got in ((ca, sa), c_s_mu(mu, float(x))):
            for g, w in zip(got, want):
                assert abs(g - w) <= tol * max(1.0, abs(w)), (mu, x)


@pytest.mark.parametrize("mu", [0.01, 0.3141, 0.5, 1.5])
def test_recurrence_agrees_with_the_averaging_integral(mu):
    x = np.linspace(-290.0, 290.0, 1161)
    c, s = c_s_mu(mu, x)
    assert_allclose(c - 1j * s, _averaging_integral(mu, x), rtol=0, atol=5e-13)


def test_recurrence_steps_off_an_exact_zero_denominator():
    # at this x one denominator of the recurrence at mu = 1/2 rounds to
    # exactly 0; taken as it is, it turns both values into nan
    x = 8.771483815959954
    want = _mp_cos_sin(0.5, x)
    assert_allclose(c_s_mu(0.5, x), want, rtol=0, atol=1e-15)
    c, s = c_s_mu(0.5, np.array([x, 1.0]))
    assert_allclose((c[0], s[0]), want, rtol=0, atol=1e-15)
    assert (c[1], s[1]) == c_s_mu(0.5, 1.0)


@pytest.mark.parametrize("mu", [0.05, 1.5, 8.0])
def test_averaging_route_accurate_up_to_its_reach(mu):
    # the cross-check is only as good as its route: fine up to |x| = 300
    want = _mp_cos_sin(mu, 299.0)
    assert_allclose(_averaging_integral(mu, 299.0), complex(want[0], -want[1]), rtol=0, atol=1e-13)


def test_recurrence_refuses_past_its_cap():
    with pytest.raises(ValueError, match="up to .x. = 10000"):
        c_s_mu(0.5, 1.0001e4)
    with pytest.raises(ValueError, match="up to .x. = 10000"):
        c_s_mu(-0.25, np.array([1.0, -2e4]))
    # mu = 0 is cos and sin, which need no cap
    assert c_s_mu(0.0, 1e6) == (math.cos(1e6), math.sin(1e6))


@pytest.mark.parametrize("mu", [0.25, 0.5, 1.5])
def test_averaging_integral_in_real_arithmetic_matches_the_complex_exp(mu):
    # the transform's wide grid on the half of the 96-node rule it evaluates
    t = gauss_hermite_mu(mu, 96).nodes / math.sqrt(0.5)
    z = np.outer(np.linspace(-3.0, 3.0, 20), t[48:])
    rule = gauss_alpha_mu(mu, 192)
    want = np.dot(np.exp(-1j * z[..., None] * rule.nodes), rule.weights)
    got = _averaging_integral(mu, z)
    assert got.shape == (20, 48)
    assert_allclose(got, want, rtol=0, atol=1e-15)


def _plain_partial_sums(mu, z, count):
    """acc_0 .. acc_{count-1} of sum z^m / gamma_mu(m) for a Python scalar z, each term the last one times z / step."""
    acc = term = 1.0 + 0.0 * z
    sums = [acc]
    for m in range(1, count):
        term = term * (z / gamma_step(mu, m))
        acc = acc + term
        sums.append(acc)
    return sums


@pytest.mark.parametrize("mu", [-0.45, 0.0, 0.731, 3.0])
def test_series_steps_in_place_keep_every_bit(mu):
    # the summed value is one of the plain loop's partial sums, bit for bit, and
    # an array gives every point the Python scalar loop's bits at one shared count
    z = np.linspace(-25.0, 25.0, 101)
    for arg in (z, z * (0.3 + 0.7j), -17.3, complex(4.0, -9.5)):
        got = _series(mu, arg)
        if isinstance(arg, np.ndarray):
            sums = np.array([_plain_partial_sums(mu, v, 160) for v in arg.tolist()]).T
            assert any(row.tobytes() == got.tobytes() for row in sums), (mu, arg)
        else:
            assert repr(got) in {repr(s) for s in _plain_partial_sums(mu, arg, 160)}, (mu, arg)


@pytest.mark.parametrize("mu", [-0.45, 0.5, 3.0])
def test_array_sum_in_chunks_gives_the_bits_of_its_pieces(mu):
    # a table of n + 1 rows holds _TABLE_BYTES / ((n + 1) itemsize) columns, so these
    # arrays are summed in several chunks; every piece below carries the point
    # z = 30, the radius of the whole, so it is summed to the same term count
    rng = np.random.default_rng(11)
    n = _term_count(mu, 30.0)
    complex_z = rng.uniform(0.0, 30.0, 3000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3000))
    for z in (rng.uniform(-30.0, 30.0, 4000), complex_z):
        z[0] = 30.0
        assert z.size > 3 * _TABLE_BYTES // ((n + 1) * z.itemsize)
        whole = e_mu(mu, z)
        pieces = [e_mu(mu, np.append(z[:1], part))[1:] for part in np.array_split(z[1:], 7)]
        assert np.concatenate([whole[:1], *pieces]).tobytes() == whole.tobytes()
        assert e_mu(mu, z.reshape(40, -1)).tobytes() == whole.tobytes()


def _plain_miller(nu, x):
    """The backward recurrence of c_s_mu, every step a fresh array."""
    r = float(np.max(np.abs(x)))
    x2 = x * x
    q = 0.0 * x2
    u = 1.0 + q
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for m in range(int(r + 10.0 * r ** (1.0 / 3.0) + 40.0) // 2 + 1, -1, -1):
            e = 2.0 * (nu + 2 * m + 2) - q
            q = x2 / e
            d = 2.0 * (nu + 2 * m + 1) - q
            rho = (nu + 2 * m + 2) / (m + 1) * ((nu + m) / (nu + 2 * m) if m else 1.0)
            u = 1.0 + rho * q * u / d
            q = x2 / d
    return 1.0 / u, x / (d * u)


@pytest.mark.parametrize("mu", [-0.45, 0.01, 0.731, 5.0])
def test_miller_steps_in_place_keep_every_bit(mu):
    x = np.concatenate((np.linspace(-300.0, 300.0, 241), [0.0, 1e-300, 9999.5]))
    for got, want in zip(_miller(mu - 0.5, x), _plain_miller(mu - 0.5, x)):
        assert got.tobytes() == want.tobytes()
