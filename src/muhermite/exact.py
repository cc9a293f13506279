"""Exact rational verification of the polynomial operator identities.

Every identity handled here reduces, after clearing the Gaussian factor
where one appears, to an equality of polynomials whose coefficients are
rational functions of the deformation parameter.  Fixing mu to an exact
rational (fractions.Fraction) therefore turns each check into exact
integer arithmetic: a pass is a proof at that mu, with no tolerance.
Cleared of denominators, both sides are polynomials in mu whose degree
grows with n (gamma_mu(n) has degree ceil(n/2)); only agreement at more mu
values than that degree would certify all mu.  The suite runs six values
spread across the admissible range, so a pass certifies those six only.

The two sides of each tagged identity are always constructed by
different routes (for instance, the derivative-plus-reflection form of
the deformed derivative on one side against closed-form coefficients on
the other), so a defect in either route cannot cancel itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import as_mu, gamma_mu_exact
from .hermite import binomial_poly, dunkl_definition, factorials, hermite_coeffs, inversion_expand
from .poly import BivariatePoly, DensePoly, fraction_str

__all__ = ["IDENTITY_TAGS", "IdentityReport", "identity_sides", "verify_identity"]


def _hermite(mu: Fraction, n: int) -> DensePoly:
    return hermite_coeffs(mu, n, exact=True)


def _translation_series(mu: Fraction, n: int) -> BivariatePoly:
    """sum_j y^j / gamma_mu(j) D^j x^n, by repeated differentiation."""
    q = DensePoly.monomial(n, Fraction(1))
    acc = BivariatePoly.zero()
    for j in range(n + 1):
        if q.is_zero():
            break
        acc = acc + BivariatePoly.from_x_poly(q.scale(1 / gamma_mu_exact(mu, j)), y_power=j)
        q = dunkl_definition(mu, q)
    return acc


def _test_poly(n: int) -> DensePoly:
    """Deterministic dense test polynomial of degree n with mixed parity."""
    return DensePoly.from_coeffs([Fraction(j + 1) for j in range(n + 1)])


def _test_even_poly(n: int) -> DensePoly:
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(0, n + 1, 2):
        coeffs[j] = Fraction(j // 2 + 2)
    return DensePoly.from_coeffs(coeffs)


def _sides_three_term(mu: Fraction, n: int):
    ratio = gamma_mu_exact(mu, n + 1) / ((n + 1) * gamma_mu_exact(mu, n))
    lhs = _hermite(mu, n + 1).scale(ratio)
    if n > 0:
        lhs = lhs + _hermite(mu, n - 1).scale(Fraction(2 * n))
    rhs = _hermite(mu, n).shift_up(1).scale(Fraction(2))
    return [("", lhs, rhs)]


def _sides_lowering(mu: Fraction, n: int):
    lhs = dunkl_definition(mu, _hermite(mu, n))
    rhs = _hermite(mu, n - 1).scale(Fraction(2 * n)) if n > 0 else DensePoly.zero()
    return [("", lhs, rhs)]


def _sides_raising(mu: Fraction, n: int):
    h = _hermite(mu, n)
    lhs = h.shift_up(1).scale(Fraction(2)) - dunkl_definition(mu, h)
    ratio = gamma_mu_exact(mu, n + 1) / ((n + 1) * gamma_mu_exact(mu, n))
    rhs = _hermite(mu, n + 1).scale(ratio)
    return [("", lhs, rhs)]


def _sides_rodrigues(mu: Fraction, n: int):
    # Gaussian-conjugated derivative: D acting through e^(-x^2) leaves the
    # polynomial factor p -> (D p) - 2 x p.
    p = DensePoly.from_coeffs([Fraction(1)])
    for _ in range(n):
        p = dunkl_definition(mu, p) - p.shift_up(1).scale(Fraction(2))
    lhs = p.scale(Fraction((-1) ** n))
    rhs = _hermite(mu, n).scale(gamma_mu_exact(mu, n) / factorials(n, True)[n])
    return [("", lhs, rhs)]


def _sides_iterated_raising(mu: Fraction, n: int):
    q = DensePoly.from_coeffs([Fraction(1)])
    for _ in range(n):
        q = q.shift_up(1).scale(Fraction(2)) - dunkl_definition(mu, q)
    rhs = _hermite(mu, n).scale(gamma_mu_exact(mu, n) / factorials(n, True)[n])
    return [("", q, rhs)]


def _sides_inversion(mu: Fraction, n: int):
    lhs = DensePoly.monomial(n, Fraction(2) ** n / gamma_mu_exact(mu, n))
    rhs = inversion_expand(mu, n, exact=True)
    return [("", lhs, rhs)]


def _sides_generating(mu: Fraction, n: int):
    # Coefficient of z^n in exp(-z^2) * e_mu(2 x z), by Cauchy product of the
    # two series, against H_n / n! from the closed-form coefficients.
    fact = factorials(n, True)
    lhs = DensePoly.zero()
    sign = Fraction(1)
    for j in range(n // 2 + 1):
        m = n - 2 * j
        term = DensePoly.monomial(m, Fraction(2) ** m / gamma_mu_exact(mu, m))
        lhs = lhs + term.scale(sign / fact[j])
        sign = -sign
    rhs = _hermite(mu, n).scale(1 / fact[n])
    return [("", lhs, rhs)]


def _sides_binomial(mu: Fraction, n: int):
    lhs = _translation_series(mu, n)
    rhs = binomial_poly(mu, n, exact=True)
    return [("", lhs, rhs)]


def _sides_odd_even(mu: Fraction, n: int):
    if n % 2 == 0:
        return []
    lhs = _translation_series(mu, n)
    x_plus_y = BivariatePoly.from_dict({(1, 0): Fraction(1), (0, 1): Fraction(1)})
    rhs = x_plus_y * binomial_poly(mu, n - 1, exact=True)
    return [("", lhs, rhs)]


def _sides_heat_monomial(mu: Fraction, n: int):
    # Flow form: exp(-y^2 D^2) x^n, summed term by term with the
    # derivative-based D, against the Hermite substitution
    # (gamma_mu(n)/n!) y^n H_n(x/(2y); mu) expanded as a polynomial in x, y.
    fact = factorials(n, True)
    q = DensePoly.monomial(n, Fraction(1))
    flow = BivariatePoly.zero()
    series = BivariatePoly.zero()
    sign = Fraction(1)
    for k in range(n // 2 + 1):
        flow = flow + BivariatePoly.from_x_poly(q.scale(sign / fact[k]), y_power=2 * k)
        series = series + BivariatePoly.from_x_poly(q.scale(1 / fact[k]), y_power=k)
        q = dunkl_definition(mu, dunkl_definition(mu, q))
        sign = -sign
    scale = gamma_mu_exact(mu, n) / fact[n]
    subst = {}
    for m, c in enumerate(_hermite(mu, n).coeffs):
        if c != 0:
            subst[(m, n - m)] = scale * c / Fraction(2) ** m
    closed = {}
    gam = [gamma_mu_exact(mu, m) for m in range(n + 1)]
    for k in range(n // 2 + 1):
        closed[(n - 2 * k, k)] = gam[n] / (fact[k] * gam[n - 2 * k])
    return [
        ("flow", flow, BivariatePoly.from_dict(subst)),
        ("series", series, BivariatePoly.from_dict(closed)),
    ]


def _sides_product_rule(mu: Fraction, n: int):
    phi = _test_poly(n)
    psi = _test_even_poly(n)
    lhs = dunkl_definition(mu, phi * psi)
    rhs = dunkl_definition(mu, phi) * psi + phi * dunkl_definition(mu, psi)
    return [("", lhs, rhs)]


def _sides_second_order(mu: Fraction, n: int):
    phi = _test_poly(n)
    lhs = dunkl_definition(mu, dunkl_definition(mu, phi))
    # Combined closed form of the square: on x^k the second-order operator
    # phi'' + (2 mu / x) phi' - (mu / x^2)(phi - phi(-x)) acts as
    # multiplication by k(k-1) + 2 mu k - 2 mu theta(k) with a shift by 2.
    out = [Fraction(0)] * max(phi.degree - 1, 0)
    for k, c in enumerate(phi.coeffs):
        if k < 2 or c == 0:
            continue
        out[k - 2] = c * (k * (k - 1) + 2 * mu * k - 2 * mu * (k % 2))
    rhs = DensePoly.from_coeffs(out)
    return [("", lhs, rhs)]


_BUILDERS = {
    "three_term_recursion": _sides_three_term,
    "lowering": _sides_lowering,
    "raising": _sides_raising,
    "rodrigues": _sides_rodrigues,
    "iterated_raising": _sides_iterated_raising,
    "inversion": _sides_inversion,
    "generating_function": _sides_generating,
    "binomial_expansion": _sides_binomial,
    "odd_even_factor": _sides_odd_even,
    "heat_monomial": _sides_heat_monomial,
    "product_rule": _sides_product_rule,
    "second_order_form": _sides_second_order,
}

IDENTITY_TAGS = tuple(_BUILDERS)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check across degrees 0..n_max."""

    tag: str
    mu: Fraction
    n_max: int
    passed: bool
    checks: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "mu": fraction_str(self.mu),
            "n_max": self.n_max,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


def identity_sides(tag: str, mu, n: int):
    """Both sides of the tagged identity at one degree, independently built.

    Returns a list of (label, lhs, rhs) triples; polynomials carry exact
    Fraction coefficients.  Exposed so tests can perturb one side and
    confirm the comparator actually bites.
    """
    if tag not in _BUILDERS:
        raise ValueError(f"unknown identity tag {tag!r}; known: {', '.join(IDENTITY_TAGS)}")
    frac = as_mu(mu).require_exact()
    return _BUILDERS[tag](frac, n)


def _first_mismatch(lhs, rhs):
    if isinstance(lhs, DensePoly):
        for k in range(max(len(lhs.coeffs), len(rhs.coeffs))):
            if lhs[k] != rhs[k]:
                return f"x^{k}", lhs[k], rhs[k]
        return None
    a, b = lhs.as_dict(), rhs.as_dict()
    for key in sorted(set(a) | set(b)):
        if a.get(key, 0) != b.get(key, 0):
            i, j = key
            return f"x^{i} y^{j}", a.get(key, Fraction(0)), b.get(key, Fraction(0))
    return None


def verify_identity(tag: str, mu, n_max: int) -> IdentityReport:
    """Check one tagged identity exactly for all degrees up to n_max."""
    frac = as_mu(mu).require_exact()
    checks = 0
    for n in range(n_max + 1):
        for label, lhs, rhs in identity_sides(tag, frac, n):
            checks += 1
            mismatch = _first_mismatch(lhs, rhs)
            if mismatch is not None:
                monomial, lv, rv = mismatch
                counterexample = {
                    "n": n,
                    "monomial": monomial,
                    "lhs": fraction_str(Fraction(lv)),
                    "rhs": fraction_str(Fraction(rv)),
                }
                if label:
                    counterexample["form"] = label
                return IdentityReport(tag, frac, n_max, False, checks, counterexample)
    return IdentityReport(tag, frac, n_max, True, checks)
