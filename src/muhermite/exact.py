"""Exact rational verification of the polynomial operator identities.

Every identity handled here reduces, after clearing the Gaussian factor
where one appears, to an equality of polynomials whose coefficients are
rational functions of the deformation parameter.  Fixing mu to an exact
rational (fractions.Fraction) therefore turns each check into exact
arithmetic: a pass is a proof at that mu, with no tolerance.  Each side is
held as integer numerators over one denominator in lowest terms (see
poly.py), so building it is integer arithmetic and the check is one
comparison of the two stored forms.
Cleared of denominators, both sides are polynomials in mu whose degree
grows with n (gamma_mu(n) has degree ceil(n/2)); only agreement at more mu
values than that degree would certify all mu.  The suite runs six values
spread across the admissible range, so a pass certifies those six only.

The two sides of each tagged identity are always constructed by
different routes (for instance, the derivative-plus-reflection form of
the deformed derivative on one side against closed-form coefficients on
the other), so a defect in either route cannot cancel itself.

Each identity is built by walking the degrees up from 0, once: what the
degrees share (the iterates of the Rodrigues and raising recursions, the
closed-form H_m already built) is carried to the next degree instead of
being rebuilt; factorials come from math.factorial.  The carried state
belongs to one side's route, so the two sides stay as independent as
before.  The closed-form H_m are built once per mu and shared by every tag
that reads them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice

from .core import MU_CACHE_SIZE, as_mu, gamma_exact_table, gamma_mu_exact
from .hermite import binomial_poly, dunkl_definition, hermite_coeffs, inversion_weights
from .poly import BivariatePoly, DensePoly, fraction_str

__all__ = ["IDENTITY_TAGS", "IdentityReport", "identity_sides", "verify_identity"]

# Each _sides_* builder is a generator over mu whose n-th item is the list
# of (label, lhs, rhs) triples at degree n; what it carries across degrees
# stays inside the generator.


@lru_cache(maxsize=MU_CACHE_SIZE)
def _hermite_table(mu: Fraction) -> list:
    """The H_m built so far at one mu; _hermites appends to it under the lock."""
    return []


_hermite_lock = threading.Lock()


def _hermites(mu: Fraction):
    """H_0, H_1, ... from the closed-form coefficients, each built once per mu."""
    table = _hermite_table(mu)
    for m in count():
        if m == len(table):
            with _hermite_lock:
                if m == len(table):
                    table.append(hermite_coeffs(mu, m, exact=True))
        yield table[m]


def _ratio(mu: Fraction, n: int) -> Fraction:
    return gamma_mu_exact(mu, n + 1) / ((n + 1) * gamma_mu_exact(mu, n))


def _translation_series(mu: Fraction, n: int) -> BivariatePoly:
    """sum_j y^j / gamma_mu(j) D^j x^n, by repeated differentiation."""
    gam = gamma_exact_table(mu, n)
    q = DensePoly.monomial(n, Fraction(1))
    columns = {}
    for j in range(n + 1):
        if q.is_zero():
            break
        columns[j] = q.scale(1 / gam[j])
        q = dunkl_definition(mu, q)
    return BivariatePoly.from_x_polys(columns)


def _test_poly(n: int) -> DensePoly:
    """Deterministic dense test polynomial of degree n with mixed parity."""
    return DensePoly.from_coeffs([Fraction(j + 1) for j in range(n + 1)])


def _test_even_poly(n: int) -> DensePoly:
    coeffs = [Fraction(0)] * (n + 1)
    for j in range(0, n + 1, 2):
        coeffs[j] = Fraction(j // 2 + 2)
    return DensePoly.from_coeffs(coeffs)


def _sides_three_term(mu: Fraction):
    hermites = _hermites(mu)
    prev, cur = DensePoly.zero(), next(hermites)
    for n, nxt in enumerate(hermites):
        lhs = nxt.scale(_ratio(mu, n)) + prev.scale(Fraction(2 * n))
        rhs = cur.shift_up(1).scale(Fraction(2))
        yield [("", lhs, rhs)]
        prev, cur = cur, nxt


def _sides_lowering(mu: Fraction):
    prev = DensePoly.zero()
    for n, h in enumerate(_hermites(mu)):
        yield [("", dunkl_definition(mu, h), prev.scale(Fraction(2 * n)))]
        prev = h


def _sides_raising(mu: Fraction):
    hermites = _hermites(mu)
    cur = next(hermites)
    for n, nxt in enumerate(hermites):
        lhs = cur.shift_up(1).scale(Fraction(2)) - dunkl_definition(mu, cur)
        yield [("", lhs, nxt.scale(_ratio(mu, n)))]
        cur = nxt


def _sides_rodrigues(mu: Fraction):
    # Gaussian-conjugated derivative: D acting through e^(-x^2) leaves the
    # polynomial factor p -> (D p) - 2 x p.
    p = DensePoly.from_coeffs([Fraction(1)])
    for n, h in enumerate(_hermites(mu)):
        rhs = h.scale(gamma_mu_exact(mu, n) / math.factorial(n))
        yield [("", p.scale(Fraction((-1) ** n)), rhs)]
        p = dunkl_definition(mu, p) - p.shift_up(1).scale(Fraction(2))


def _sides_iterated_raising(mu: Fraction):
    q = DensePoly.from_coeffs([Fraction(1)])
    for n, h in enumerate(_hermites(mu)):
        yield [("", q, h.scale(gamma_mu_exact(mu, n) / math.factorial(n)))]
        q = q.shift_up(1).scale(Fraction(2)) - dunkl_definition(mu, q)


def _sides_inversion(mu: Fraction):
    # (2x)^n / gamma_mu(n) against sum_k H_{n-2k} / (k! (n-2k)!).
    hermites = []
    for n, h in enumerate(_hermites(mu)):
        hermites.append(h)
        lhs = DensePoly.monomial(n, 2**n / gamma_mu_exact(mu, n))
        rhs = DensePoly.zero()
        for k, w in enumerate(inversion_weights(n, exact=True)):
            rhs = rhs + hermites[n - 2 * k].scale(w)
        yield [("", lhs, rhs)]


def _sides_generating(mu: Fraction):
    # Coefficient of z^n in exp(-z^2) * e_mu(2 x z), by Cauchy product of the
    # two series: the z^m term of e_mu(2 x z) is (2x)^m / gamma_mu(m), and
    # the z^(2j) term of exp(-z^2) is (-1)^j / j!.  Against H_n / n! from the
    # closed-form coefficients.
    powers = []
    for n, h in enumerate(_hermites(mu)):
        powers.append(DensePoly.monomial(n, 2**n / gamma_mu_exact(mu, n)))
        lhs = DensePoly.zero()
        for j in range(n // 2 + 1):
            lhs = lhs + powers[n - 2 * j].scale(Fraction((-1) ** j, math.factorial(j)))
        yield [("", lhs, h.scale(Fraction(1, math.factorial(n))))]


def _sides_binomial(mu: Fraction):
    for n in count():
        yield [("", _translation_series(mu, n), binomial_poly(mu, n, exact=True))]


def _sides_odd_even(mu: Fraction):
    x_plus_y = BivariatePoly.from_dict({(1, 0): Fraction(1), (0, 1): Fraction(1)})
    for n in count():
        if n % 2 == 0:
            yield []
            continue
        rhs = x_plus_y * binomial_poly(mu, n - 1, exact=True)
        yield [("", _translation_series(mu, n), rhs)]


def _sides_heat_monomial(mu: Fraction):
    # Flow form: exp(-y^2 D^2) x^n, summed term by term with the
    # derivative-based D, against the Hermite substitution
    # (gamma_mu(n)/n!) y^n H_n(x/(2y); mu) expanded as a polynomial in x, y.
    for n, h in enumerate(_hermites(mu)):
        q = DensePoly.monomial(n, Fraction(1))
        flow, series = {}, {}
        for k in range(n // 2 + 1):
            if k:
                q = dunkl_definition(mu, dunkl_definition(mu, q))
            series[k] = q.scale(Fraction(1, math.factorial(k)))
            flow[2 * k] = -series[k] if k % 2 else series[k]
        scale = gamma_mu_exact(mu, n) / math.factorial(n)
        subst = BivariatePoly.homogenized(h.dilate(Fraction(1, 2)).scale(scale), n)
        closed = {}
        for k in range(n // 2 + 1):
            closed[(n - 2 * k, k)] = gamma_mu_exact(mu, n) / (math.factorial(k) * gamma_mu_exact(mu, n - 2 * k))
        yield [
            ("flow", BivariatePoly.from_x_polys(flow), subst),
            ("series", BivariatePoly.from_x_polys(series), BivariatePoly.from_dict(closed)),
        ]


def _sides_product_rule(mu: Fraction):
    for n in count():
        phi = _test_poly(n)
        psi = _test_even_poly(n)
        lhs = dunkl_definition(mu, phi * psi)
        rhs = dunkl_definition(mu, phi) * psi + phi * dunkl_definition(mu, psi)
        yield [("", lhs, rhs)]


def _sides_second_order(mu: Fraction):
    for n in count():
        phi = _test_poly(n)
        lhs = dunkl_definition(mu, dunkl_definition(mu, phi))
        # Second-order form of the square, with no first-order D in it:
        # phi'' + (mu / x) (2 phi' - (phi - phi(-x)) / x).  On x^k the bracket
        # is 2 (k - theta(k)) x^(k-1), which vanishes at x = 0, so both
        # divisions by x are exact.
        diff = (phi - phi.reflect()).div_x()
        rhs = phi.derivative().derivative() + (phi.derivative().scale(2) - diff).div_x().scale(mu)
        yield [("", lhs, rhs)]


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


def _builder(tag: str, mu, degree: int, what: str):
    if tag not in _BUILDERS:
        raise ValueError(f"unknown identity tag {tag!r}; known: {', '.join(IDENTITY_TAGS)}")
    frac = as_mu(mu).require_exact()
    if degree < 0:
        raise ValueError(f"{what} must be nonnegative, got {degree}")
    return frac, _BUILDERS[tag](frac)


def identity_sides(tag: str, mu, n: int):
    """Both sides of the tagged identity at degree n, independently built.

    Returns a list of (label, lhs, rhs) triples; polynomials carry exact
    Fraction coefficients.  The sides are built by walking the degrees up
    from 0, as verify_identity does, and this returns step n of that walk;
    the two sides still come from different routes.  Exposed so tests can
    perturb one side and confirm the comparator actually bites.
    """
    _, sides = _builder(tag, mu, n, "degree n")
    return next(islice(sides, n, None))


def _first_mismatch(lhs, rhs):
    if lhs == rhs:
        return None
    if isinstance(lhs, DensePoly):
        for k in range(max(lhs.degree, rhs.degree) + 1):
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
    frac, sides = _builder(tag, mu, n_max, "n_max")
    checks = 0
    for n, triples in enumerate(islice(sides, n_max + 1)):
        for label, lhs, rhs in triples:
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
