"""Exact rational verification of the polynomial operator identities.

Every identity handled here reduces, after clearing the Gaussian factor
where one appears, to an equality of polynomials whose coefficients are
rational functions of the deformation parameter.  Fixing mu to an exact
rational (fractions.Fraction) therefore turns each check into exact
arithmetic: a pass is a proof at that mu, with no tolerance.  Each side is
held as integer numerators over one denominator in lowest terms (see
poly.py), so building it is integer arithmetic and the check is one
comparison of the two stored forms.  Every sum of several terms (the
inversion and generating-function sides, the translation series, the
heat-monomial flow and series, the three-term left-hand side and the
recursion steps) is one call of poly's linear-combination kernel: one lcm
and one gcd reduction, whatever the number of terms.
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
being rebuilt; factorials come from math.factorial and gamma_mu from one
gamma_exact_table.  The carried state belongs to one side's route, so the
two sides stay as independent as before.  What several tags read is built
once per walk at one mu, by ``_shared``, into a dict that the walk drops
when it ends (the suite's tags at a mu share one; verify_identity makes its
own): the closed-form H_m, read by every tag that uses them; the iterates
D^j x^n of the D in force (the derivative-plus-reflection form), which the
binomial, odd-even and heat-monomial tags read; the binomial rows and
odd-degree translation series (built from those iterates), read by the
binomial and odd-even tags; and the D images two tags take of one input:
D H_n (lowering and raising), D of the test polynomial (product rule and
second order), and D of the even test polynomial, which is the same at
degrees 2m and 2m + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .core import _count, _rational, gamma_exact_table
from .hermite import binomial_poly, dunkl_definition, heat_poly, hermite_coeffs, inversion_weights
from .poly import BivariatePoly, DensePoly, _combination, fraction_str

__all__ = ["IDENTITY_TAGS", "IdentityReport", "identity_sides", "verify_identity"]

# Each _sides_* builder is a generator over mu and the walk's table whose
# n-th item is the list of (label, lhs, rhs) triples at degree n; what it
# carries across degrees stays inside the generator.


def _shared(table: dict, build, mu: Fraction, n: int):
    """build(mu, n, table), made once per table and n."""
    if (build, n) not in table:
        table[build, n] = build(mu, n, table)
    return table[build, n]


def _hermite(mu: Fraction, m: int, table: dict) -> DensePoly:
    return hermite_coeffs(mu, m)


def _hermites(mu: Fraction, table: dict):
    """H_0, H_1, ... from the closed-form coefficients, each built once per table."""
    return (_shared(table, _hermite, mu, m) for m in count())


def _d_hermite(mu: Fraction, n: int, table: dict) -> DensePoly:
    """D H_n, read by the lowering and raising tags."""
    return dunkl_definition(mu, _shared(table, _hermite, mu, n))


def _derivatives(mu: Fraction, n: int, table: dict) -> list:
    """D^j x^n for j = 0..n."""
    row = [DensePoly.monomial(n, Fraction(1))]
    for _ in range(n):
        row.append(dunkl_definition(mu, row[-1]))
    return row


def _binomial(mu: Fraction, n: int, table: dict) -> BivariatePoly:
    return binomial_poly(mu, n)


def _ratio(gam: tuple, n: int) -> Fraction:
    """gamma_mu(n + 1) / ((n + 1) gamma_mu(n)), from a table of gamma_mu."""
    return gam[n + 1] / ((n + 1) * gam[n])


def _translation_series(mu: Fraction, n: int, table: dict) -> BivariatePoly:
    """sum_j y^j / gamma_mu(j) D^j x^n, by repeated differentiation."""
    gam = gamma_exact_table(mu, n)
    columns = _shared(table, _derivatives, mu, n)
    return _combination([(1 / g, q) for g, q in zip(gam, columns)], range(n + 1))


def _test_poly(n: int) -> DensePoly:
    """Deterministic dense test polynomial of degree n with mixed parity: 1 + 2 x + ... + (n + 1) x^n, exact."""
    return DensePoly._of(tuple(range(1, n + 2)), 1, True)


def _test_even_poly(n: int) -> DensePoly:
    """2 + 3 x^2 + 4 x^4 + ... up to x^n, exact; at odd n the same as at n - 1."""
    nums = [0] * (n + 1 - n % 2)
    nums[::2] = range(2, n // 2 + 3)
    return DensePoly._of(tuple(nums), 1, True)


def _d_test(mu: Fraction, n: int, table: dict) -> DensePoly:
    """D of the test polynomial of degree n, read by the product-rule and second-order tags."""
    return dunkl_definition(mu, _test_poly(n))


def _d_test_even(mu: Fraction, n: int, table: dict) -> DensePoly:
    """D of the even test polynomial of even degree n, which is also the one of degree n + 1."""
    return dunkl_definition(mu, _test_even_poly(n))


def _sides_three_term(mu: Fraction, table: dict):
    hermites = _hermites(mu, table)
    prev, cur = DensePoly.zero(), next(hermites)
    for n, nxt in enumerate(hermites):
        lhs = _combination([(_ratio(gamma_exact_table(mu, n + 1), n), nxt), (2 * n, prev)])
        yield [("", lhs, cur.shift_up(1).scale(2))]
        prev, cur = cur, nxt


def _sides_lowering(mu: Fraction, table: dict):
    prev = DensePoly.zero()
    for n, h in enumerate(_hermites(mu, table)):
        yield [("", _shared(table, _d_hermite, mu, n), prev.scale(2 * n))]
        prev = h


def _sides_raising(mu: Fraction, table: dict):
    hermites = _hermites(mu, table)
    cur = next(hermites)
    for n, nxt in enumerate(hermites):
        lhs = cur.shift_up(1).scale(2) - _shared(table, _d_hermite, mu, n)
        yield [("", lhs, nxt.scale(_ratio(gamma_exact_table(mu, n + 1), n)))]
        cur = nxt


def _sides_rodrigues(mu: Fraction, table: dict):
    # Gaussian-conjugated derivative: D acting through e^(-x^2) leaves the
    # polynomial factor p -> (D p) - 2 x p.
    p = DensePoly([Fraction(1)])
    for n, h in enumerate(_hermites(mu, table)):
        rhs = h.scale(gamma_exact_table(mu, n)[n] / math.factorial(n))
        yield [("", -p if n % 2 else p, rhs)]
        p = _combination([(1, dunkl_definition(mu, p)), (-2, p.shift_up(1))])


def _sides_iterated_raising(mu: Fraction, table: dict):
    q = DensePoly([Fraction(1)])
    for n, h in enumerate(_hermites(mu, table)):
        yield [("", q, h.scale(gamma_exact_table(mu, n)[n] / math.factorial(n)))]
        q = _combination([(2, q.shift_up(1)), (-1, dunkl_definition(mu, q))])


def _sides_inversion(mu: Fraction, table: dict):
    # (2x)^n / gamma_mu(n) against sum_k H_{n-2k} / (k! (n-2k)!).
    hermites = []
    for n, h in enumerate(_hermites(mu, table)):
        hermites.append(h)
        lhs = DensePoly.monomial(n, 2**n / gamma_exact_table(mu, n)[n])
        rhs = _combination([(w, hermites[n - 2 * k]) for k, w in enumerate(inversion_weights(n))])
        yield [("", lhs, rhs)]


def _sides_generating(mu: Fraction, table: dict):
    # Coefficient of z^n in exp(-z^2) * e_mu(2 x z), by Cauchy product of the
    # two series: the z^m term of e_mu(2 x z) is (2x)^m / gamma_mu(m), and
    # the z^(2j) term of exp(-z^2) is (-1)^j / j!.  Against H_n / n! from the
    # closed-form coefficients.
    powers = []
    for n, h in enumerate(_hermites(mu, table)):
        powers.append(DensePoly.monomial(n, 2**n / gamma_exact_table(mu, n)[n]))
        lhs = _combination([(Fraction((-1) ** j, math.factorial(j)), powers[n - 2 * j]) for j in range(n // 2 + 1)])
        yield [("", lhs, h.scale(Fraction(1, math.factorial(n))))]


def _sides_binomial(mu: Fraction, table: dict):
    # An odd degree's series has a second reader, the odd-even tag, so it is
    # shared; an even one has only this one and is not kept.
    for n in count():
        series = _shared(table, _translation_series, mu, n) if n % 2 else _translation_series(mu, n, table)
        yield [("", series, _shared(table, _binomial, mu, n))]


def _sides_odd_even(mu: Fraction, table: dict):
    x_plus_y = BivariatePoly((((1, 0), Fraction(1)), ((0, 1), Fraction(1))))
    for n in count():
        if n % 2 == 0:
            yield []
            continue
        rhs = x_plus_y * _shared(table, _binomial, mu, n - 1)
        yield [("", _shared(table, _translation_series, mu, n), rhs)]


def _sides_heat_monomial(mu: Fraction, table: dict):
    # Flow form: exp(-y^2 D^2) x^n, summed term by term with the
    # derivative-based D, against the Hermite substitution
    # (gamma_mu(n)/n!) y^n H_n(x/(2y); mu) expanded as a polynomial in x, y.
    # Series form: exp(y^2 D^2) x^n, summed the same way, against heat_poly's
    # closed coefficients at t = 1, homogenized (x^(n-2k) t^k becomes x^(n-2k) y^(2k)).
    for n, h in enumerate(_hermites(mu, table)):
        even = _shared(table, _derivatives, mu, n)[::2]  # D^(2k) x^n
        fact = [math.factorial(k) for k in range(len(even))]
        signed = [(Fraction((-1) ** k, f), q) for k, (f, q) in enumerate(zip(fact, even))]
        flow = _combination(signed, range(0, n + 1, 2))
        series = _combination([(Fraction(1, f), q) for f, q in zip(fact, even)], range(0, n + 1, 2))
        gam = gamma_exact_table(mu, n)
        subst = BivariatePoly.homogenized(h.dilate(Fraction(1, 2)).scale(gam[n] / math.factorial(n)), n)
        yield [("flow", flow, subst), ("series", series, BivariatePoly.homogenized(heat_poly(mu, n, 1), n))]


def _sides_product_rule(mu: Fraction, table: dict):
    for n in count():
        phi = _test_poly(n)
        psi = _test_even_poly(n)
        lhs = dunkl_definition(mu, phi * psi)
        rhs = _shared(table, _d_test, mu, n) * psi + phi * _shared(table, _d_test_even, mu, n - n % 2)
        yield [("", lhs, rhs)]


def _sides_second_order(mu: Fraction, table: dict):
    for n in count():
        phi = _test_poly(n)
        lhs = dunkl_definition(mu, _shared(table, _d_test, mu, n))
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
            "suite": "exact",
            "identity": self.tag,
            "mu": fraction_str(self.mu),
            "n_max": self.n_max,
            "max_defect": 0.0 if self.passed else None,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


def _builder(tag: str, mu, degree: int, what: str, table: dict):
    if tag not in _BUILDERS:
        raise ValueError(f"unknown identity tag {tag!r}; known: {', '.join(IDENTITY_TAGS)}")
    frac = _rational(mu)
    return frac, _count(degree, what), _BUILDERS[tag](frac, table)


def identity_sides(tag: str, mu, n: int):
    """Both sides of the tagged identity at degree n, independently built.

    Returns a list of (label, lhs, rhs) triples; polynomials carry exact
    Fraction coefficients.  The sides are built by walking the degrees up
    from 0, as verify_identity does, and this returns step n of that walk;
    the two sides still come from different routes.  Exposed so tests can
    perturb one side and confirm the comparator actually bites.
    """
    _, n, sides = _builder(tag, mu, n, "degree n", {})
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
    return _verify(tag, mu, n_max, {})


def _verify(tag: str, mu, n_max: int, table: dict) -> IdentityReport:
    """verify_identity, reading and filling table: what the tags of one walk share at this mu."""
    frac, n_max, sides = _builder(tag, mu, n_max, "n_max", table)
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
