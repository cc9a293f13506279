import json
import sys
import threading
from fractions import Fraction

import pytest

import muhermite.exact as exact
from muhermite.exact import IDENTITY_TAGS, identity_sides, verify_identity
from muhermite.hermite import hermite_coeffs
from muhermite.poly import DensePoly
from muhermite.verify import criterion_exact_identities


def test_tag_inventory():
    assert len(IDENTITY_TAGS) == 12
    assert len(set(IDENTITY_TAGS)) == 12


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 3), Fraction(-1, 4)])
def test_identity_passes(tag, mu):
    n_max = 6 if tag == "generating_function" else 8
    report = verify_identity(tag, mu, n_max)
    assert report.passed, report.counterexample
    assert report.checks > 0
    assert report.counterexample is None


def test_report_json_is_serializable():
    report = verify_identity("rodrigues", Fraction(1, 2), 5)
    blob = json.loads(json.dumps(report.to_json()))
    assert blob["pass"] is True
    assert blob["tag"] == "rodrigues"
    assert blob["mu"] == "1/2"


def test_comparator_bites_on_perturbed_side():
    triples = identity_sides("three_term_recursion", Fraction(1, 3), 5)
    assert triples
    for _, lhs, rhs in triples:
        assert lhs.max_abs_diff(rhs) == 0
        broken = lhs + DensePoly.monomial(1, Fraction(1, 10**9))
        assert broken.max_abs_diff(rhs) > 0


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_identity_sides_nonempty_at_single_degree(tag):
    triples = identity_sides(tag, Fraction(1, 3), 5)
    assert triples
    for _, lhs, rhs in triples:
        assert lhs.max_abs_diff(rhs) == 0


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="tag"):
        verify_identity("not_a_tag", Fraction(1, 3), 4)


def test_float_mu_rejected():
    with pytest.raises(ValueError, match="exact"):
        verify_identity("lowering", 0.5, 4)


def test_pole_mu_rejected():
    with pytest.raises(ValueError, match="pole"):
        verify_identity("lowering", Fraction(-1, 2), 4)


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_negative_degree_rejected(tag):
    with pytest.raises(ValueError, match="nonnegative"):
        verify_identity(tag, Fraction(1, 3), -5)
    with pytest.raises(ValueError, match="nonnegative"):
        identity_sides(tag, Fraction(1, 3), -1)


# (passed, counterexample degree, monomial) when every nonzero result of the
# derivative-based D is off by 10^-9 in its constant term, at mu = 1/3 and
# n_max = 8.  The identities that never apply D pass; every other one fails
# at the first degree where a perturbed D reaches a compared coefficient,
# including those that carry an iterate of D from degree to degree.
PERTURBED_D = {
    "three_term_recursion": (True, None, None),
    "lowering": (False, 1, "x^0"),
    "raising": (False, 1, "x^0"),
    "rodrigues": (False, 2, "x^0"),
    "iterated_raising": (False, 2, "x^0"),
    "inversion": (True, None, None),
    "generating_function": (True, None, None),
    "binomial_expansion": (False, 1, "x^0 y^1"),
    "odd_even_factor": (False, 1, "x^0 y^1"),
    "heat_monomial": (False, 2, "x^0 y^2"),
    "product_rule": (False, 1, "x^0"),
    "second_order_form": (False, 2, "x^0"),
}


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_comparator_bites_through_perturbed_derivative(tag, monkeypatch):
    exact_d = exact.dunkl_definition

    def perturbed(mu, p):
        out = exact_d(mu, p)
        return out if out.is_zero() else out + DensePoly.monomial(0, Fraction(1, 10**9))

    monkeypatch.setattr(exact, "dunkl_definition", perturbed)
    report = verify_identity(tag, Fraction(1, 3), 8)
    ce = report.counterexample
    got = (report.passed, ce and ce["n"], ce and ce["monomial"])
    assert got == PERTURBED_D[tag]
    if ce is not None:
        assert ce["lhs"] != ce["rhs"]


def test_criterion_counts_every_degree_check():
    result = criterion_exact_identities()
    assert result.passed, result.detail
    assert result.detail.startswith("12 tags x 6 mu, 1524 degree checks,")


def test_criterion_1_builds_each_hermite_table_once_per_mu():
    # the closed-form H_m are built once per mu and read by all eight tags
    # that use them: six mu, six builds, every other read a hit
    exact._hermite_table.cache_clear()
    assert criterion_exact_identities().passed
    info = exact._hermite_table.cache_info()
    assert info.misses == 6
    assert info.hits == 7 * 6


@pytest.mark.parametrize("mu", [Fraction(k, 19) for k in range(11, 17)])
def test_hermite_table_is_shared_safely_between_threads(mu):
    # threads walking one fresh mu's table at once must append each H_m once,
    # at index m; they start together, with a short switch interval
    start = threading.Barrier(8)
    results = []

    def walk():
        start.wait(timeout=60)
        results.append(verify_identity("lowering", mu, 12).passed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 8
    assert exact._hermite_table(mu) == [hermite_coeffs(mu, m, exact=True) for m in range(13)]
