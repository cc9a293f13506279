import json
import sys
import threading
from fractions import Fraction

import pytest

import muhermite.exact as exact
import muhermite.hermite as hermite
from muhermite.exact import IDENTITY_TAGS, identity_sides, verify_identity
from muhermite.hermite import binomial_poly, hermite_coeffs
from muhermite.poly import DensePoly
from muhermite.verify import EXACT_MUS, _exact_reports, run_criterion


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
    # the keys and order `muhermite verify --mu` prints
    assert list(blob) == ["suite", "identity", "mu", "n_max", "max_defect", "pass", "counterexample"]
    assert blob["suite"] == "exact"
    assert blob["identity"] == "rodrigues"
    assert blob["mu"] == "1/2"
    assert blob["n_max"] == 5
    assert blob["max_defect"] == 0.0
    assert blob["pass"] is True
    assert blob["counterexample"] is None


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
    result = run_criterion(1)
    assert result.passed, result.detail
    assert result.detail.startswith("12 tags x 6 mu, 1524 degree checks,")


def test_criterion_1_builds_each_hermite_table_once_per_mu(monkeypatch):
    # the closed-form H_m are built once per mu and read by all eight tags
    # that use them: six mu, one table each, no H_m built twice
    built = []
    monkeypatch.setattr(exact, "hermite_coeffs", lambda mu, m, **k: built.append((mu, m)) or hermite_coeffs(mu, m, **k))
    assert run_criterion(1).passed
    assert len({mu for mu, _ in built}) == 6
    assert len(built) == len(set(built))


def test_nothing_outlives_a_walk(monkeypatch):
    # a second walk at the same mu finds no table left by the first
    mu = Fraction(2, 13)
    assert verify_identity("lowering", mu, 9).passed
    built = []
    monkeypatch.setattr(exact, "hermite_coeffs", lambda mu, m, **k: built.append(m) or hermite_coeffs(mu, m, **k))
    assert verify_identity("lowering", mu, 9).passed
    assert built == list(range(10))


def _entries(table: dict, build) -> dict:
    """n -> one walk's table entry of one builder."""
    return {n: v for (b, n), v in table.items() if b is build}


def _walk_together(walk, threads: int = 8) -> None:
    """Run walk in that many threads, started together, with a short switch interval."""
    start = threading.Barrier(threads)

    def run():
        start.wait(timeout=60)
        walk()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run) for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)


@pytest.mark.parametrize("mu", [Fraction(k, 19) for k in range(11, 17)])
def test_hermite_table_is_shared_safely_between_threads(mu, monkeypatch):
    # eight walks at one mu at once each build every H_m once, in a table of their own
    built = []
    monkeypatch.setattr(exact, "hermite_coeffs", lambda mu, m, **k: built.append(m) or hermite_coeffs(mu, m, **k))
    results = []
    _walk_together(lambda: results.append(verify_identity("lowering", mu, 12).passed))
    assert results == [True] * 8
    assert sorted(built) == sorted(list(range(13)) * 8)


DERIVATIVE_TAGS = ("binomial_expansion", "odd_even_factor", "heat_monomial")


def test_derivative_table_is_shared_by_the_three_tags(monkeypatch):
    # one table of D^j x^n per walk at a mu, read by all three tags
    mu = Fraction(3, 23)
    built = []
    derivatives = exact._derivatives
    monkeypatch.setattr(exact, "_derivatives", lambda mu, n, table: built.append(n) or derivatives(mu, n, table))
    assert all(report.passed for report in _exact_reports(mu, 9))
    assert built == list(range(10))
    monkeypatch.undo()
    table = {}
    for tag in DERIVATIVE_TAGS:
        assert exact._verify(tag, mu, 9, table).passed
    rows = _entries(table, exact._derivatives)
    assert sorted(rows) == list(range(10))
    assert rows[5][2] == DensePoly.monomial(3, 4 * (5 + 2 * mu))  # D x^5 = (5 + 2 mu) x^4, D x^4 = 4 x^3


def test_binomial_rows_are_shared_by_the_binomial_and_odd_even_tags(monkeypatch):
    # the odd-even tag at degree n reads the row the binomial tag built at n - 1
    mu = Fraction(4, 29)
    built = []
    monkeypatch.setattr(exact, "binomial_poly", lambda *a, **k: built.append(a[1]) or binomial_poly(*a, **k))
    assert all(report.passed for report in _exact_reports(mu, 9))
    assert built == list(range(10))


def test_translation_series_is_shared_by_the_binomial_and_odd_even_tags(monkeypatch):
    # the odd-even tag at odd n reads the series the binomial tag built at n,
    # and the binomial tag reads the odd ones the odd-even tag built first
    mu = Fraction(5, 31)
    built = []
    derivatives = exact._derivatives
    monkeypatch.setattr(exact, "_derivatives", lambda mu, n, table: built.append(n) or derivatives(mu, n, table))
    assert all(report.passed for report in _exact_reports(mu, 9))
    assert built == list(range(10))
    built.clear()
    table = {}
    for tag in ("odd_even_factor", "binomial_expansion"):
        assert exact._verify(tag, Fraction(6, 31), 9, table).passed
    assert built == [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]
    assert sorted(_entries(table, exact._translation_series)) == [1, 3, 5, 7, 9]


def test_perturbed_derivative_bites_after_criterion_1_is_warm(monkeypatch):
    # criterion 1 fills the D^j x^n table at mu = 1/3 with the true D; a
    # patched D must not read that table
    assert run_criterion(1).passed
    exact_d = exact.dunkl_definition

    def perturbed(mu, p):
        out = exact_d(mu, p)
        return out if out.is_zero() else out + DensePoly.monomial(0, Fraction(1, 10**9))

    monkeypatch.setattr(exact, "dunkl_definition", perturbed)
    for tag in DERIVATIVE_TAGS:
        report = verify_identity(tag, Fraction(1, 3), 8)
        ce = report.counterexample
        assert (report.passed, ce and ce["n"], ce and ce["monomial"]) == PERTURBED_D[tag]
    monkeypatch.undo()
    assert all(verify_identity(tag, Fraction(1, 3), 8).passed for tag in DERIVATIVE_TAGS)


def test_derivative_table_is_filled_once_between_threads(monkeypatch):
    # eight walks at one mu at once each build every D^j x^n once, in a table
    # of their own, so D runs n times per degree n per walk
    exact_d = exact.dunkl_definition
    calls = []

    def counted(mu, p):
        calls.append(None)
        return exact_d(mu, p)

    monkeypatch.setattr(exact, "dunkl_definition", counted)
    results = []
    _walk_together(lambda: results.append(verify_identity("binomial_expansion", Fraction(5, 17), 12).passed))
    assert results == [True] * 8
    assert len(calls) == 8 * sum(range(13))


@pytest.mark.parametrize("mu", EXACT_MUS)
def test_a_walk_builds_each_d_image_once(mu, monkeypatch):
    # per walk through degree 20: 210 iterates D^j x^n, 20 + 20 iterates of the
    # Rodrigues and iterated-raising tags, and one D each of H_n (lowering and raising), of the
    # test polynomial (product rule and second order) and of the even one (at
    # even n, the same as at n + 1), of the product and of D phi
    exact_d = exact.dunkl_definition
    inputs = []

    def counted(mu, p):
        inputs.append(p)
        return exact_d(mu, p)

    def forbidden(*args):
        raise AssertionError("D's definition route reached the monomial rule")

    monkeypatch.setattr(exact, "dunkl_definition", counted)
    monkeypatch.setattr(hermite, "dunkl_apply", forbidden)
    monkeypatch.setattr(hermite, "gamma_step", forbidden)
    assert all(report.passed for report in _exact_reports(mu, 20))
    assert len(inputs) == 345
    inputs.clear()
    table = {}
    assert exact._verify("lowering", mu, 9, table).passed
    hermites = [table[exact._hermite, n] for n in range(10)]
    assert len(inputs) == 10 and all(p is h for p, h in zip(inputs, hermites))
    assert exact._verify("raising", mu, 9, table).passed
    assert len(inputs) == 10  # raising read the D H_n that lowering built
    assert sorted(_entries(table, exact._d_hermite)) == list(range(10))
