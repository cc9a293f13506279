"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each criterion prints exactly one PASS/FAIL line (past the capture, so
the lines are visible in a plain pytest run) and then asserts.  The
bilinear kernel criterion is expected to fail as stated: a 40-term
partial sum of the product series carries a truncation tail above the
1e-9 tolerance at z = 0.6 for positive deformation; the printed line
reports the 80-term defect alongside so the closed form itself is seen
to be correct.  The analysis lives with the criterion's docstring.
"""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from muhermite import oscillator, verify
from muhermite.transform import transform_of_gaussian
from muhermite.verify import CRITERIA, run_acceptance, run_criterion

NAMES = (
    "exact_identities",
    "quadrature_exactness",
    "orthonormality",
    "fourier_eigenfunctions",
    "transform_closed_forms",
    "bilinear_kernel",
    "heat_consistency",
    "translation",
    "oscillator",
    "classical_reduction",
)


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_criterion(number, capsys):
    result = run_criterion(number)
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.line()


def test_frozen_points_are_the_seeded_draws():
    rng = np.random.default_rng(42)
    xs, ys = rng.uniform(-2.0, 2.0, 25), rng.uniform(-2.0, 2.0, 25)
    assert verify._KERNEL_POINTS == tuple(xs.tolist() + ys.tolist())
    rng = np.random.default_rng(42)
    assert verify._TRANSLATION_MAGS == tuple(rng.uniform(0.3, 2.2, (20, 2)).ravel().tolist())


def test_criteria_6_and_8_leave_numpy_random_unimported():
    # numpy.random costs a cold verify process about 16 ms of imports
    code = (
        "import sys\n"
        "from muhermite.verify import run_criterion\n"
        "run_criterion(6); run_criterion(8)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_criteria_are_numbered_by_place_and_named_by_function():
    # the JSON "criterion" and "name" fields come from CRITERIA's order and the function
    # names; perfbench and users read them, so a renamed function must fail here
    assert [(r.number, r.name) for r in run_acceptance()] == list(enumerate(NAMES, 1))


def test_criterion_9_prints_the_tolerance_that_failed_it(monkeypatch):
    # a structure defect of 5e-11 fails its family's 1e-11 tolerance: the line must say so
    run_all_unpatched = oscillator.run_all

    def run_all(rep):
        first, *rest = run_all_unpatched(rep)
        entries = (dataclasses.replace(first.entries[0], interior=5e-11),) + first.entries[1:]
        return (dataclasses.replace(first, entries=entries), *rest)

    monkeypatch.setattr(oscillator, "run_all", run_all)
    result = run_criterion(9)
    assert not result.passed
    assert "word identities 5.00e-11 (tol 1e-11)" in result.detail, result.line()


def test_criterion_9_names_each_family_whatever_its_tolerance(monkeypatch):
    # rotation held to the word identities' tolerance still prints as rotation, not as a word identity
    run_all_unpatched = oscillator.run_all

    def run_all(rep):
        reports = run_all_unpatched(rep)
        return tuple(dataclasses.replace(r, tolerance=1e-11) if r.name == "rotation" else r for r in reports)

    monkeypatch.setattr(oscillator, "run_all", run_all)
    result = run_criterion(9)
    assert result.passed
    families = [part.rsplit(" ", 3)[0] for part in result.detail.split(" of ", 1)[1].split(", ")]
    assert families == ["word identities", "rotation", "representation"], result.line()


def test_criterion_10_claims_the_fixed_point_only_when_it_holds(monkeypatch):
    # 1e-12 off fails the fixed-point check (1e-14): the line must not claim the fixed point
    off = lambda mu, lam, x: transform_of_gaussian(mu, lam, x) * (1.0 + 1e-12)
    monkeypatch.setattr(verify, "transform_of_gaussian", off)
    result = run_criterion(10)
    assert not result.passed
    assert "unit Gaussian fixed" not in result.detail
    assert re.search(r"GAUSSIAN FIXED POINT MISMATCH 1\.0e-12 \(tol 1e-14\)$", result.detail), result.line()


def test_criterion_5_prints_the_tolerance_of_its_reduction(monkeypatch):
    # the unit-rate reduction is the only call with beta = 1; 1e-8 off there fails it alone
    closed = verify.transform_of_hermite_gaussian
    off = lambda mu, n, beta, lam, x: closed(mu, n, beta, lam, x) * (1.0 + (1e-8 if beta == 1.0 else 0.0))
    monkeypatch.setattr(verify, "transform_of_hermite_gaussian", off)
    result = run_criterion(5)
    assert not result.passed
    assert re.search(r"unit-rate reduction defect 1\.\d\de-08 \(tol 1e-9\)$", result.detail), result.line()


def test_criterion_8_prints_the_contraction_bound(monkeypatch):
    # every translate's norm read 1% high: no longer a contraction
    norm = verify.l2mu_norm
    base = lambda f: f(0.0) == 1.0  # the untranslated Gaussian, e^(-lam u^2)
    monkeypatch.setattr(verify, "l2mu_norm", lambda f, **kw: norm(f, **kw) * (1.0 if base(f) else 1.01))
    result = run_criterion(8)
    assert not result.passed
    assert re.search(r"contraction ratio <= 1\.00\d+ \(needs <= 1 \+ 1e-12\)", result.detail), result.line()


def test_criterion_8_prints_the_witness_bound(monkeypatch):
    # the witness of lost positivity moved above -1e-3
    alpha = verify.translate_alpha
    witness = lambda mu, phi, x, y, **kw: alpha(mu, phi, x, y, **kw) + (0.5071 if mu == 2.0 and x == y == 1.0 else 0.0)
    monkeypatch.setattr(verify, "translate_alpha", witness)
    result = run_criterion(8)
    assert not result.passed
    assert re.search(r"negativity witness -?0\.0000 \(needs < -1e-3\)$", result.detail), result.line()


def test_criterion_10_prints_the_tolerance_of_each_defect(monkeypatch):
    # the canonical commutator 1e-11 off, the series 1e-12 off: both fail and say against what
    check = verify.osc.check_commutation

    def commutation(rep):
        report = check(rep)
        entries = tuple(
            dataclasses.replace(e, interior=1e-11) if e.tag == "canonical_commutator" else e for e in report.entries
        )
        return dataclasses.replace(report, entries=entries)

    series = verify._series
    monkeypatch.setattr(verify.osc, "check_commutation", commutation)
    monkeypatch.setattr(verify, "_series", lambda mu, z: series(mu, z) * (1.0 + 1e-12))
    result = run_criterion(10)
    assert not result.passed
    assert "canonical commutator defect 1.0e-11 (tol 1e-12)" in result.detail, result.line()
    assert re.search(r"exponential defect 1\.0e-12 \(tol 1e-13\)", result.detail), result.line()
