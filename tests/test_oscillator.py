import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import muhermite.oscillator as osc
from muhermite.cli import main
from muhermite.core import gamma_mu
from muhermite.hermite import hermite_coeffs
from muhermite.oscillator import (
    _matrix_defect,
    build,
    check_commutation,
    check_equations_of_motion,
    check_ladder_powers,
    check_representation,
    check_rodrigues_operator,
    check_rotation,
    check_structure,
    check_table,
    run_all,
)


@pytest.fixture(scope="module")
def rep():
    return build(0.5, 24)


def test_build_guard():
    with pytest.raises(ValueError, match="size >= 4"):
        build(0.5, 3)


def test_basis_and_identity(rep):
    e2 = rep.basis_vector(2)
    assert e2[2] == 1.0 and np.count_nonzero(e2) == 1
    assert_allclose(rep.identity(), np.eye(24))


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
def test_all_checks_pass(mu):
    reports = run_all(build(mu, 24))
    for report in reports:
        assert report.passed, f"{report.name}: {report.worst().tag}"


def test_report_json_roundtrip(rep):
    report = check_structure(rep)
    blob = json.loads(report.to_json_str())
    assert blob["check"] == "structure"
    assert blob["pass"] is True
    tags = [e["tag"] for e in blob["identities"]]
    assert "number_lowering" in tags and "transform_square" in tags


def test_number_operator_spectrum(rep):
    # A* A has eigenvalues n + 2 mu theta(n)
    m = rep.adag @ rep.a
    diag = np.diag(m).real
    want = [n + 2 * 0.5 * (n % 2) for n in range(24)]
    assert_allclose(diag, want, atol=1e-13)
    assert np.abs(m - np.diag(np.diag(m))).max() < 1e-13


def test_deformed_commutator_gap_scales_with_mu():
    # i(PQ - QP) - I equals 2 mu J exactly on trusted columns; at mu = 0
    # the canonical relation holds, away from it the gap is structural
    for mu in (0.0, 0.75, 1.5):
        rep = build(mu, 16)
        gap = 1j * (rep.p @ rep.q - rep.q @ rep.p) - rep.identity()
        keep = 16 - 2
        assert_allclose(gap[:, :keep], (2 * mu * rep.j)[:, :keep], atol=1e-12)
        assert gap[0, 0].real == pytest.approx(2 * mu, abs=1e-13)


def test_canonical_commutator_entry_only_at_mu_zero():
    tags0 = {e.tag for e in check_commutation(build(0.0, 12)).entries}
    tags1 = {e.tag for e in check_commutation(build(0.5, 12)).entries}
    assert "canonical_commutator" in tags0
    assert "canonical_commutator" not in tags1


def test_edge_columns_are_visibly_corrupt(rep):
    # the truncation damage sits in the reported edge, not in the interior
    report = check_commutation(rep)
    entry = next(e for e in report.entries if e.tag == "deformed_commutator")
    assert entry.interior < 1e-12
    assert entry.edge_raw > 1.0
    assert entry.column_defects[-1] > 1.0


def test_interior_policy_shrinks_with_word_length(rep):
    report = check_ladder_powers(rep, n_max=3)
    by_len = {e.tag: e.word_length for e in report.entries}
    assert by_len["even_ladder_power_3"] == 7
    lengths = {e.word_length for e in report.entries}
    assert max(lengths) < rep.size


def test_scaled_residual_uses_interior_magnitude(rep):
    report = check_ladder_powers(rep, n_max=3)
    for e in report.entries:
        assert e.scale >= 1.0
        assert e.interior <= e.interior_raw + 1e-18


def test_rotation_is_exact_under_truncation(rep):
    report = check_rotation(rep)
    assert report.passed
    for e in report.entries:
        assert e.interior_raw < 1e-13  # diagonal phase conjugation, no edge loss


def test_ground_state_relations():
    mu = 1.5
    rep = build(mu, 16)
    e0 = rep.basis_vector(0)
    lhs = 1j * (rep.p @ rep.q - rep.q @ rep.p) @ e0
    assert_allclose(lhs, (1 + 2 * mu) * e0, atol=1e-13)
    assert_allclose(rep.q @ e0, -1j * rep.p @ e0, atol=1e-13)
    assert_allclose(rep.adag @ e0 / math.sqrt(2.0), rep.q @ e0, atol=1e-13)


def test_ladder_power_on_ground_gives_gamma_ratio():
    mu = 0.75
    rep = build(mu, 20)
    e0 = rep.basis_vector(0)
    for n in (1, 2, 5):
        vec = np.linalg.matrix_power(rep.adag, n) @ e0
        # A*^n e_0 has norm sqrt(gamma_mu(n)) in this normalization
        assert_allclose(np.linalg.norm(vec), math.sqrt(gamma_mu(mu, n)), rtol=1e-12)


@pytest.mark.parametrize("mu", [-0.45, 0.0, 0.5, 1.5])
@pytest.mark.parametrize("size", [24, 32, 33, 40, 64, 96])
def test_every_family_passes_at_larger_sizes(mu, size):
    # odd sizes put a rule node at x = 0, where the bridge takes its limits
    for report in run_all(build(mu, size)):
        assert report.passed, f"{report.name}: {report.worst().tag} {report.max_defect:.3g}"


def test_representation_bridge_tolerance():
    report = check_representation(build(0.5, 24))
    assert report.passed
    assert report.max_defect < 1e-8


def test_equations_of_motion_tags(rep):
    tags = {e.tag for e in check_equations_of_motion(rep).entries}
    assert {
        "momentum_hamiltonian",
        "position_hamiltonian",
        "lowering_hamiltonian",
        "raising_hamiltonian",
        "momentum_position_squared",
        "momentum_squared_position",
    } <= tags


def test_rodrigues_prefactors_match_norms():
    # P^n e_0 written through the degree-n polynomial of Q keeps unit norm
    rep = build(0.5, 24)
    report = check_rodrigues_operator(rep, n_max=6)
    assert report.passed
    e0 = rep.basis_vector(0)
    p3 = np.linalg.matrix_power(rep.p, 3) @ e0
    q3 = np.linalg.matrix_power(rep.q, 3) @ e0
    assert_allclose(np.linalg.norm(p3), np.linalg.norm(q3), rtol=1e-12)


def _pinned_entries():
    """Ordered (check, tag, word_length) of run_all at its default n_max."""
    structure = [
        ("number_lowering", 2), ("number_raising", 2), ("hamiltonian_mean", 2), ("hamiltonian_diagonal", 0),
        ("ground_annihilation", 1), ("parity_eigenvalues", 0), ("parity_involution", 0),
        ("parity_self_adjoint", 0), ("parity_from_hamiltonian", 0), ("hamiltonian_period", 0),
        ("transform_square", 0), ("transform_adjoint", 0), ("transform_parity_commute", 0),
        ("transform_eigenvalues", 0), ("quarter_turn_position", 2),
        ("ladder_chain_1_3", 4), ("ladder_chain_2_5", 7), ("ladder_chain_3_3", 6), ("ladder_chain_4_6", 10),
        ("ladder_chain_kill_3_2", 5), ("ladder_chain_kill_5_4", 9),
    ]
    motion = [
        ("momentum_hamiltonian", 2), ("position_hamiltonian", 2), ("lowering_hamiltonian", 2),
        ("raising_hamiltonian", 2), ("momentum_position_squared", 3), ("momentum_squared_position", 3),
    ]
    commutation = [("deformed_commutator", 2), ("parity_momentum_anticommute", 2), ("parity_position_anticommute", 2)]
    pairs = ("ladder", "position", "momentum")
    ladder = [
        (f"{parity}_{pair}_power_{n}", 2 * n + 1 + (parity == "odd"))
        for n in (1, 2, 3) for pair in pairs for parity in ("even", "odd")
    ]
    ladder += [("ground_raising_vs_position", 1), ("ground_position_vs_momentum", 1)]
    ladder += [(f"ground_{pair}_power_{n}", n + 1) for n in range(1, 8) for pair in ("position", "momentum", "ladder")]
    ladder += [(f"derivative_intertwine_{name}", 5) for name in ("position", "raising", "momentum")]
    ladder += [(f"derivative_intertwine_{name}", 4) for name in ("hermite", "hermite_scaled")]
    rodrigues = [
        (f"{name}_{n}", n)
        for n in range(9)
        for name in (
            "momentum_power_formula", "momentum_power_ladder", "position_power_formula", "position_power_ladder",
            "raising_power_formula", "basis_reconstruction", "basis_reconstruction_dual",
        )
    ]
    rotation = [(f"rotate_{name}_{lam}", 0) for lam in ("0.3", "1.1") for name in ("position", "momentum", "lowering")]
    rotation += [("quarter_turn_momentum", 0)]
    representation = [
        ("position_bridge", 1), ("momentum_bridge", 1), ("energy_bridge", 1), ("energy_diagonal", 1),
        ("transform_bridge", 0),
    ]
    families = {
        "structure": structure,
        "equations_of_motion": motion,
        "commutation": commutation,
        "ladder_powers": ladder,
        "rodrigues_operator": rodrigues,
        "rotation": rotation,
        "representation": representation,
    }
    return [(check, tag, word) for check, entries in families.items() for tag, word in entries]


def test_run_all_reports_are_pinned(rep):
    got = [(r.name, e.tag, e.word_length) for r in run_all(rep) for e in r.entries]
    assert got == _pinned_entries()
    assert [len(r.entries) for r in run_all(rep)] == [21, 6, 3, 46, 63, 7, 5]
    assert list(check_table()) == [r.name for r in run_all(rep)]


def test_reports_do_not_depend_on_what_ran_first():
    # each family builds its letter powers afresh: a rep dropped before the
    # next is built may hand its id to it, so nothing may be kept across reps
    def reports(mu, size, ladder_n_max=3):
        return [r.to_json() for r in run_all(build(mu, size), ladder_n_max=ladder_n_max)]

    keys = [(0.5, 12), (0.5, 24), (-0.25, 12), (0.5, 12, 2), (1.5, 16)]
    first = [reports(*key) for key in keys]
    assert [reports(*key) for key in reversed(keys)] == first[::-1]
    assert first[0] != first[3] and first[0] != first[1]


@pytest.mark.parametrize("name", list(check_table()))
def test_cli_check_matches_run_all(name, capsys):
    for size in (24, 48):
        code = main(["oscillator", "--mu", "0.5", "--size", str(size), "--check", name])
        blob = json.loads(capsys.readouterr().out)
        (family,) = [r for r in run_all(build(0.5, size)) if r.name == name]
        assert code == 0, size
        assert blob == [family.to_json()]


def _reference_rodrigues(rep, n_max):
    """(tag, word, lhs, rhs) of the Rodrigues family, each right-hand side by its own Horner pass."""

    def horner(poly, m):
        acc = np.zeros(rep.size, dtype=complex)
        for c in reversed(poly.coeffs):
            acc = m @ acc + complex(c) * e0
        return acc

    mu, e0, half = rep.mu, rep.basis_vector(0), 1.0 / math.sqrt(2.0)
    rows = []
    for n in range(n_max + 1):
        poly = hermite_coeffs(mu, n)
        scaled, g = poly.dilate(half), gamma_mu(mu, n)
        pref, ladder = g / (2.0 ** (n / 2.0) * math.factorial(n)), g / (2.0**n * math.factorial(n))
        norm = math.sqrt(g) / (2.0 ** (n / 2.0) * math.factorial(n))
        p_n, q_n = _successive_power(rep.p, n) @ e0, _successive_power(rep.q, n) @ e0
        rows += [
            (f"momentum_power_formula_{n}", n, p_n, 1j**n * pref * horner(scaled, rep.q)),
            (f"momentum_power_ladder_{n}", n, p_n, 1j**n * ladder * horner(scaled, rep.adag)),
            (f"position_power_formula_{n}", n, q_n, (-1j) ** n * pref * horner(scaled, rep.p)),
            (f"position_power_ladder_{n}", n, q_n, (-1j) ** n * ladder * horner(poly.dilate(1j * half), rep.adag)),
            (f"raising_power_formula_{n}", n, _successive_power(rep.adag, n) @ e0, pref * horner(poly, rep.q)),
            (f"basis_reconstruction_{n}", n, rep.basis_vector(n), norm * horner(poly, rep.q)),
            (f"basis_reconstruction_dual_{n}", n, rep.basis_vector(n), (-1j) ** n * norm * horner(poly, rep.p)),
        ]
    return rows


def _successive_power(m, n):
    out = np.eye(len(m), dtype=m.dtype)
    for _ in range(n):
        out = out @ m
    return out


def _reference_ground_brackets(rep, top):
    """(tag, word, lhs, rhs) of the ground entries, each bracket a full matrix commutator on e_0."""
    e0 = rep.basis_vector(0)
    brackets = {
        "position": (rep.q, lambda m: 1j * (rep.p @ m - m @ rep.p)),
        "momentum": (rep.p, lambda m: 1j * (m @ rep.q - rep.q @ m)),
        "ladder": (rep.adag, lambda m: rep.a @ m - m @ rep.a),
    }
    rows = []
    for n in range(1, top + 1):
        ratio = gamma_mu(rep.mu, n) / gamma_mu(rep.mu, n - 1)
        for name, (letter, bracket) in brackets.items():
            lhs = bracket(_successive_power(letter, n)) @ e0
            rows.append((f"ground_{name}_power_{n}", n + 1, lhs, ratio * (_successive_power(letter, n - 1) @ e0)))
    return rows


@pytest.mark.parametrize("mu", [-0.45, 0.0, 0.731, 1.5])
@pytest.mark.parametrize("size", [24, 33])
def test_letter_blocks_match_the_per_n_reference(mu, size):
    # run_all evaluates each (polynomial family, letter) pair for every n in one
    # Horner pass and a ground bracket by matrix-vector products; against one
    # Horner pass per n and the full matrix commutator the defects agree to
    # rounding (bit for bit where gemm and gemv round alike), with the same verdicts
    rep = build(mu, size)
    reports = {r.name: r for r in run_all(rep)}
    for name, rows in (
        ("rodrigues_operator", _reference_rodrigues(rep, 8)),
        ("ladder_powers", _reference_ground_brackets(rep, 7)),
    ):
        entries = {e.tag: e for e in reports[name].entries}
        for tag, word, lhs, rhs in rows:
            got, want = entries[tag], _matrix_defect(rep, tag, word, lhs, rhs)
            assert got.word_length == want.word_length
            assert_allclose(got.scale, want.scale, rtol=1e-15)
            tol = 1e-15 * want.scale
            assert_allclose(got.column_defects, want.column_defects, rtol=1e-15, atol=tol, err_msg=tag)
            assert (got.interior < reports[name].tolerance) == (want.interior < reports[name].tolerance), tag


def test_representation_bridge_refuses_sizes_past_its_rule():
    # the bridge's products have degree 2 (size - 2); 256 nodes, the largest
    # rule, integrate them exactly through size 257 and no further
    assert check_representation(build(0.5, 257)).passed
    with pytest.raises(ValueError, match="size <= 257"):
        check_representation(build(0.5, 258))


def test_cli_representation_past_its_rule_exits_2(capsys):
    assert main(["oscillator", "--mu", "0.5", "--size", "258", "--check", "representation"]) == 2
    assert "size <= 257" in capsys.readouterr().err


def test_cli_refuses_the_bridge_size_before_any_family_runs(monkeypatch, capsys):
    calls = []
    for name in ["build"] + [f"check_{family}" for family in check_table()]:
        real = getattr(osc, name)
        monkeypatch.setattr(osc, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
    assert main(["oscillator", "--mu", "0.5", "--size", "258"]) == 2
    assert "the representation bridge needs size <= 257" in capsys.readouterr().err
    assert calls == []
    # a family with no size limit still runs at that size
    assert main(["oscillator", "--mu", "0.5", "--size", "258", "--check", "structure"]) == 0
    assert calls == ["build", "check_structure"]
