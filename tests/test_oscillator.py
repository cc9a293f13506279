import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import muhermite.oscillator as osc
from muhermite.cli import main
from muhermite.core import gamma_mu
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
    with pytest.raises(ValueError, match="oscillator size must be >= 4, got 3"):
        build(0.5, 3)


@pytest.mark.parametrize("size", [5.5, 4.0, 2.5, True])
def test_build_and_operator_matrix_refuse_a_size_that_is_not_an_integer(size):
    # build(0.5, 5.5) made 6 x 6 matrices with rep.size == 5.5, and run_all then failed deep inside
    with pytest.raises(TypeError, match="oscillator size must be an integer"):
        build(0.5, size)
    with pytest.raises(TypeError, match="matrix size must be an integer"):
        osc.operator_matrix(0.5, "A", size)


def test_build_takes_a_numpy_integer_size():
    rep = build(0.5, np.int64(8))
    assert type(rep.size) is int
    assert np.array_equal(rep.q, build(0.5, 8).q)


def test_basis_and_identity(rep):
    e2 = rep.basis_vector(2)
    assert e2[2] == 1.0 and np.count_nonzero(e2) == 1
    assert_allclose(rep.identity(), np.eye(24))


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5])
def test_all_checks_pass(mu):
    reports = run_all(build(mu, 24))
    for report in reports:
        assert report.passed, f"{report.name}: {max(report.entries, key=lambda e: e.interior).tag}"


def test_report_json_roundtrip(rep):
    report = check_structure(rep)
    blob = json.loads(json.dumps(report.to_json()))
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
        assert report.passed, f"{report.name}: {max(report.entries, key=lambda e: e.interior).tag} {report.max_defect:.3g}"


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
    """(tag, word, lhs, rhs) of the Rodrigues family, each n on its own: X^n e_0 as a matrix power
    on e_0, and H_n(s X) e_0 by the three-term recursion run to degree n."""

    def hermite(m, n):
        prev, cur = 0.0 * e0, e0
        for k in range(n):  # H_{k+1} = (k + 1) / gamma_step(k + 1) (2 x H_k - 2 k H_{k-1})
            step = k + 1 + 2 * mu * ((k + 1) % 2)
            prev, cur = cur, (k + 1) / step * (2.0 * (m @ cur) - 2.0 * k * prev)
        return cur

    mu, e0, half = rep.mu, rep.basis_vector(0), 1.0 / math.sqrt(2.0)
    rows = []
    for n in range(n_max + 1):
        g = gamma_mu(mu, n)
        pref, ladder = g / (2.0 ** (n / 2.0) * math.factorial(n)), g / (2.0**n * math.factorial(n))
        norm = math.sqrt(g) / (2.0 ** (n / 2.0) * math.factorial(n))
        p_n, q_n = _successive_power(rep.p, n) @ e0, _successive_power(rep.q, n) @ e0
        rows += [
            (f"momentum_power_formula_{n}", n, p_n, 1j**n * pref * hermite(half * rep.q, n)),
            (f"momentum_power_ladder_{n}", n, p_n, 1j**n * ladder * hermite(half * rep.adag, n)),
            (f"position_power_formula_{n}", n, q_n, (-1j) ** n * pref * hermite(half * rep.p, n)),
            (f"position_power_ladder_{n}", n, q_n, (-1j) ** n * ladder * hermite(1j * half * rep.adag, n)),
            (f"raising_power_formula_{n}", n, _successive_power(rep.adag, n) @ e0, pref * hermite(rep.q, n)),
            (f"basis_reconstruction_{n}", n, rep.basis_vector(n), norm * hermite(rep.q, n)),
            (f"basis_reconstruction_dual_{n}", n, rep.basis_vector(n), (-1j) ** n * norm * hermite(rep.p, n)),
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
    # recursion pass and a ground bracket by matrix-vector products; against one
    # recursion per n and the full matrix commutator the defects agree to
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


def _one_defect(rep, tag, word, lhs, rhs):
    """The defect of one identity as the measure defines it, written out on its own."""
    cols = np.abs(lhs - rhs).max(axis=0).tolist()
    if lhs.ndim == 1:
        cols, keep = [cols], 1
    else:
        keep = min(len(cols), rep.size - word)
        lhs, rhs = lhs[:, :keep], rhs[:, :keep]
    scale = float(max(1.0, np.abs(lhs).max(), np.abs(rhs).max()))
    raw = max(cols[:keep])
    return osc.IdentityDefect(tag, word, raw / scale, raw, max(cols[keep:], default=0.0), scale, tuple(cols))


def test_block_measure_matches_each_column_alone():
    # a block of k vector identities gives, bit for bit, the defect of each column measured alone
    rep = build(0.5, 12)
    rng = np.random.default_rng(19)
    for k in (1, 2, 5):
        lhs = rng.standard_normal((12, k)) + 1j * rng.standard_normal((12, k))
        near = lhs * (1.0 + 1e-13 * rng.standard_normal((12, k)))
        lhs[:, 0] = 0.0  # a zero column, and against the real zero rhs one with both sides zero
        words = [int(w) for w in rng.integers(0, rep.size - 1, k)]
        words[-1] = rep.size - 1
        tags = [f"column_{j}" for j in range(k)]
        for rhs in (near, np.zeros((12, k))):
            got = _matrix_defect(rep, tags, words, lhs, rhs)
            assert len(got) == k
            for j, entry in enumerate(got):
                want = _one_defect(rep, tags[j], words[j], lhs[:, j], rhs[:, j])
                assert entry == want and entry.to_json() == want.to_json()
                assert _matrix_defect(rep, tags[j], words[j], lhs[:, j], rhs[:, j]) == want
    with pytest.raises(ValueError, match="word length 12 exceeds"):
        _matrix_defect(rep, ["a", "b"], [1, 12], lhs[:, :2], lhs[:, :2])


def _vector_identities(rep):
    """(tag, word, lhs, rhs) of the vector identities run_all measures as blocks, one at a time,
    by the same products: the ladder chains and the ground brackets."""
    mu, e0 = rep.mu, rep.basis_vector(0)
    a_pow = [_successive_power(rep.a, m) for m in range(6)]
    adag_pow = [_successive_power(rep.adag, n) for n in range(7)]
    rows = []
    for m, n in ((1, 3), (2, 5), (3, 3), (4, 6)):
        rhs = gamma_mu(mu, n) / gamma_mu(mu, n - m) * (adag_pow[n - m] @ e0)
        rows.append((f"ladder_chain_{m}_{n}", m + n, a_pow[m] @ adag_pow[n] @ e0, rhs))
    for m, n in ((3, 2), (5, 4)):
        rows.append((f"ladder_chain_kill_{m}_{n}", m + n, a_pow[m] @ adag_pow[n] @ e0, np.zeros(rep.size)))
    brackets = {
        "position": (rep.q, lambda x, v: 1j * (rep.p @ (x @ v) - x @ (rep.p @ v))),
        "momentum": (rep.p, lambda x, v: 1j * (x @ (rep.q @ v) - rep.q @ (x @ v))),
        "ladder": (rep.adag, lambda x, v: rep.a @ (x @ v) - x @ (rep.a @ v)),
    }
    for name, (letter, bracket) in brackets.items():
        for n in range(1, 8):
            ratio = gamma_mu(mu, n) / gamma_mu(mu, n - 1)
            rhs = ratio * (_successive_power(letter, n - 1) @ e0)
            rows.append((f"ground_{name}_power_{n}", n + 1, bracket(_successive_power(letter, n), e0), rhs))
    return rows


@pytest.mark.parametrize("mu", [-0.45, 0.0, 0.3141, 1.5])
@pytest.mark.parametrize("size", [12, 24, 33, 48])
def test_entries_outside_the_changed_forms_match_one_identity_at_a_time(monkeypatch, mu, size):
    # stacking vector identities into blocks and taking |.| once over (lhs - rhs, lhs, rhs)
    # moves no bit of any entry other than the Rodrigues and intertwining ones
    rep = build(mu, size)
    want, real = {}, osc._matrix_defect

    def record(rep_, tag, word, lhs, rhs):
        if isinstance(tag, str):  # a matrix identity or a lone vector, measured here on its own
            want[tag] = _one_defect(rep_, tag, word, lhs, rhs)
        return real(rep_, tag, word, lhs, rhs)

    monkeypatch.setattr(osc, "_matrix_defect", record)
    reports = run_all(rep)
    for tag, word, lhs, rhs in _vector_identities(rep):
        want[tag] = _one_defect(rep, tag, word, lhs, rhs)
    checked = 0
    for report in reports:
        for entry in report.entries:
            if report.name != "rodrigues_operator" and not entry.tag.startswith("derivative_intertwine"):
                assert entry == want[entry.tag] and entry.to_json() == want[entry.tag].to_json(), entry.tag
                checked += 1
    assert checked == 151 - 63 - 5 + (mu == 0.0)


@pytest.mark.parametrize("mu", [-0.45, 0.0, 0.3141, 1.5])
@pytest.mark.parametrize("size", [12, 24, 33, 48])
def test_changed_entries_stay_at_rounding(mu, size):
    # the entries whose form changed: the Rodrigues family at n_max = 8 against the monomial
    # forms' worst of 2.05e-15 on this grid, and the intertwining entries on vectors
    rep = build(mu, size)
    assert check_rodrigues_operator(rep).max_defect <= 2.05e-15
    intertwine = [e for e in check_ladder_powers(rep).entries if e.tag.startswith("derivative_intertwine")]
    assert len(intertwine) == 5 and max(e.interior for e in intertwine) <= 1e-15


@pytest.mark.parametrize("mu", [-0.45, 0.0, 1.5, 2.35])
@pytest.mark.parametrize("size, n_max", [(48, 24), (64, 32), (96, 94), (128, 126)])
def test_rodrigues_passes_past_the_monomial_ceiling(mu, size, n_max):
    # the monomial forms failed from (48, 24) on, with errors of 1e-11 to 9e-10
    report = check_rodrigues_operator(build(mu, size), n_max)
    assert report.passed and report.max_defect <= 5e-14, (max(report.entries, key=lambda e: e.interior).tag, report.max_defect)


def _mp_rodrigues_right_sides(rep, n_max):
    """tag -> coefficient * H_n(s X) e_0 in 30-digit arithmetic on the float letters, H_n from
    its explicit sum n! sum_k (-1)^k (2 s X)^(n-2k) / (k! gamma_mu(n-2k)) on e_0."""
    import mpmath as mp

    size, mu, one = rep.size, mp.mpf(rep.mu), mp.mpc(1)
    gam = [mp.mpf(1)]
    for k in range(1, n_max + 1):
        gam.append(gam[-1] * (k + 2 * mu * (k % 2)))
    fact = [mp.factorial(n) for n in range(n_max + 1)]

    def hermite(m, s):
        entries = [(i, j, 2 * s * mp.mpc(complex(m[i, j]))) for i, j in zip(*np.nonzero(m))]
        powers = [[one] + [0 * one] * (size - 1)]  # (2 s X)^j e_0
        for _ in range(n_max):
            out = [0 * one] * size
            for i, j, c in entries:
                out[i] += c * powers[-1][j]
            powers.append(out)
        columns = []
        for n in range(n_max + 1):
            terms = [((-1) ** k * fact[n] / (fact[k] * gam[n - 2 * k]), powers[n - 2 * k]) for k in range(n // 2 + 1)]
            columns.append([mp.fsum(c * power[i] for c, power in terms) for i in range(size)])
        return columns

    half, phase = 1 / mp.sqrt(2), [one, 1j * one, -one, -1j * one]
    out = {}
    values = {
        "q_half": hermite(rep.q, half), "adag_half": hermite(rep.adag, half), "p_half": hermite(rep.p, half),
        "adag_imag": hermite(rep.adag, 1j * half), "q": hermite(rep.q, 1), "p": hermite(rep.p, 1),
    }
    for n in range(n_max + 1):
        pref, ladder = gam[n] / (mp.sqrt(2) ** n * fact[n]), gam[n] / (2**n * fact[n])
        norm, i_n = mp.sqrt(gam[n]) / (mp.sqrt(2) ** n * fact[n]), phase[n % 4]
        for tag, coefficient, key in (
            ("momentum_power_formula", i_n * pref, "q_half"),
            ("momentum_power_ladder", i_n * ladder, "adag_half"),
            ("position_power_formula", mp.conj(i_n) * pref, "p_half"),
            ("position_power_ladder", mp.conj(i_n) * ladder, "adag_imag"),
            ("raising_power_formula", pref, "q"),
            ("basis_reconstruction", norm, "q"),
            ("basis_reconstruction_dual", mp.conj(i_n) * norm, "p"),
        ):
            out[f"{tag}_{n}"] = [coefficient * v for v in values[key][n]]
    return out


@pytest.mark.parametrize("mu, size, n_max", [(-0.45, 24, 8), (0.731, 33, 8), (1.5, 48, 24)])
def test_rodrigues_right_sides_match_30_digit_products(monkeypatch, mu, size, n_max):
    import mpmath as mp

    rep = build(mu, size)
    seen, real = {}, osc._matrix_defect

    def record(rep_, tags, words, lhs, rhs):
        out = real(rep_, tags, words, lhs, rhs)
        seen.update((tag, (rhs[:, j], out[j].scale)) for j, tag in enumerate(tags))
        return out

    monkeypatch.setattr(osc, "_matrix_defect", record)
    check_rodrigues_operator(rep, n_max)
    with mp.workdps(30):
        want = _mp_rodrigues_right_sides(rep, n_max)
        assert seen.keys() == want.keys()
        for tag, (rhs, scale) in seen.items():
            err = max(abs(mp.mpc(complex(v)) - w) for v, w in zip(rhs, want[tag]))
            assert err <= 1e-15 * scale, (tag, float(err), scale)


@pytest.mark.parametrize("mu, top", [(0.0, 170), (2.35, 168), (60.0, 152)])
def test_rodrigues_refuses_n_max_past_the_float_range_of_its_prefactors(mu, top):
    # 171! and, for larger mu, gamma_mu(n) overflow; up to there every figure is finite and passes
    report = check_rodrigues_operator(build(mu, top + 2), top)
    assert report.passed
    assert all(math.isfinite(v) for e in report.entries for v in (e.interior, e.interior_raw, e.scale))
    with pytest.raises(OverflowError, match=f"past the float range of the prefactors .* n <= {top} at mu"):
        check_rodrigues_operator(build(mu, top + 3), top + 1)


def test_cli_rodrigues_past_the_monomial_ceiling_exits_0(capsys):
    args = ["oscillator", "--mu", "0", "--size", "48", "--rodrigues-nmax", "24", "--check", "rodrigues_operator"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)[0]["pass"] is True


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rodrigues-nmax", "300"], "word length 301 exceeds the truncation interior (max 249)"),
        (["--ladder-nmax", "200"], "word length 402 exceeds the truncation interior (max 249)"),
        (["--rodrigues-nmax", "200"], "past the float range of the prefactors"),
        (["--rodrigues-nmax", "0"], "n_max must be >= 1"),
        (["--ladder-nmax", "0"], "n_max must be >= 1"),
    ],
)
def test_cli_refuses_the_n_max_limits_before_any_family_runs(monkeypatch, capsys, flags, message):
    calls = []
    for name in ["build"] + [f"check_{family}" for family in check_table()]:
        real = getattr(osc, name)
        monkeypatch.setattr(osc, name, lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k))
    assert main(["oscillator", "--mu", "0.5", "--size", "250", *flags]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    # a family the limit does not concern still runs
    assert main(["oscillator", "--mu", "0.5", "--size", "24", "--check", "structure", *flags]) == 0
    assert calls == ["build", "check_structure"]
