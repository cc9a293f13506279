import gc
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import muhermite
from muhermite import (
    SpectralVector,
    c_s_mu,
    e_mu,
    expand,
    fourier_quadrature,
    gauss_alpha_mu,
    gauss_hermite_mu,
    heat_apply_kernel,
    heat_gaussian,
    heat_odd_gaussian,
    heat_spectral_matrix,
    hermite_eval,
    phi_eval,
    synthesize,
    translate_alpha,
    translate_gaussian_closed,
    translate_xi,
)
from muhermite import cli
from muhermite.cli import main
from test_efun import _mp_cos_sin


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_single_point_prints_bare_value(capsys):
    code, out, _ = run(capsys, "eval", "--fn", "hermite", "--mu", "0.5", "--n", "2", "--x", "1")
    assert code == 0
    assert out.strip() == "0"


def test_eval_many_points_prints_csv(capsys):
    code, out, _ = run(
        capsys, "eval", "--fn", "phi", "--mu", "1/2", "--n", "1", "--x", "0.0", "1.0"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,value"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == pytest.approx(0.0, abs=1e-15)


def test_gamma_exact_fraction(capsys):
    code, out, _ = run(capsys, "gamma", "--mu", "0", "--n", "4")
    assert (code, out.strip()) == (0, "24")
    code, out, _ = run(capsys, "gamma", "--mu", "1/3", "--n", "3")
    assert (code, out.strip()) == (0, "110/9")


def test_quad_past_the_float_range_of_the_mass_exits_2(capsys):
    code, out, err = run(capsys, "quad", "--kind", "hermite", "--mu", "171.2", "--n", "8")
    assert (code, out) == (2, "")
    assert err.strip() == "error: Gamma(mu + 1/2) at mu = 171.2 is past the float range, mu <= 171.1"


def test_gamma_float_mu(capsys):
    code, out, _ = run(capsys, "gamma", "--mu", "0.25", "--n", "2")
    assert code == 0
    assert float(out) == pytest.approx(3.0)  # 2 * (1 + 2 mu)


def test_gamma_overflow_exits_two(capsys):
    code, out, err = run(capsys, "gamma", "--mu", "0.5", "--n", "200")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "log_gamma_mu" in err


@pytest.mark.parametrize("mu, name", [("0.5", "gamma_mu"), ("1/2", "gamma_mu_exact")])
def test_gamma_negative_n_exits_two_with_the_library_message(capsys, mu, name):
    code, out, err = run(capsys, "gamma", "--mu", mu, "--n", "-1")
    assert (code, out) == (2, "")
    assert err == f"error: {name}'s n must be nonnegative, got -1\n"


def test_efun_overflow_exits_two(capsys):
    code, out, err = run(capsys, "eval", "--mu", "0.5", "--fn", "efun", "--x", "800")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "overflows float64" in err


def _cos_sin_row(capsys, mu, x):
    """The one CSV row of `eval --fn cos-sin` as floats (c, s)."""
    code, out, _ = run(capsys, "eval", "--mu", str(mu), "--fn", "cos-sin", "--x", str(x))
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "x,cos_part,sin_part"
    return [float(v) for v in row.split(",")[1:]]


def test_cos_sin_for_negative_mu_at_large_x_matches_mpmath(capsys):
    # past |x| = 30, where the cancelling series is hopeless in float64
    np.testing.assert_allclose(_cos_sin_row(capsys, -0.25, 40.0), _mp_cos_sin(-0.25, 40.0), rtol=0, atol=1e-14)


def test_cos_sin_at_x_350_matches_mpmath(capsys):
    # past |x| = 300, where the averaging-measure rule stops resolving e^(-ixt)
    np.testing.assert_allclose(_cos_sin_row(capsys, 0.5, 350.0), _mp_cos_sin(0.5, 350.0), rtol=0, atol=1e-14)


def test_transform_past_the_quadrature_reach_exits_two(capsys):
    # omega = max|x| / sqrt(lam) = 25 against the 96-node rule's reach 18.5
    code, out, err = run(
        capsys,
        "transform", "--mu", "0", "--family", "gaussian", "--lam", "1",
        "--xmin", "-25", "--xmax", "25", "--num", "5",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "96-node rule's reach 18.51" in err


def test_table_past_float_range_exits_two(capsys):
    code, out, err = run(capsys, "table", "--mu", "0.5", "--nmax", "200")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "pass mu as a Fraction" in err


def test_domain_guard_exits_two(capsys):
    code, _, err = run(capsys, "gamma", "--mu", "-0.75", "--n", "2")
    assert code == 2
    assert "mu must exceed -1/2" in err


def test_missing_degree_exits_two(capsys):
    code, _, err = run(capsys, "eval", "--fn", "hermite", "--mu", "0.5", "--x", "1")
    assert code == 2
    assert "--n" in err


def test_table_exact_rows(capsys):
    code, out, _ = run(capsys, "table", "--mu", "1/2", "--nmax", "2")
    assert code == 0
    assert out.strip().split("\n") == ["0,1", "1,0,1", "2,-2,0,2"]


def test_quad_csv_shape(capsys):
    code, out, _ = run(capsys, "quad", "--kind", "hermite", "--mu", "0.5", "--n", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "node,weight"
    assert len(lines) == 6
    w = sum(float(l.split(",")[1]) for l in lines[1:])
    assert w == pytest.approx(1.0)  # mass at mu = 1/2 is Gamma(1)


def test_alpha_quad_guard(capsys):
    code, _, err = run(capsys, "quad", "--kind", "alpha", "--mu", "0", "--n", "8")
    assert code == 2
    assert "mu must be positive" in err


def test_transform_csv_columns(capsys):
    code, out, _ = run(
        capsys,
        "transform", "--mu", "0.5", "--family", "gaussian", "--lam", "0.5",
        "--xmin", "-1", "--xmax", "1", "--num", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,re,im"
    assert len(lines) == 6
    mid = lines[3].split(",")
    assert float(mid[1]) == pytest.approx(1.0)  # fixed point at the origin
    assert abs(float(mid[2])) < 1e-12


def test_heat_routes_agree_via_cli(capsys):
    base = ["--mu", "0.75", "--t", "0.4", "--alpha", "0.8",
            "--xmin", "-1", "--xmax", "1", "--num", "5"]
    _, closed, _ = run(capsys, "heat", *base, "--route", "closed")
    _, kernel, _ = run(capsys, "heat", *base, "--route", "kernel")
    a = [float(l.split(",")[1]) for l in closed.strip().split("\n")[1:]]
    b = [float(l.split(",")[1]) for l in kernel.strip().split("\n")[1:]]
    assert np.allclose(a, b, rtol=1e-8)


@pytest.mark.parametrize("family", ["even", "odd"])
def test_heat_kernel_route_via_cli_at_large_t(capsys, family):
    # the kernel route follows f's envelope --alpha; without it t = 50 is 100% off
    base = ["--mu", "1.5", "--t", "50", "--family", family, "--xmin", "-3", "--xmax", "3", "--num", "7"]
    _, closed, _ = run(capsys, "heat", *base, "--route", "closed")
    _, kernel, _ = run(capsys, "heat", *base, "--route", "kernel")
    a = [float(l.split(",")[1]) for l in closed.strip().split("\n")[1:]]
    b = [float(l.split(",")[1]) for l in kernel.strip().split("\n")[1:]]
    assert np.allclose(b, a, rtol=1e-10, atol=1e-10 * max(map(abs, a)))


@pytest.mark.parametrize("route", ["closed", "spectral"])
def test_heat_at_an_infinite_time_exits_two(capsys, route):
    # both routes printed nan and exited 0
    code, out, err = run(capsys, "heat", "--mu", "0.5", "--t", "inf", "--route", route, "--size", "5", "--num", "3")
    assert (code, out) == (2, "")
    assert err == "error: semigroup time t must be finite and >= 0, got inf\n"


@pytest.mark.parametrize("route", ["closed", "spectral"])
def test_heat_at_a_negative_time_exits_two_with_the_librarys_message(capsys, route):
    code, out, err = run(capsys, "heat", "--mu", "0.5", "--t", "-1", "--route", route, "--size", "5", "--num", "3")
    assert (code, out) == (2, "")
    assert err == "error: semigroup time t must be finite and >= 0, got -1.0\n"


@pytest.mark.parametrize("family", ["even", "odd"])
def test_heat_at_an_infinite_rate_exits_two(capsys, family):
    # the closed route printed nan and exited 0
    code, out, err = run(capsys, "heat", "--mu", "0.5", "--t", "0.3", "--alpha", "inf", "--family", family, "--num", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "must be finite" in err


_XS = np.array([-2.5, -0.3, 0.0, 1.1, 2.75])
_GRID = np.linspace(-1.5, 1.5, 6)  # no x = 0, which the xi route refuses
_ON_GRID = ["--xmin", "-1.5", "--xmax", "1.5", "--num", "6"]
_HEAT = ["heat", "--mu", "0.75", "--t", "0.4", "--alpha", "0.8", "--size", "40", *_ON_GRID]
_TRANSLATE = ["translate", "--mu", "0.75", "--y", "0.9", "--lam", "0.5", *_ON_GRID]


def _gauss(rate):
    return lambda u: np.exp(-rate * u * u)


def _spectral_heat():
    flow = heat_spectral_matrix(0.75, 0.4, 40) @ np.asarray(expand(0.75, _gauss(0.8), 39, sigma=0.8).coeffs)
    return _GRID, synthesize(SpectralVector(0.75, flow), _GRID).real


def _transform():
    vals = fourier_quadrature(0.7, _gauss(0.5), _GRID, sigma=0.5)
    return _GRID, vals.real, vals.imag


def _quad(build):
    rule = build(0.7, 9)
    return rule.nodes, rule.weights


def _eval(fn, *n):
    return ["eval", "--fn", fn, "--mu", "0.7", *n, "--x", *map(str, _XS)]


# argv, the CSV header, and the library's own columns
_ROUND_TRIPS = {
    "eval-hermite": (_eval("hermite", "--n", "5"), "x,value", lambda: (_XS, hermite_eval(0.7, 5, _XS))),
    "eval-phi": (_eval("phi", "--n", "4"), "x,value", lambda: (_XS, phi_eval(0.7, 4, _XS))),
    "eval-efun": (_eval("efun"), "x,value", lambda: (_XS, e_mu(0.7, _XS))),
    "eval-cos-sin": (_eval("cos-sin"), "x,cos_part,sin_part", lambda: (_XS, *c_s_mu(0.7, _XS))),
    "quad-hermite": (["quad", "--mu", "0.7", "--n", "9"], "node,weight", lambda: _quad(gauss_hermite_mu)),
    "quad-alpha": (["quad", "--kind", "alpha", "--mu", "0.7", "--n", "9"], "node,weight", lambda: _quad(gauss_alpha_mu)),
    "transform": (["transform", "--mu", "0.7", "--lam", "0.5", *_ON_GRID], "x,re,im", _transform),
    "heat-closed-even": (
        [*_HEAT, "--route", "closed"], "x,value", lambda: (_GRID, heat_gaussian(0.75, 0.8, 0.0, 0.4, _GRID).real)
    ),
    "heat-closed-odd": (
        [*_HEAT, "--route", "closed", "--family", "odd"], "x,value", lambda: (_GRID, heat_odd_gaussian(0.75, 0.8, 0.4, _GRID))
    ),
    "heat-kernel": (
        [*_HEAT, "--route", "kernel"], "x,value", lambda: (_GRID, heat_apply_kernel(0.75, _gauss(0.8), 0.4, _GRID, sigma=0.8))
    ),
    "heat-spectral": ([*_HEAT, "--route", "spectral"], "x,value", _spectral_heat),
    "translate-closed": (
        [*_TRANSLATE, "--route", "closed"], "x,value", lambda: (_GRID, translate_gaussian_closed(0.75, 0.5, _GRID, 0.9))
    ),
    "translate-alpha": (
        [*_TRANSLATE, "--route", "alpha"], "x,value", lambda: (_GRID, [translate_alpha(0.75, _gauss(0.5), x, 0.9) for x in _GRID])
    ),
    "translate-xi": (
        [*_TRANSLATE, "--route", "xi"], "x,value", lambda: (_GRID, [translate_xi(0.75, _gauss(0.5), x, 0.9) for x in _GRID])
    ),
}


@pytest.mark.parametrize("case", list(_ROUND_TRIPS))
def test_csv_round_trips_the_librarys_float64_bit_for_bit(capsys, case):
    # 17 significant digits: each parsed field is the library's own double
    argv, header, columns = _ROUND_TRIPS[case]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("\n")
    lines = out.split("\n")[:-1]
    assert lines[0] == header
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    want = np.column_stack([np.asarray(c, dtype=float) for c in columns()])
    assert parsed.shape == want.shape
    assert_array_equal(parsed, want)
    assert_array_equal(np.signbit(parsed), np.signbit(want))


@pytest.mark.parametrize("route", ["alpha", "xi"])
def test_translate_at_an_infinite_shift_exits_two(capsys, route):
    code, out, err = run(
        capsys, "translate", "--mu", "0.75", "--y", "inf", "--route", route, "--xmin", "0.5", "--xmax", "1.5", "--num", "3"
    )
    assert (code, out) == (2, "")
    assert err == "error: the shift y must be finite, got inf\n"


def test_translate_cli(capsys):
    code, out, _ = run(
        capsys,
        "translate", "--mu", "0.75", "--y", "0.9", "--route", "closed",
        "--xmin", "0.5", "--xmax", "1.5", "--num", "3",
    )
    assert code == 0
    assert out.startswith("x,value\n")


def test_oscillator_json_and_exit(capsys):
    code, out, _ = run(capsys, "oscillator", "--mu", "0.5", "--size", "12", "--check", "structure")
    assert code == 0
    blob = json.loads(out)
    assert blob[0]["check"] == "structure"
    assert blob[0]["pass"] is True


def test_oscillator_word_too_long_for_size(capsys):
    code, _, err = run(capsys, "oscillator", "--mu", "0.5", "--size", "8", "--check", "structure")
    assert code == 2
    assert "word length" in err


def test_oscillator_check_takes_the_nmax_flags(capsys):
    # a single family runs at the same n_max as the full suite
    code, out, _ = run(
        capsys, "oscillator", "--mu", "0.5", "--size", "8", "--check", "ladder_powers", "--ladder-nmax", "2"
    )
    assert code == 0
    tags = [e["tag"] for e in json.loads(out)[0]["identities"]]
    assert [tag for tag in tags if tag.startswith("ground_")][-1] == "ground_ladder_power_5"
    code, out, _ = run(
        capsys, "oscillator", "--mu", "0.5", "--size", "12", "--check", "rodrigues_operator", "--rodrigues-nmax", "2"
    )
    assert code == 0
    assert len(json.loads(out)[0]["identities"]) == 21


def test_oscillator_unknown_check(capsys):
    code, _, err = run(capsys, "oscillator", "--mu", "0.5", "--check", "nope")
    assert code == 2
    assert "unknown --check" in err


def test_verify_exact_suite(capsys):
    code, out, _ = run(capsys, "verify", "--mu", "1/3", "--nmax", "6")
    assert code == 0
    blob = json.loads(out)
    assert len(blob) == 12
    assert all(r["pass"] for r in blob)
    assert {r["suite"] for r in blob} == {"exact"}


def test_verify_exact_negative_nmax_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--mu", "1/3", "--nmax", "-2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nonnegative" in err


def test_verify_exact_needs_rational(capsys):
    code, _, err = run(capsys, "verify", "--mu", "0.7")
    assert code == 2
    assert "exact" in err


def test_verify_single_criterion(capsys):
    code, out, _ = run(capsys, "verify", "--criteria", "10")
    assert code == 0
    assert out.startswith("PASS criterion_10")


def test_verify_json_subset(capsys):
    code, out, _ = run(capsys, "verify", "--criteria", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob[0]["criterion"] == 3 and blob[0]["pass"] is True
    assert blob[0]["name"] == "orthonormality"


@pytest.mark.parametrize("criteria", [",", " ", "", "x", "11", "3,x", "0"])
def test_verify_criteria_naming_nothing_exits_two(capsys, criteria):
    # "x" printed int()'s "invalid literal", and "11" the library's "criterion number must be 1..10"
    code, out, err = run(capsys, "verify", "--criteria", criteria, "--json")
    assert (code, out) == (2, "")
    assert err == f"error: --criteria {criteria!r} must list criterion numbers 1..10\n"


@pytest.mark.parametrize("argv", [["verify", "--mu", "1/0"], ["oscillator", "--mu", "1/0", "--size", "8"]])
def test_mu_with_a_zero_denominator_exits_two(capsys, argv):
    # argparse printed "invalid parse value: '1/0'" in place of the library's reason
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.endswith("error: argument --mu: mu = 1/0 has a zero denominator\n")


def test_mu_at_a_pole_exits_two_naming_the_pole(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--mu=-1/2", "--n", "3"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.endswith("error: argument --mu: mu = -1/2 is a pole of the factorial recursion\n")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code = main(["gamma", "--mu", "5/2", "--n", "5", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().strip() == "3840"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    capsys.readouterr()
    assert exc.value.code == 2


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_a_process_prints_through_its_frozen_exit():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "muhermite", "gamma", "--mu", "0", "--n", "4"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "24\n", "")


def test_main_leaves_the_collector_as_it_found_it(capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, "gamma", "--mu", "0", "--n", "4")[0] == 0
    assert run(capsys, "verify", "--criteria", "3")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_run_returns_mains_code_and_freezes_the_heap(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["muhermite", "gamma", "--mu", "0", "--n", "-1"])
    try:
        assert cli.run() == 2
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert capsys.readouterr().err.startswith("error: ")


def test_the_script_and_python_m_share_one_entry_and_add_no_name():
    script = re.search(r'^muhermite = "muhermite\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    entry = script.group(1)
    assert (ROOT / "src" / "muhermite" / "__main__.py").read_text() == f"from .cli import {entry}\n\nraise SystemExit({entry}())\n"
    assert cli.__all__ == ["main"]
    assert entry not in muhermite.__all__
