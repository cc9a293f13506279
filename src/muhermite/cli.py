"""Command-line front end.

Subcommands evaluate the special functions, dump coefficient and
quadrature tables, run the transform, heat flow, and translation on
grids, exercise the oscillator checks, and run the acceptance suite.
Numeric CSV output uses 17 significant digits so values round-trip
through text exactly.  Exit codes: 0 success, 1 verification failure,
2 argument or domain errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction

import numpy as np

from . import oscillator as osc
from . import verify as verify_mod
from .core import _count, _exact, _rational, _real, gamma_mu, gamma_mu_exact
from .efun import c_s_mu, e_mu
from .heat import heat_apply_kernel, heat_gaussian, heat_odd_gaussian, heat_spectral_matrix
from .hermite import hermite_coeffs, hermite_eval
from .poly import fraction_str
from .quadrature import gauss_alpha_mu, gauss_hermite_mu
from .transform import (
    SpectralVector,
    expand,
    fourier_quadrature,
    phi_eval,
    synthesize,
)
from .translate import (
    translate_alpha,
    translate_gaussian_closed,
    translate_odd_gaussian_closed,
    translate_xi,
)

__all__ = ["main"]


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: str, out_path: str | None, *columns) -> None:
    """The header, then one row per index of the columns, every value in 17 digits."""
    rows = [",".join(map(_fmt, row)) for row in zip(*columns)]
    _emit("\n".join([header] + rows) + "\n", out_path)


def _grid(args) -> np.ndarray:
    _count(args.num, "--num", 2)
    _real(args.xmax, "--xmax", _real(args.xmin, "--xmin"), False)
    return np.linspace(args.xmin, args.xmax, args.num)


def _mu_arg(text: str):
    """--mu as the library takes it: p/q and integer text as an exact Fraction, any other as a float."""
    text = text.strip()
    try:
        if "/" in text or text.lstrip("+-").isdigit():
            try:
                return _rational(Fraction(text))
            except ZeroDivisionError:
                raise ValueError(f"mu = {text} has a zero denominator") from None
        return _real(float(text), "mu")
    except ValueError as exc:  # argparse would print "invalid _mu_arg value" in place of the reason
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser, grid: bool = False) -> None:
    p.add_argument("--mu", type=_mu_arg, required=True, help="deformation parameter, decimal or p/q")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    if grid:
        p.add_argument("--xmin", type=float, default=-3.0)
        p.add_argument("--xmax", type=float, default=3.0)
        p.add_argument("--num", type=int, default=61, help="grid size")


def _cmd_eval(args) -> int:
    xs = np.asarray(args.x, dtype=float)
    if args.fn in ("hermite", "phi") and args.n is None:
        raise ValueError(f"--fn {args.fn} needs --n")
    if args.fn == "cos-sin":
        _csv("x,cos_part,sin_part", args.out, xs, *c_s_mu(args.mu, xs))
        return 0
    if args.fn == "hermite":
        vals = hermite_eval(args.mu, args.n, xs)
    elif args.fn == "phi":
        vals = phi_eval(args.mu, args.n, xs)
    else:
        vals = e_mu(args.mu, xs)
    if len(xs) == 1:
        _emit(_fmt(vals[0]) + "\n", args.out)
    else:
        _csv("x,value", args.out, xs, vals)
    return 0


def _cmd_gamma(args) -> int:
    if _exact(args.mu):
        val = gamma_mu_exact(args.mu, args.n)
        _emit(fraction_str(val) + "\n", args.out)
    else:
        _emit(_fmt(gamma_mu(args.mu, args.n)) + "\n", args.out)
    return 0


def _cmd_table(args) -> int:
    _count(args.nmax, "--nmax")
    exact = _exact(args.mu)
    lines = []
    for n in range(args.nmax + 1):
        poly = hermite_coeffs(args.mu, n)
        coeffs = [fraction_str(c) if exact else _fmt(c) for c in poly.coeffs]
        lines.append(",".join([str(n)] + coeffs))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_quad(args) -> int:
    if args.kind == "hermite":
        rule = gauss_hermite_mu(args.mu, args.n)
    else:
        rule = gauss_alpha_mu(args.mu, args.n)
    _csv("node,weight", args.out, rule.nodes, rule.weights)
    return 0


def _cmd_transform(args) -> int:
    x = _grid(args)
    if args.family != "gaussian" and args.n is None:
        raise ValueError(f"--family {args.family} needs --n")
    if args.family == "gaussian":
        f = lambda t: np.exp(-args.lam * t * t)
        sigma = args.lam
    elif args.family == "monomial":
        f = lambda t: t**args.n * np.exp(-args.lam * t * t)
        sigma = args.lam
    elif args.family == "hermite":
        f = lambda t: hermite_eval(args.mu, args.n, args.beta * t) * np.exp(-args.lam * args.lam * t * t)
        sigma = args.lam * args.lam
    else:
        f = lambda t: phi_eval(args.mu, args.n, t)
        sigma = 0.5
    if args.sigma is not None:
        sigma = args.sigma
    vals = fourier_quadrature(args.mu, f, x, sigma=sigma, quad_n=args.quad_n, inverse=args.inverse)
    _csv("x,re,im", args.out, x, vals.real, vals.imag)
    return 0


def _cmd_heat(args) -> int:
    x = _grid(args)
    _real(args.alpha, "--alpha", 0.0, False)
    even = args.family == "even"
    f = (lambda u: np.exp(-args.alpha * u * u)) if even else (lambda u: u * np.exp(-args.alpha * u * u))
    if args.route == "closed":
        vals = heat_gaussian(args.mu, args.alpha, 0.0, args.t, x).real if even else heat_odd_gaussian(
            args.mu, args.alpha, args.t, x
        )
    elif args.route == "kernel":
        vals = heat_apply_kernel(args.mu, f, args.t, x, sigma=args.alpha)
    else:
        flow = heat_spectral_matrix(args.mu, args.t, args.size)
        coeffs = expand(args.mu, f, args.size - 1, sigma=args.alpha)
        vals = synthesize(SpectralVector(coeffs.mu, flow @ np.asarray(coeffs.coeffs)), x).real
    _csv("x,value", args.out, x, vals)
    return 0


def _cmd_translate(args) -> int:
    x = _grid(args)
    _real(args.lam, "--lam", 0.0, False)
    even = args.family == "even"
    f = (lambda u: np.exp(-args.lam * u * u)) if even else (lambda u: u * np.exp(-args.lam * u * u))
    if args.route == "closed":
        vals = (
            translate_gaussian_closed(args.mu, args.lam, x, args.y)
            if even
            else translate_odd_gaussian_closed(args.mu, args.lam, x, args.y)
        )
    else:
        route = translate_alpha if args.route == "alpha" else translate_xi
        vals = np.asarray([route(args.mu, f, v, args.y) for v in x])
    _csv("x,value", args.out, x, np.asarray(vals, dtype=float))
    return 0


def _cmd_oscillator(args) -> int:
    table = osc.check_table(args.ladder_nmax, args.rodrigues_nmax)
    if args.check is not None and args.check not in table:
        raise ValueError(f"unknown --check {args.check!r}; known: {', '.join(sorted(table))}")
    names = [args.check] if args.check else list(table)
    osc._check_limits(args.mu, args.size, names, args.ladder_nmax, args.rodrigues_nmax)  # before the build
    rep = osc.build(args.mu, args.size)
    reports = [table[name](rep) for name in names]
    _emit(json.dumps([r.to_json() for r in reports], indent=2) + "\n", args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify(args) -> int:
    if args.mu is not None:
        reports = verify_mod._exact_reports(args.mu, args.nmax)
        _emit(json.dumps([r.to_json() for r in reports], indent=2) + "\n", args.out)
        return 0 if all(r.passed for r in reports) else 1
    numbers = None
    if args.criteria is not None:
        numbers = sorted({int(tok) if tok.strip().isdecimal() else 0 for tok in args.criteria.split(",") if tok.strip()})
        if not numbers or not 0 < numbers[0] <= numbers[-1] <= len(verify_mod.CRITERIA):
            raise ValueError(f"--criteria {args.criteria!r} must list criterion numbers 1..{len(verify_mod.CRITERIA)}")
    results = verify_mod.run_acceptance(numbers)
    if args.json:
        _emit(json.dumps([r.to_json() for r in results], indent=2) + "\n", args.out)
    else:
        _emit("\n".join(r.line() for r in results) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muhermite",
        description="Deformed Hermite calculus: evaluation, tables, transform, heat, translation, oscillator, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a special function at points")
    _add_common(p)
    p.add_argument("--fn", required=True, choices=("hermite", "phi", "efun", "cos-sin"))
    p.add_argument("--n", type=int, default=None, help="degree / index")
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gamma", help="generalized factorial")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("table", help="polynomial coefficient table (CSV rows: n, c0, c1, ...)")
    _add_common(p)
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("quad", help="quadrature rule as CSV (node, weight)")
    _add_common(p)
    p.add_argument("--kind", choices=("hermite", "alpha"), default="hermite")
    p.add_argument("--n", type=int, required=True, help="node count")
    p.set_defaults(handler=_cmd_quad)

    p = sub.add_parser("transform", help="integral transform of a named family on a grid (CSV: x, re, im)")
    _add_common(p, grid=True)
    p.add_argument("--family", choices=("gaussian", "monomial", "hermite", "phi"), default="gaussian")
    p.add_argument("--lam", type=float, default=0.5, help="Gaussian rate (hermite family: rate is lam^2)")
    p.add_argument("--beta", type=float, default=1.0, help="hermite family argument scale")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None, help="override the envelope rate")
    p.add_argument("--quad-n", type=int, default=96)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("heat", help="heat flow of a Gaussian family on a grid (CSV: x, value)")
    _add_common(p, grid=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--family", choices=("even", "odd"), default="even")
    p.add_argument("--route", choices=("closed", "kernel", "spectral"), default="closed")
    p.add_argument("--size", type=int, default=96, help="spectral basis size")
    p.set_defaults(handler=_cmd_heat)

    p = sub.add_parser("translate", help="generalized translation of a Gaussian family (CSV: x, value)")
    _add_common(p, grid=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--family", choices=("even", "odd"), default="even")
    p.add_argument("--route", choices=("alpha", "xi", "closed"), default="alpha")
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("oscillator", help="run oscillator identity checks, JSON report")
    _add_common(p)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--check", default=None, help=f"run a single named check: {', '.join(osc.check_table())}")
    p.add_argument("--ladder-nmax", type=int, default=3)
    p.add_argument("--rodrigues-nmax", type=int, default=8, help="highest power in the Rodrigues family: at most "
                   "--size - 2, and at most 170 (less where gamma_mu(n) overflows)")
    p.set_defaults(handler=_cmd_oscillator)

    p = sub.add_parser("verify", help="acceptance suite; with --mu, the exact identity suite at that mu")
    p.add_argument("--mu", type=_mu_arg, default=None, help="rational mu routes the exact kernel")
    p.add_argument("--nmax", type=int, default=20)
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers (default: all)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry of ``python -m muhermite`` and the ``muhermite`` script: main's exit code.

    After the command it freezes the heap, so the full collections of
    interpreter shutdown skip the ~23k objects that importing numpy and
    muhermite left behind.  main itself leaves the collector alone, since
    tests and other callers run it in a process that goes on.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
