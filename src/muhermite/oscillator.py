"""Truncated matrix model of the deformed harmonic oscillator.

The ladder, position, momentum, number, parity, and transform operators
act here on the span of the first N basis vectors e_0..e_{N-1} of the
eigenfunction basis.  Each canonical letter moves a basis index by at
most one, so a word of k letters applied to e_n never touches the
truncation edge when n <= N - 1 - k.  Matrix identities are therefore
asserted on those interior columns only; the per-column defect table in
each report keeps the (expected) edge corruption visible rather than
hiding it.

Operator words grow like sqrt(N)^k, so an absolute elementwise defect
is not scale-free.  Reports record the raw interior defect alongside a
scaled one (raw divided by the larger of 1 and the interior magnitude
of either side); pass/fail uses the scaled number, which is the usual
backward-style residual.

Each decision is written once.  `_brackets` holds the bracket of each
letter pair ([A, X], i[P, X], i[X, Q]), which acts on a polynomial in
its letter as the reflection-corrected derivative; the power, ground
and intertwining identities loop over its rows.  `_matrix_defect` is
the one defect measure, a vector being a one-column matrix.
`check_table` lists the check families in report order for both
`run_all` and the CLI.

Irreducibility of the represented algebra is structural rather than
checked: e_0 is cyclic for the raising matrix by construction, every
basis vector being a normalized raising-power image of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import as_mu, gamma_mu
from .hermite import dunkl_apply, hermite_coeffs
from .poly import DensePoly
from .quadrature import gauss_hermite_mu
from .transform import SpectralVector, fourier_spectral, operator_matrix, phi_poly_coeffs, phi_poly_table

__all__ = [
    "OscillatorRep",
    "IdentityDefect",
    "CheckReport",
    "build",
    "check_structure",
    "check_equations_of_motion",
    "check_commutation",
    "check_ladder_powers",
    "check_rodrigues_operator",
    "check_rotation",
    "check_representation",
    "check_table",
    "run_all",
]


@dataclass(frozen=True)
class OscillatorRep:
    """Matrix realization on the first `size` basis vectors.

    `max_word` is the longest operator word with a nonempty interior;
    checks refuse words past it instead of silently reporting garbage.
    """

    mu: float
    size: int
    a: np.ndarray
    adag: np.ndarray
    q: np.ndarray
    p: np.ndarray
    h: np.ndarray
    j: np.ndarray
    f: np.ndarray

    @property
    def max_word(self) -> int:
        return self.size - 1

    def identity(self) -> np.ndarray:
        return np.eye(self.size, dtype=complex)

    def basis_vector(self, n: int) -> np.ndarray:
        e = np.zeros(self.size, dtype=complex)
        e[n] = 1.0
        return e


@dataclass(frozen=True)
class IdentityDefect:
    """Defect of one identity: raw per-column maxima plus summaries.

    `interior` is the scaled residual used for pass/fail; `interior_raw`
    and `edge_raw` are plain elementwise maxima inside and outside the
    trusted columns.  Vector identities have a single pseudo-column.
    """

    tag: str
    word_length: int
    interior: float
    interior_raw: float
    edge_raw: float
    scale: float
    column_defects: tuple

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "word_length": self.word_length,
            "interior": self.interior,
            "interior_raw": self.interior_raw,
            "edge_raw": self.edge_raw,
            "scale": self.scale,
            "column_defects": [float(f"{d:.3e}") for d in self.column_defects],
        }


@dataclass(frozen=True)
class CheckReport:
    """One family of identity checks on a fixed truncation."""

    name: str
    mu: float
    size: int
    tolerance: float
    entries: tuple

    @property
    def max_defect(self) -> float:
        return max(e.interior for e in self.entries)

    @property
    def passed(self) -> bool:
        return all(e.interior < self.tolerance for e in self.entries)

    def worst(self) -> IdentityDefect:
        return max(self.entries, key=lambda e: e.interior)

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "mu": self.mu,
            "size": self.size,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "max_defect": self.max_defect,
            "identities": [e.to_json() for e in self.entries],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def build(mu, size: int) -> OscillatorRep:
    """Assemble the truncated operator family on `size` basis vectors."""
    param = as_mu(mu)
    value = param.require_numeric()
    if size < 4:
        raise ValueError("oscillator truncation needs size >= 4")
    # The letters in OscillatorRep field order: a, adag, q, p, h, j, f.
    kinds = ("A", "Adag", "Q", "P", "H", "J", "F")
    return OscillatorRep(value, size, *(operator_matrix(param, kind, size) for kind in kinds))


def _require_word(rep: OscillatorRep, k: int) -> None:
    if k > rep.max_word:
        raise ValueError(f"word length {k} exceeds the truncation interior (max {rep.max_word})")


def _matrix_defect(rep: OscillatorRep, tag: str, word_length: int, lhs, rhs) -> IdentityDefect:
    """Defect of lhs = rhs; a vector is a one-column matrix.

    _require_word keeps the first column interior, so a vector identity
    has no edge and its one column defect is the raw interior defect.
    """
    _require_word(rep, word_length)
    lhs, rhs = lhs.reshape(len(lhs), -1), rhs.reshape(len(rhs), -1)
    cols = np.abs(lhs - rhs).max(axis=0).tolist()
    keep = min(len(cols), rep.size - word_length)
    scale = max(1.0, float(np.abs(lhs[:, :keep]).max()), float(np.abs(rhs[:, :keep]).max()))
    interior_raw = max(cols[:keep])
    return IdentityDefect(
        tag=tag,
        word_length=word_length,
        interior=interior_raw / scale,
        interior_raw=interior_raw,
        edge_raw=max(cols[keep:], default=0.0),
        scale=scale,
        column_defects=tuple(cols),
    )


def _commutator(x, y):
    return x @ y - y @ x


def _poly_apply(p: DensePoly, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """p(M) v by Horner on v; pass the identity for the matrix p(M) itself."""
    acc = np.zeros(v.shape, dtype=complex)
    for c in reversed(p.coeffs):
        acc = m @ acc + complex(c) * v
    return acc


def check_structure(rep: OscillatorRep, tolerance: float = 1e-11) -> CheckReport:
    """Number-operator actions, parity and transform algebra, spectrum.

    Covers the diagonal facts: A* A e_n = (n + 2 mu theta_n) e_n and its
    raised partner, H as the ladder mean with spectrum n + mu + 1/2, the
    parity involution with eigenvalues (-1)^n and its definition through
    the half-period phase of H, the transform square root of parity with
    eigenvalues (-i)^n, the quarter-turn conjugation sending position to
    momentum, ground-state annihilation, and the lowering/raising chains
    applied to e_0.
    """
    size, value = rep.size, rep.mu
    eye = rep.identity()
    n_idx = np.arange(size)
    theta = n_idx % 2
    entries = []

    number_low = np.diag(n_idx + 2.0 * value * theta).astype(complex)
    number_high = np.diag(n_idx + 1 + 2.0 * value * ((n_idx + 1) % 2)).astype(complex)
    entries.append(_matrix_defect(rep, "number_lowering", 2, rep.adag @ rep.a, number_low))
    entries.append(_matrix_defect(rep, "number_raising", 2, rep.a @ rep.adag, number_high))
    entries.append(_matrix_defect(rep, "hamiltonian_mean", 2, rep.h, 0.5 * (rep.a @ rep.adag + rep.adag @ rep.a)))
    entries.append(_matrix_defect(rep, "hamiltonian_diagonal", 0, rep.h, np.diag(n_idx + value + 0.5).astype(complex)))

    entries.append(_matrix_defect(rep, "ground_annihilation", 1, rep.a @ rep.basis_vector(0), np.zeros(size)))

    entries.append(_matrix_defect(rep, "parity_eigenvalues", 0, rep.j, np.diag((-1.0) ** n_idx).astype(complex)))
    entries.append(_matrix_defect(rep, "parity_involution", 0, rep.j @ rep.j, eye))
    entries.append(_matrix_defect(rep, "parity_self_adjoint", 0, rep.j, rep.j.conj().T))
    half_period = np.diag(np.exp(-1j * math.pi * (np.diag(rep.h) - (value + 0.5))))
    entries.append(_matrix_defect(rep, "parity_from_hamiltonian", 0, half_period, rep.j))
    full_period = np.diag(np.exp(-2j * math.pi * (np.diag(rep.h) - (value + 0.5))))
    entries.append(_matrix_defect(rep, "hamiltonian_period", 0, full_period, eye))

    entries.append(_matrix_defect(rep, "transform_square", 0, rep.f @ rep.f, rep.j))
    entries.append(_matrix_defect(rep, "transform_adjoint", 0, rep.f.conj().T, rep.j @ rep.f))
    entries.append(_matrix_defect(rep, "transform_parity_commute", 0, rep.j @ rep.f, rep.f @ rep.j))
    entries.append(_matrix_defect(rep, "transform_eigenvalues", 0, rep.f, np.diag((-1j) ** n_idx)))
    entries.append(_matrix_defect(rep, "quarter_turn_position", 2, rep.f.conj().T @ rep.q @ rep.f, rep.p))

    e0 = rep.basis_vector(0)
    for m, n in ((1, 3), (2, 5), (3, 3), (4, 6)):
        word = m + n
        lhs = np.linalg.matrix_power(rep.a, m) @ np.linalg.matrix_power(rep.adag, n) @ e0
        ratio = gamma_mu(value, n) / gamma_mu(value, n - m)
        rhs = ratio * (np.linalg.matrix_power(rep.adag, n - m) @ e0)
        entries.append(_matrix_defect(rep, f"ladder_chain_{m}_{n}", word, lhs, rhs))
    for m, n in ((3, 2), (5, 4)):
        lhs = np.linalg.matrix_power(rep.a, m) @ np.linalg.matrix_power(rep.adag, n) @ e0
        entries.append(_matrix_defect(rep, f"ladder_chain_kill_{m}_{n}", m + n, lhs, np.zeros(size)))

    return CheckReport(name="structure", mu=value, size=size, tolerance=tolerance, entries=tuple(entries))


def check_equations_of_motion(rep: OscillatorRep, tolerance: float = 1e-11) -> CheckReport:
    """Heisenberg equations and their ladder and squared-letter forms."""
    entries = [
        _matrix_defect(rep, "momentum_hamiltonian", 2, 1j * _commutator(rep.p, rep.h), rep.q),
        _matrix_defect(rep, "position_hamiltonian", 2, 1j * _commutator(rep.q, rep.h), -rep.p),
        _matrix_defect(rep, "lowering_hamiltonian", 2, _commutator(rep.a, rep.h), rep.a),
        _matrix_defect(rep, "raising_hamiltonian", 2, _commutator(rep.adag, rep.h), -rep.adag),
        _matrix_defect(rep, "momentum_position_squared", 3, 1j * _commutator(rep.p, rep.q @ rep.q), 2.0 * rep.q),
        _matrix_defect(rep, "momentum_squared_position", 3, 1j * _commutator(rep.p @ rep.p, rep.q), 2.0 * rep.p),
    ]
    return CheckReport(name="equations_of_motion", mu=rep.mu, size=rep.size, tolerance=tolerance, entries=tuple(entries))


def check_commutation(rep: OscillatorRep, tolerance: float = 1e-11) -> CheckReport:
    """Deformed canonical commutator and parity anticommutation.

    i(PQ - QP) equals the identity plus 2 mu times parity; only at
    mu = 0 does this collapse to the canonical commutator, so that form
    is asserted there and its measured failure 2|mu| elsewhere is the
    inequivalence artifact between deformation parameters.
    """
    eye = rep.identity()
    comm = 1j * _commutator(rep.p, rep.q)
    entries = [
        _matrix_defect(rep, "deformed_commutator", 2, comm, eye + 2.0 * rep.mu * rep.j),
        _matrix_defect(rep, "parity_momentum_anticommute", 2, rep.j @ rep.p, -rep.p @ rep.j),
        _matrix_defect(rep, "parity_position_anticommute", 2, rep.j @ rep.q, -rep.q @ rep.j),
    ]
    if rep.mu == 0.0:
        entries.append(_matrix_defect(rep, "canonical_commutator", 2, comm, eye))
    return CheckReport(name="commutation", mu=rep.mu, size=rep.size, tolerance=tolerance, entries=tuple(entries))


def _brackets(rep: OscillatorRep) -> tuple:
    """One row per letter pair: its name, the letter X and the bracket.

    The brackets are [A, X], i[P, X] and i[X, Q] against the raising,
    position and momentum letters.  Each acts on a polynomial in its
    letter as the reflection-corrected derivative does.
    """
    return (
        ("ladder", rep.adag, lambda m: _commutator(rep.a, m)),
        ("position", rep.q, lambda m: 1j * _commutator(rep.p, m)),
        ("momentum", rep.p, lambda m: 1j * _commutator(m, rep.q)),
    )


def check_ladder_powers(rep: OscillatorRep, n_max: int = 3, tolerance: float = 1e-11) -> CheckReport:
    """Commutators with letter powers, and derivative action on e_0.

    Even powers commute down classically, [A, A*^(2n)] = 2n A*^(2n-1);
    odd powers pick up the deformed commutator as a right factor.  The
    same shapes hold for position powers against momentum and momentum
    powers against position.  On the ground vector every power identity
    collapses to a gamma-ratio, and more generally commutation with a
    polynomial in one letter applies the reflection-corrected derivative
    to that polynomial.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _require_word(rep, 2 * n_max + 2)
    value, size = rep.mu, rep.size
    eye = rep.identity()
    ladder, position, momentum = rows = _brackets(rep)
    entries = []

    deformed = eye + 2.0 * value * rep.j
    for n in range(1, n_max + 1):
        even, odd = 2 * n, 2 * n + 1
        for name, letter, bracket in rows:
            x_even = np.linalg.matrix_power(letter, even)
            entries.append(
                _matrix_defect(
                    rep, f"even_{name}_power_{n}", even + 1,
                    bracket(x_even), even * np.linalg.matrix_power(letter, even - 1),
                )
            )
            entries.append(
                _matrix_defect(
                    rep, f"odd_{name}_power_{n}", odd + 1,
                    bracket(np.linalg.matrix_power(letter, odd)), x_even @ (even * eye + deformed),
                )
            )

    e0 = rep.basis_vector(0)
    entries.append(_matrix_defect(rep, "ground_raising_vs_position", 1, rep.adag @ e0 / math.sqrt(2.0), rep.q @ e0))
    entries.append(_matrix_defect(rep, "ground_position_vs_momentum", 1, rep.q @ e0, -1j * (rep.p @ e0)))
    for n in range(1, 2 * n_max + 2):
        ratio = gamma_mu(value, n) / gamma_mu(value, n - 1)
        for name, letter, bracket in (position, momentum, ladder):
            entries.append(
                _matrix_defect(
                    rep, f"ground_{name}_power_{n}", n + 1,
                    bracket(np.linalg.matrix_power(letter, n)) @ e0,
                    ratio * (np.linalg.matrix_power(letter, n - 1) @ e0),
                )
            )

    generic = DensePoly.from_coeffs((-1.0, 5.0, 2.0, -3.0, 1.0))
    derived = dunkl_apply(value, generic)
    for name, (_, letter, bracket) in (("position", position), ("raising", ladder), ("momentum", momentum)):
        lhs = bracket(_poly_apply(generic, letter, eye)) @ e0
        rhs = _poly_apply(derived, letter, e0)
        entries.append(_matrix_defect(rep, f"derivative_intertwine_{name}", generic.degree + 1, lhs, rhs))

    _, q, bracket = position
    # D H_3(lam x) = 6 lam H_2(lam x)
    h3, h2 = hermite_coeffs(value, 3), hermite_coeffs(value, 2)
    for tag, lam in (("hermite", 1.0), ("hermite_scaled", 0.5)):
        lhs = bracket(_poly_apply(h3.dilate(lam), q, eye)) @ e0
        rhs = (6.0 * lam) * _poly_apply(h2.dilate(lam), q, e0)
        entries.append(_matrix_defect(rep, f"derivative_intertwine_{tag}", 4, lhs, rhs))

    return CheckReport(name="ladder_powers", mu=value, size=size, tolerance=tolerance, entries=tuple(entries))


def check_rodrigues_operator(rep: OscillatorRep, n_max: int = 8, tolerance: float = 1e-11) -> CheckReport:
    """Letter powers on e_0 against matrix polynomial closed forms.

    P^n e_0 is i^n gamma(n)/(2^(n/2) n!) times the degree-n polynomial
    evaluated at Q/sqrt(2) applied to e_0; the dual swaps Q and P with
    the conjugate phase; the raising form drops the argument scaling;
    and the normalized version reconstructs the basis vectors e_n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _require_word(rep, n_max + 1)
    value, size = rep.mu, rep.size
    e0 = rep.basis_vector(0)
    root_half = 1.0 / math.sqrt(2.0)
    entries = []
    for n in range(n_max + 1):
        poly = hermite_coeffs(value, n)
        scaled = poly.dilate(root_half)
        pref = gamma_mu(value, n) / (2.0 ** (n / 2.0) * math.factorial(n))
        pref_ladder = gamma_mu(value, n) / (2.0**n * math.factorial(n))
        norm = math.sqrt(gamma_mu(value, n)) / (2.0 ** (n / 2.0) * math.factorial(n))
        p_pow = np.linalg.matrix_power(rep.p, n) @ e0
        q_pow = np.linalg.matrix_power(rep.q, n) @ e0
        e_n = rep.basis_vector(n)
        # (tag, lhs, coefficient, polynomial, letter): lhs = coefficient * polynomial(letter) e_0
        rows = (
            ("momentum_power_formula", p_pow, 1j**n * pref, scaled, rep.q),
            ("momentum_power_ladder", p_pow, 1j**n * pref_ladder, scaled, rep.adag),
            ("position_power_formula", q_pow, (-1j) ** n * pref, scaled, rep.p),
            ("position_power_ladder", q_pow, (-1j) ** n * pref_ladder, poly.dilate(1j * root_half), rep.adag),
            ("raising_power_formula", np.linalg.matrix_power(rep.adag, n) @ e0, pref, poly, rep.q),
            ("basis_reconstruction", e_n, norm, poly, rep.q),
            ("basis_reconstruction_dual", e_n, (-1j) ** n * norm, poly, rep.p),
        )
        for tag, lhs, coefficient, polynomial, letter in rows:
            rhs = coefficient * _poly_apply(polynomial, letter, e0)
            entries.append(_matrix_defect(rep, f"{tag}_{n}", n, lhs, rhs))
    return CheckReport(name="rodrigues_operator", mu=value, size=size, tolerance=tolerance, entries=tuple(entries))


def check_rotation(rep: OscillatorRep, angles=(0.3, 1.1), tolerance: float = 1e-12) -> CheckReport:
    """Phase-rotation conjugation of position, momentum, and lowering.

    exp(i lam H) is an exact diagonal phase, and conjugating a banded
    matrix by a diagonal phase multiplies each entry by a unit complex
    number, so these identities hold entrywise on the full truncation
    with no interior margin; the measured margin is zero columns.  The
    quarter turn reproduces the conjugation of position into momentum
    by the transform's phase.
    """
    value, size = rep.mu, rep.size
    diag_h = np.diag(rep.h).real
    entries = []
    for lam in angles:
        u = np.diag(np.exp(1j * lam * diag_h))
        ustar = u.conj().T
        cos, sin = math.cos(lam), math.sin(lam)
        for name, letter, rotated in (
            ("position", rep.q, cos * rep.q + sin * rep.p),
            ("momentum", rep.p, -sin * rep.q + cos * rep.p),
            ("lowering", rep.a, np.exp(-1j * lam) * rep.a),
        ):
            entries.append(_matrix_defect(rep, f"rotate_{name}_{lam:g}", 0, u @ letter @ ustar, rotated))
    quarter = np.diag(np.exp(1j * (math.pi / 2.0) * diag_h))
    entries.append(
        _matrix_defect(rep, "quarter_turn_momentum", 0, quarter @ rep.q @ quarter.conj().T, rep.p)
    )
    return CheckReport(name="rotation", mu=value, size=size, tolerance=tolerance, entries=tuple(entries))


def check_representation(rep: OscillatorRep, quad_n: int | None = None, tolerance: float = 1e-8) -> CheckReport:
    """Matrix entries against weighted-measure inner products.

    The concrete model realizes position as multiplication by x,
    momentum as -i times the reflection-corrected derivative, and the
    energy as half of (x^2 minus the second such derivative), all
    acting on the eigenfunctions.  Since those actions keep the
    Gaussian factor and a polynomial factor, every inner product
    reduces to a polynomial integral against the |x|^(2 mu) Gaussian
    weight, evaluated here by quadrature and compared entrywise to the
    abstract matrices.  The transform column is bridged through the
    spectral route instead.
    """
    value, size = rep.mu, rep.size
    inner = size - 1
    if quad_n is None:
        quad_n = min(256, size + 8)
    rule = gauss_hermite_mu(value, quad_n)
    x = rule.nodes
    w = rule.weights
    table = phi_poly_table(value, inner - 1, x)

    polys = [phi_poly_coeffs(value, n) for n in range(inner)]
    p_vals = np.empty((inner, len(x)), dtype=float)
    h_vals = np.empty((inner, len(x)), dtype=float)
    for n, poly in enumerate(polys):
        q_poly = dunkl_apply(value, poly) - poly.shift_up(1)
        p_vals[n] = q_poly(x)
        h_poly = (poly.shift_up(2) - (dunkl_apply(value, q_poly) - q_poly.shift_up(1))).scale(0.5)
        h_vals[n] = h_poly(x)

    q_bridge = (table * (w * x)) @ table.T
    p_bridge = -1j * ((p_vals * w) @ table.T).T
    h_bridge = ((h_vals * w) @ table.T).T

    entries = [
        _matrix_defect(rep, "position_bridge", 1, rep.q[:inner, :inner], q_bridge.astype(complex)),
        _matrix_defect(rep, "momentum_bridge", 1, rep.p[:inner, :inner], p_bridge),
        _matrix_defect(rep, "energy_bridge", 1, rep.h[:inner, :inner], h_bridge.astype(complex)),
        _matrix_defect(
            rep, "energy_diagonal", 1,
            h_bridge.astype(complex), np.diag(np.arange(inner) + value + 0.5).astype(complex),
        ),
    ]

    coeffs = 1.0 / (1.0 + np.arange(size)) + 0.25j
    spectral = fourier_spectral(SpectralVector(mu=value, coeffs=coeffs.copy()))
    entries.append(_matrix_defect(rep, "transform_bridge", 0, rep.f @ coeffs, np.asarray(spectral.coeffs)))
    return CheckReport(name="representation", mu=value, size=size, tolerance=tolerance, entries=tuple(entries))


def check_table(ladder_n_max: int = 3, rodrigues_n_max: int = 8) -> dict:
    """Every check family by name, in report order, as a callable on a rep.

    run_all walks this table and `muhermite oscillator --check` looks a
    name up in it, so both run a family at the same n_max.
    """
    return {
        "structure": check_structure,
        "equations_of_motion": check_equations_of_motion,
        "commutation": check_commutation,
        "ladder_powers": partial(check_ladder_powers, n_max=ladder_n_max),
        "rodrigues_operator": partial(check_rodrigues_operator, n_max=rodrigues_n_max),
        "rotation": check_rotation,
        "representation": check_representation,
    }


def run_all(rep: OscillatorRep, ladder_n_max: int = 3, rodrigues_n_max: int = 8) -> tuple:
    """Every check family on one representation, in check_table order."""
    return tuple(check(rep) for check in check_table(ladder_n_max, rodrigues_n_max).values())
