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
and intertwining identities loop over its rows.  `_matrix_defect` is the
one defect measure, one |.| pass over a matrix identity or over a block
of vector identities, each column measured as if alone.  `_powers` gives
the letter powers the matrix identities need, `_krylov` the vectors
X^n e_0, and `hermite._hermite_steps`, the one three-term recursion,
H_n(sX) e_0 for every n; nothing is kept on a rep or across reps.
`check_table` lists the check families in report order for both
`run_all` and the CLI.  The representation bridge applies D from its
definition to the rows p, p', p'' of `quadrature._recurrence_table` at
the Gauss nodes; at the node x = 0 of an odd rule each quotient by x
takes its limit.

Irreducibility of the represented algebra is structural rather than
checked: e_0 is cyclic for the raising matrix by construction, every
basis vector being a normalized raising-power image of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import _count, _mu, gamma_table
from .hermite import _hermite_steps, dunkl_apply
from .poly import DensePoly
from .quadrature import gauss_hermite_mu
from .transform import SpectralVector, _MINUS_I_POWERS, _phi_rows, fourier_spectral, operator_matrix

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

# The bound on a family's scaled interior defect; the rotation family (exact
# diagonal phases) and the representation bridge (Gauss quadrature) set their own.
_TOLERANCE = 1e-11


@dataclass(frozen=True)
class OscillatorRep:
    """Matrix realization on the first `size` basis vectors.

    The longest operator word with a nonempty interior has size - 1
    letters; checks refuse words past it instead of silently reporting
    garbage.
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


def build(mu, size: int) -> OscillatorRep:
    """Assemble the truncated operator family on `size` basis vectors."""
    value = _mu(mu)
    size = _count(size, "oscillator size", 4)
    # The letters in OscillatorRep field order: a, adag, q, p, h, j, f.
    kinds = ("A", "Adag", "Q", "P", "H", "J", "F")
    return OscillatorRep(value, size, *(operator_matrix(value, kind, size) for kind in kinds))


def _require_word(size: int, k: int) -> None:
    if k > size - 1:
        raise ValueError(f"word length {k} exceeds the truncation interior (max {size - 1})")


def _matrix_defect(rep: OscillatorRep, tag, word_length, lhs, rhs):
    """Defect of lhs = rhs, from one |.| pass over the stacked (lhs - rhs, lhs, rhs).

    A matrix identity is asserted on its interior columns.  Given lists of tags and word
    lengths, lhs and rhs hold that many vector identities as columns, and each defect in the
    returned list is that of its column alone: a vector is kept interior, so it has no edge.
    """
    if isinstance(tag, str) and lhs.ndim == 1:
        return _matrix_defect(rep, [tag], [word_length], lhs[:, None], rhs[:, None])[0]
    _require_word(rep.size, word_length if isinstance(tag, str) else max(word_length))
    cols, lhs_max, rhs_max = np.abs(np.array((lhs - rhs, lhs, rhs))).max(axis=1).tolist()
    if isinstance(tag, str):
        keep = min(len(cols), rep.size - word_length)
        scale, raw = max(1.0, max(lhs_max[:keep]), max(rhs_max[:keep])), max(cols[:keep])
        return IdentityDefect(tag, word_length, raw / scale, raw, max(cols[keep:], default=0.0), scale, tuple(cols))
    scales = [max(1.0, a, b) for a, b in zip(lhs_max, rhs_max)]
    return [IdentityDefect(t, w, c / s, c, 0.0, s, (c,)) for t, w, c, s in zip(tag, word_length, cols, scales)]


def _commutator(x, y, v=None):
    """XY - YX, or given a vector v, X(Y v) - Y(X v), where X or Y may be a function applying it."""
    if v is None:
        return x @ y - y @ x
    x, y = x if callable(x) else x.__matmul__, y if callable(y) else y.__matmul__
    return x(y(v)) - y(x(v))


def _powers(m: np.ndarray, k: int) -> list:
    """[I, M, M^2, ..., M^k] by successive products."""
    out = [np.eye(len(m), dtype=m.dtype)]
    for _ in range(k):
        out.append(out[-1] @ m)
    return out


def _krylov(m: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """The columns v, M v, ..., M^k v."""
    out = [v]
    for _ in range(k):
        out.append(m @ out[-1])
    return np.stack(out, axis=1)


def _poly_apply(p: DensePoly, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """p(M) v by Horner on v."""
    acc = np.zeros(v.shape, dtype=complex)
    for c in reversed(p.coeffs):
        acc = m @ acc + complex(c) * v
    return acc


def check_structure(rep: OscillatorRep) -> CheckReport:
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
    entries.append(_matrix_defect(rep, "transform_eigenvalues", 0, rep.f, np.diag(_MINUS_I_POWERS[n_idx % 4])))
    entries.append(_matrix_defect(rep, "quarter_turn_position", 2, rep.f.conj().T @ rep.q @ rep.f, rep.p))

    e0 = rep.basis_vector(0)
    a_pow, adag_pow = _powers(rep.a, 5), _powers(rep.adag, 6)
    gam = gamma_table(value, 6).values
    chains = ((1, 3), (2, 5), (3, 3), (4, 6), (3, 2), (5, 4))  # A^m A*^n e_0, killed when m > n
    lhs = np.stack([a_pow[m] @ adag_pow[n] @ e0 for m, n in chains], axis=1)
    rhs = [gam[n] / gam[n - m] * (adag_pow[n - m] @ e0) if m <= n else np.zeros(size) for m, n in chains]
    tags = [f"ladder_chain_{'kill_' * (m > n)}{m}_{n}" for m, n in chains]
    entries += _matrix_defect(rep, tags, [m + n for m, n in chains], lhs, np.stack(rhs, axis=1))

    return CheckReport(name="structure", mu=value, size=size, tolerance=_TOLERANCE, entries=tuple(entries))


def check_equations_of_motion(rep: OscillatorRep) -> CheckReport:
    """Heisenberg equations and their ladder and squared-letter forms."""
    entries = [
        _matrix_defect(rep, "momentum_hamiltonian", 2, 1j * _commutator(rep.p, rep.h), rep.q),
        _matrix_defect(rep, "position_hamiltonian", 2, 1j * _commutator(rep.q, rep.h), -rep.p),
        _matrix_defect(rep, "lowering_hamiltonian", 2, _commutator(rep.a, rep.h), rep.a),
        _matrix_defect(rep, "raising_hamiltonian", 2, _commutator(rep.adag, rep.h), -rep.adag),
        _matrix_defect(rep, "momentum_position_squared", 3, 1j * _commutator(rep.p, rep.q @ rep.q), 2.0 * rep.q),
        _matrix_defect(rep, "momentum_squared_position", 3, 1j * _commutator(rep.p @ rep.p, rep.q), 2.0 * rep.p),
    ]
    return CheckReport(name="equations_of_motion", mu=rep.mu, size=rep.size, tolerance=_TOLERANCE, entries=tuple(entries))


def check_commutation(rep: OscillatorRep) -> CheckReport:
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
    return CheckReport(name="commutation", mu=rep.mu, size=rep.size, tolerance=_TOLERANCE, entries=tuple(entries))


def _brackets(rep: OscillatorRep) -> tuple:
    """One row per letter pair: its name, the letter X and the bracket.

    The brackets are [A, X], i[P, X] and i[X, Q] against the raising,
    position and momentum letters.  Each acts on a polynomial in its
    letter as the reflection-corrected derivative does.  Given a vector v,
    a bracket returns its action on v, by matrix-vector products only.
    """
    return (
        ("ladder", rep.adag, lambda m, v=None: _commutator(rep.a, m, v)),
        ("position", rep.q, lambda m, v=None: 1j * _commutator(rep.p, m, v)),
        ("momentum", rep.p, lambda m, v=None: 1j * _commutator(m, rep.q, v)),
    )


def check_ladder_powers(rep: OscillatorRep, n_max: int = 3) -> CheckReport:
    """Commutators with letter powers, and derivative action on e_0.

    Even powers commute down classically, [A, A*^(2n)] = 2n A*^(2n-1);
    odd powers pick up the deformed commutator as a right factor.  The
    same shapes hold for position powers against momentum and momentum
    powers against position.  On the ground vector every power identity
    collapses to a gamma-ratio, and more generally commutation with a
    polynomial in one letter applies the reflection-corrected derivative
    to that polynomial.
    """
    value, size = rep.mu, rep.size
    _check_limits(value, size, ["ladder_powers"], ladder_n_max=n_max)
    eye = rep.identity()
    ladder, position, momentum = rows = _brackets(rep)
    entries = []

    deformed = eye + 2.0 * value * rep.j
    top = 2 * n_max + 1
    powers = {name: _powers(letter, top) for name, letter, _ in rows}
    for n in range(1, n_max + 1):
        even, odd = 2 * n, 2 * n + 1
        for name, _, bracket in rows:
            x = powers[name]
            lhs, rhs = bracket(x[even]), even * x[even - 1]
            entries.append(_matrix_defect(rep, f"even_{name}_power_{n}", even + 1, lhs, rhs))
            lhs, rhs = bracket(x[odd]), x[even] @ (even * eye + deformed)
            entries.append(_matrix_defect(rep, f"odd_{name}_power_{n}", odd + 1, lhs, rhs))

    e0 = rep.basis_vector(0)
    entries.append(_matrix_defect(rep, "ground_raising_vs_position", 1, rep.adag @ e0 / math.sqrt(2.0), rep.q @ e0))
    entries.append(_matrix_defect(rep, "ground_position_vs_momentum", 1, rep.q @ e0, -1j * (rep.p @ e0)))
    gam, degrees = gamma_table(value, top).values, range(1, top + 1)
    ground = []
    for name, _, bracket in (position, momentum, ladder):
        x = powers[name]
        lhs = np.stack([bracket(x[n], e0) for n in degrees], axis=1)
        rhs = np.stack([gam[n] / gam[n - 1] * (x[n - 1] @ e0) for n in degrees], axis=1)
        tags = [f"ground_{name}_power_{n}" for n in degrees]
        ground.append(_matrix_defect(rep, tags, [n + 1 for n in degrees], lhs, rhs))
    entries += [entry for row in zip(*ground) for entry in row]

    # B(p(X) e_0) - p(X)(B e_0) = (D p)(X) e_0, and D H_3(lam x) = 6 lam H_2(lam x)
    generic = DensePoly((-1.0, 5.0, 2.0, -3.0, 1.0))
    derived = dunkl_apply(value, generic)
    tags, lhs, rhs = [], [], []
    for name, (_, letter, bracket) in (("position", position), ("raising", ladder), ("momentum", momentum)):
        tags.append(f"derivative_intertwine_{name}")
        lhs.append(bracket(partial(_poly_apply, generic, letter), e0))
        rhs.append(_poly_apply(derived, letter, e0))
    _, q, bracket = position
    for tag, lam in (("hermite", 1.0), ("hermite_scaled", 0.5)):
        tags.append(f"derivative_intertwine_{tag}")
        times_two_x = (2.0 * lam * q).__matmul__
        lhs.append(bracket(lambda v: list(_hermite_steps(value, 3, times_two_x, v))[3], e0))
        rhs.append((6.0 * lam) * list(_hermite_steps(value, 2, times_two_x, e0))[2])
    words = [generic.degree + 1] * 3 + [4, 4]
    entries += _matrix_defect(rep, tags, words, np.stack(lhs, axis=1), np.stack(rhs, axis=1))

    return CheckReport(name="ladder_powers", mu=value, size=size, tolerance=_TOLERANCE, entries=tuple(entries))


def check_rodrigues_operator(rep: OscillatorRep, n_max: int = 8) -> CheckReport:
    """Letter powers on e_0 against matrix polynomial closed forms.

    P^n e_0 is i^n gamma(n)/(2^(n/2) n!) times the degree-n polynomial
    evaluated at Q/sqrt(2) applied to e_0; the dual swaps Q and P with
    the conjugate phase; the raising form drops the argument scaling;
    and the normalized version reconstructs the basis vectors e_n.  Both
    sides are columns for every n at once, X^n e_0 and H_n(sX) e_0 from
    the recursion, so no monomial form cancels (see _check_limits).
    """
    value, size = rep.mu, rep.size
    _check_limits(value, size, ["rodrigues_operator"], rodrigues_n_max=n_max)
    e0 = rep.basis_vector(0)
    degrees = range(n_max + 1)
    gam, fact = gamma_table(value, n_max).values[: n_max + 1], np.array([float(math.factorial(n)) for n in degrees])
    half = 2.0 ** (-0.5 * np.arange(n_max + 1))
    pref, pref_ladder, norm = gam / fact * half, gam / fact * half**2, np.sqrt(gam) / fact * half
    phase = _MINUS_I_POWERS[-np.arange(n_max + 1) % 4]  # i^n = (-i)^(-n)

    def hermite(letter, s):  # column n is H_n(s X) e_0
        return np.stack(list(_hermite_steps(value, n_max, (2.0 * s * letter).__matmul__, e0)), axis=1)

    root_half = 1.0 / math.sqrt(2.0)
    p_n, q_n, basis = _krylov(rep.p, e0, n_max), _krylov(rep.q, e0, n_max), rep.identity()[:, : n_max + 1]
    poly_q = hermite(rep.q, 1.0)
    # (tag, lhs, coefficients, values): column n of lhs = coefficient n times column n of values
    rows = (
        ("momentum_power_formula", p_n, phase * pref, hermite(rep.q, root_half)),
        ("momentum_power_ladder", p_n, phase * pref_ladder, hermite(rep.adag, root_half)),
        ("position_power_formula", q_n, phase.conj() * pref, hermite(rep.p, root_half)),
        ("position_power_ladder", q_n, phase.conj() * pref_ladder, hermite(rep.adag, 1j * root_half)),
        ("raising_power_formula", _krylov(rep.adag, e0, n_max), pref, poly_q),
        ("basis_reconstruction", basis, norm, poly_q),
        ("basis_reconstruction_dual", basis, phase.conj() * norm, hermite(rep.p, 1.0)),
    )
    blocks = [
        _matrix_defect(rep, [f"{tag}_{n}" for n in degrees], list(degrees), lhs, coefficients * values)
        for tag, lhs, coefficients, values in rows
    ]
    entries = tuple(entry for row in zip(*blocks) for entry in row)
    return CheckReport(name="rodrigues_operator", mu=value, size=size, tolerance=_TOLERANCE, entries=entries)


def check_rotation(rep: OscillatorRep) -> CheckReport:
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
    for lam in (0.3, 1.1):
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
    return CheckReport(name="rotation", mu=value, size=size, tolerance=1e-12, entries=tuple(entries))


def _check_limits(mu, size: int, names, ladder_n_max: int = 1, rodrigues_n_max: int = 1) -> None:
    """Raise what the named families raise on their size and n_max; the CLI calls it before the build.

    The Rodrigues prefactors gamma_mu(n) / (2^(n/2) n!) leave the float range past n = 170, where
    171! overflows, or earlier where gamma_mu(n) does.
    """
    for name, n_max, word in (
        ("ladder_powers", ladder_n_max, 2 * ladder_n_max + 2),
        ("rodrigues_operator", rodrigues_n_max, rodrigues_n_max + 1),
    ):
        if name in names:
            _count(n_max, "n_max", 1)
            _require_word(size, word)
    if "rodrigues_operator" in names:
        value = _mu(mu)
        top = int(np.isfinite(gamma_table(value, 170).values[:171]).sum()) - 1
        if rodrigues_n_max > top:
            raise OverflowError(
                f"Rodrigues n_max {rodrigues_n_max} is past the float range of the prefactors "
                f"gamma_mu(n) / (2^(n/2) n!): n <= {top} at mu = {value:g}"
            )
    if "representation" in names and size > 257:
        raise ValueError(f"the representation bridge needs size <= 257 (a rule of at most 256 nodes), got {size}")


def check_representation(rep: OscillatorRep) -> CheckReport:
    """Matrix entries against weighted-measure inner products.

    The concrete model realizes position as multiplication by x, momentum
    as -i D and the energy as (x^2 - D^2) / 2 on the eigenfunctions.  With
    phi_n = e^(-x^2/2) p and theta = theta(n), D from its definition gives
    D phi_n = e^(-x^2/2) q, q = p' + 2 mu theta p / x - x p, and D^2 phi_n =
    e^(-x^2/2) (Dq - x q), Dq = q' + 2 mu (1 - theta) q / x.  p, p' and p'' are
    the recurrence's rows at the nodes of the min(256, size + 8)-node rule; its
    products have degree 2 (size - 2), so it is exact up to size 257 and a larger
    size raises ValueError.  At its node x = 0 (odd size) p / x -> p'(0)
    and p'/x - p/x^2 -> 0 for odd p, q / x -> q'(0) for odd q.  No ladder
    matrix enters.  The transform column is bridged through the spectral route.
    """
    value, size = rep.mu, rep.size
    _check_limits(value, size, ["representation"])
    inner = size - 1
    rule = gauss_hermite_mu(value, min(256, size + 8))
    x, w = rule.nodes, rule.weights
    p, dp, d2p = _phi_rows(value, inner - 1, x, order=2)
    odd = (np.arange(inner) % 2)[:, None]
    reflect_p, reflect_q = 2.0 * value * odd, 2.0 * value * (1 - odd)
    zero = x == 0.0
    inv_x = np.divide(1.0, x, out=np.zeros_like(x), where=~zero)
    p_x = np.where(zero, dp, p * inv_x)
    q = dp + reflect_p * p_x - x * p
    dq = d2p + reflect_p * (dp - p_x) * inv_x - p - x * dp
    d2 = dq + reflect_q * np.where(zero, dq, q * inv_x) - x * q
    energy = 0.5 * (x * x * p - d2)

    q_bridge = (p * (w * x)) @ p.T
    p_bridge = -1j * ((q * w) @ p.T).T
    h_bridge = ((energy * w) @ p.T).T

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
    return CheckReport(name="representation", mu=value, size=size, tolerance=1e-8, entries=tuple(entries))


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
