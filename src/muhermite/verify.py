"""The acceptance suite: ten numbered, self-contained criteria.

Each criterion function rebuilds whatever oracles it needs (closed
forms, independent recursions, quadrature rules) and returns its verdict
and a one-line summary; run_criterion(k) numbers, names and times entry
k - 1 of CRITERIA, the one place that orders them.  The CLI `verify` subcommand and
the acceptance tests print exactly one line per criterion, so a failure
names the criterion and its worst measured defect rather than a bare
assert.  Everything runs at desk scale, well under a minute total.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import oscillator as osc
from .core import gamma_half, gamma_mu, gamma_mu_exact
from .efun import _series, e_mu, mehler_rhs
from .exact import IDENTITY_TAGS, _verify
from .heat import (
    heat_apply_kernel,
    heat_gaussian,
    heat_gaussian_params,
    heat_odd_gaussian,
    heat_pde_residual,
    heat_spectral_matrix,
)
from .hermite import heat_poly, hermite_coeffs, hermite_eval
from .poly import DensePoly
from .quadrature import gauss_alpha_mu, gauss_hermite_mu
from .translate import (
    translate_alpha,
    translate_gaussian_closed,
    translate_odd_gaussian_closed,
    translate_xi,
)
from .transform import (
    SpectralVector,
    expand,
    fourier_quadrature,
    l2mu_norm,
    operator_matrix,
    phi_poly_table,
    synthesize,
    transform_of_efun_gaussian,
    transform_of_gaussian,
    transform_of_hermite_gaussian,
    transform_of_monomial_gaussian,
)

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_acceptance"]

EXACT_MUS = (
    Fraction(0),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(5, 2),
    Fraction(-1, 4),
    Fraction(7, 2),
)
SERIES_TAGS = ("generating_function",)

# np.random.default_rng(42)'s draws, frozen so that verify never imports numpy.random:
# uniform(-2, 2, 25) twice (criterion 6's x, then y), and from a fresh generator
# uniform(0.3, 2.2, (20, 2)) by rows (criterion 8's |x|, |y|); tests/test_acceptance.py checks them.
_KERNEL_POINTS = (
    1.0958241942238534, -0.24448624099179073, 1.4343916796455298, 0.7894721162374556, -1.6232906084494019,
    1.9024894065470237, 1.0445588079614119, 1.1442572211078152, -1.4875454692978165, -0.19845624841773146,
    -0.5168079030696751, 1.7070599553944072, 0.5754604803226582, 1.29104645308332, -0.22634320469067548,
    -1.0910451128608925, 0.2183391480633392, -1.7447309755832987, 1.3105246879703283, 0.5266575964882594,
    1.0323509603414953, -0.5818961274805265, 1.882792097579613, 1.5724844852887907, 1.1135339882950475,
    -1.2214451685921297, -0.1331159850918633, -1.824784936851085, -1.3828420317298087, 0.7321958129698185,
    0.9790486236312685, 1.87003892973684, -0.6966985674473922, -0.5181611758605245, -0.12177675489676831,
    -1.2421145636628572, -1.4803139786581134, -0.09718029509626502, -1.0923626037964635, 0.6792559787300414,
    -0.25139232451067706, 1.3307127842313498, 0.8010604080089965, -0.7505334344718357, 1.3290392055808042,
    1.2190574299872075, -0.45008648387930217, -0.8466875842790236, 0.729982015899902, -1.4409900655627608,
)
_TRANSLATION_MAGS = (
    1.7705164922563306, 1.1338690355288994, 1.9313360478316268, 1.6249992552127916, 0.4789369609865341,
    2.153682468109836, 1.7461654337816708, 1.7935221800262124, 0.5434159020835372, 1.1557332820015775,
    1.0045162460419044, 2.0608534788123434, 1.5233437281532627, 1.8632470652145772, 1.142486977771929,
    0.7317535713910761, 1.3537110953300862, 0.4212527865979331, 1.8724992267859062, 1.5001623583319232,
    1.7403667061622103, 0.9735993394467499, 2.144326246350316, 1.9969301305121758, 1.7789286444401478,
    0.6698135449187383, 1.186769907081365, 0.3832271549957347, 0.593150034928341, 1.597793011160664,
    1.7150480962248527, 2.138268491624999, 0.9190681804624887, 1.003873441466251, 1.192156041424035,
    0.6599955822601429, 0.5468508601373961, 1.2038393598292743, 0.7311277631966798, 1.5726465898967699,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def label(self) -> str:
        return f"criterion_{self.number:02d}"

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.label} {self.name}: {self.detail} [{self.seconds:.2f}s]"

    def to_json(self) -> dict:
        return {
            "criterion": self.number,
            "name": self.name,
            "pass": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 3),
        }


def _rel_sup(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / max(scale, 1e-300)


def _exact_reports(mu, n_max: int) -> list:
    """verify_identity for every tag at mu through n_max, the series tags capped at degree 12, in one walk."""
    table = {}  # what the tags share at mu, dropped when the walk ends
    return [_verify(tag, mu, min(n_max, 12) if tag in SERIES_TAGS else n_max, table) for tag in IDENTITY_TAGS]


def criterion_exact_identities() -> tuple[bool, str]:
    checks = 0
    failures = []
    for mu in EXACT_MUS:
        for report in _exact_reports(mu, 20):
            checks += report.checks
            if not report.passed:
                failures.append(f"{report.tag}@mu={mu}")
    detail = f"{len(IDENTITY_TAGS)} tags x {len(EXACT_MUS)} mu, {checks} degree checks, exact rational equality"
    if failures:
        detail += "; FAILED " + ", ".join(failures)
    return not failures, detail


def criterion_quadrature_exactness() -> tuple[bool, str]:
    worst_h = 0.0
    for mu in (0.0, 0.5, 1.5, -0.25):
        rule = gauss_hermite_mu(mu, 32)
        mass = gamma_half(mu)
        for d in range(64):
            got = float(np.dot(rule.weights, rule.nodes**d))
            if d % 2:
                # Closed value is zero by symmetry; measure the roundoff
                # cancellation against the absolute-moment scale.
                worst_h = max(worst_h, abs(got) / math.gamma(mu + 0.5 * (d + 1)))
            else:
                r = d // 2
                want = mass * gamma_mu(mu, d) / (4.0**r * math.factorial(r))
                worst_h = max(worst_h, abs(got - want) / want)
    worst_a = 0.0
    for mu in (0.3, 0.75, 2.0):
        rule = gauss_alpha_mu(mu, 48)
        for n in range(26):
            got = float(np.dot(rule.weights, rule.nodes**n))
            want = math.factorial(n) / gamma_mu(mu, n)
            worst_a = max(worst_a, abs(got - want) / abs(want))
    passed = worst_h <= 1e-12 and worst_a <= 1e-11
    detail = f"monomials d<=63 rel defect {worst_h:.2e} (tol 1e-12); moment rel defect {worst_a:.2e} (tol 1e-11)"
    return passed, detail


def criterion_orthonormality() -> tuple[bool, str]:
    worst = 0.0
    for mu in (0.0, 0.5, 1.5, -0.25):
        rule = gauss_hermite_mu(mu, 32)
        table = phi_poly_table(mu, 20, rule.nodes)
        gram = (table * rule.weights) @ table.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(21)))))
    detail = f"Gram defect {worst:.2e} for n<=20, four mu values (tol 1e-10)"
    return worst < 1e-10, detail


def criterion_fourier_eigenfunctions() -> tuple[bool, str]:
    x = np.linspace(-3.0, 3.0, 20)
    worst = 0.0
    for mu in (0.0, 0.5, 1.5):
        for n in range(11):
            f = lambda t, mu=mu, n=n: np.exp(-0.5 * t * t) * hermite_eval(mu, n, t)
            got = fourier_quadrature(mu, f, x, sigma=0.5)
            want = (-1j) ** n * f(x)
            worst = max(worst, _rel_sup(got, want))
    detail = f"eigenfunction defect {worst:.2e} for n<=10 at 20 points (tol 1e-8)"
    return worst < 1e-8, detail


def criterion_transform_closed_forms() -> tuple[bool, str]:
    x = np.linspace(-2.5, 2.5, 15)
    worst = 0.0
    for mu in (0.0, 0.5, 1.5):
        for lam in (0.4, 1.0, 1.7):
            f = lambda t, lam=lam: np.exp(-lam * t * t)
            got = fourier_quadrature(mu, f, x, sigma=lam)
            worst = max(worst, _rel_sup(got, transform_of_gaussian(mu, lam, x)))
        for n in (1, 2, 3, 4):
            for lam in (0.6, 1.2):
                f = lambda t, n=n, lam=lam: t**n * np.exp(-lam * t * t)
                got = fourier_quadrature(mu, f, x, sigma=lam)
                worst = max(worst, _rel_sup(got, transform_of_monomial_gaussian(mu, n, lam, x)))
        for y in (0.7, 1.3):
            for lam in (0.5, 1.0):
                f = lambda t, y=y, lam=lam: e_mu(mu, 1j * y * t) * np.exp(-lam * t * t)
                got = fourier_quadrature(mu, f, x, sigma=lam)
                worst = max(worst, _rel_sup(got, transform_of_efun_gaussian(mu, lam, y, x)))
        for n in (0, 1, 2, 3):
            beta, lam = 1.3, 0.8
            f = lambda t, n=n: hermite_eval(mu, n, beta * t) * np.exp(-lam * lam * t * t)
            got = fourier_quadrature(mu, f, x, sigma=lam * lam)
            worst = max(worst, _rel_sup(got, transform_of_hermite_gaussian(mu, n, beta, lam, x)))
    worst_eig = 0.0
    for mu in (0.0, 0.5, 1.5):
        for n in range(6):
            reduced = transform_of_hermite_gaussian(mu, n, 1.0, math.sqrt(0.5), x)
            eig = (-1j) ** n * np.exp(-0.5 * x * x) * hermite_eval(mu, n, x)
            worst_eig = max(worst_eig, _rel_sup(reduced, eig))
    passed = worst < 1e-9 and worst_eig < 1e-9
    detail = f"closed-form defect {worst:.2e} (tol 1e-9); unit-rate reduction defect {worst_eig:.2e} (tol 1e-9)"
    return passed, detail


def criterion_bilinear_kernel() -> tuple[bool, str]:
    """Bilinear eigenfunction sum against its closed form, 40 terms.

    The 40-term budget and the 1e-9 tolerance are both part of the
    stated criterion.  At z = 0.6 the truncation tail of the series is
    itself above 1e-9 for the positive deformation values (near the
    origin the eigenfunctions grow like n^(mu/2 - 1/4), so the tail is
    ~ z^40 n^mu); the criterion is then not attainable by any correct
    implementation.  The converged comparison (80 terms) is reported
    alongside so the identity itself is still machine-checked.
    """
    xs, ys = np.array(_KERNEL_POINTS).reshape(2, 25)
    worst = 0.0
    worst_converged = 0.0
    for mu in (0.0, 0.6, 1.5):
        tx = phi_poly_table(mu, 79, xs)
        ty = phi_poly_table(mu, 79, ys)
        envelope = np.exp(-0.5 * (xs * xs + ys * ys))
        for z in (0.2, 0.4, 0.6):
            powers = z ** np.arange(80)
            series = envelope * ((powers[:40, None] * tx[:40] * ty[:40])).sum(axis=0)
            full = envelope * (powers[:, None] * tx * ty).sum(axis=0)
            closed = np.array([mehler_rhs(mu, float(a), float(b), z) for a, b in zip(xs, ys)])
            worst = max(worst, float(np.max(np.abs(series - closed))))
            worst_converged = max(worst_converged, float(np.max(np.abs(full - closed))))
    detail = (
        f"40-term defect {worst:.2e} (tol 1e-9, truncation tail dominates at z=0.6); "
        f"80-term defect {worst_converged:.2e}"
    )
    return worst < 1e-9, detail


def criterion_heat_consistency() -> tuple[bool, str]:
    grid = np.linspace(-2.5, 2.5, 41)
    size = 96
    worst_routes = 0.0
    for mu in (0.0, 0.5, 1.5):
        flows = {t: heat_spectral_matrix(mu, t, size) for t in (0.1, 0.5, 2.0)}
        for alpha in (0.6, 1.0):
            even = lambda u, alpha=alpha: np.exp(-alpha * u * u)
            odd = lambda u, alpha=alpha: u * np.exp(-alpha * u * u)
            even_c = expand(mu, even, size - 1, sigma=alpha)
            odd_c = expand(mu, odd, size - 1, sigma=alpha)
            for t, flow in flows.items():
                closed = heat_gaussian(mu, alpha, 0.0, t, grid).real
                kernel = heat_apply_kernel(mu, even, t, grid, sigma=alpha)
                spectral = synthesize(SpectralVector(mu, flow @ np.asarray(even_c.coeffs)), grid).real
                worst_routes = max(worst_routes, float(np.max(np.abs(closed - kernel))))
                worst_routes = max(worst_routes, float(np.max(np.abs(closed - spectral))))
                closed_o = heat_odd_gaussian(mu, alpha, t, grid)
                kernel_o = heat_apply_kernel(mu, odd, t, grid, sigma=alpha)
                spectral_o = synthesize(SpectralVector(mu, flow @ np.asarray(odd_c.coeffs)), grid).real
                worst_routes = max(worst_routes, float(np.max(np.abs(closed_o - kernel_o))))
                worst_routes = max(worst_routes, float(np.max(np.abs(closed_o - spectral_o))))
    worst_comp = 0.0
    for mu in (0.0, 0.5, 1.5):
        for t1, t2 in ((0.1, 0.4), (0.5, 1.5)):
            p1, a1, z1 = heat_gaussian_params(mu, 0.7, 0.3, t1)
            p2, a2, z2 = heat_gaussian_params(mu, a1, z1, t2)
            pd, ad, zd = heat_gaussian_params(mu, 0.7, 0.3, t1 + t2)
            worst_comp = max(
                worst_comp,
                abs(p1 * p2 - pd) / abs(pd),
                abs(a2 - ad),
                abs(z2 - zd),
            )
    worst_pde = 0.0
    for mu in (0.0, 0.5, 1.5):
        for family in ("even", "odd"):
            for t in (0.1, 0.5, 2.0):
                for xv in (-2.5, -1.5, -0.7, 0.3, 0.7, 1.5, 2.5):
                    worst_pde = max(worst_pde, heat_pde_residual(mu, family, t, xv))
    passed = worst_routes < 1e-6 and worst_comp < 1e-10 and worst_pde < 1e-6
    detail = (
        f"route spread {worst_routes:.2e} (tol 1e-6); composition {worst_comp:.2e} (tol 1e-10); "
        f"pde residual {worst_pde:.2e} (tol 1e-6)"
    )
    return passed, detail


def _translation_pairs() -> list:
    mags = zip(_TRANSLATION_MAGS[::2], _TRANSLATION_MAGS[1::2])
    return [(a, -b) if i % 2 else (a, b) for i, (a, b) in enumerate(mags)]


def criterion_translation() -> tuple[bool, str]:
    pairs = _translation_pairs()
    worst_routes = 0.0
    worst_closed = 0.0
    worst_sym = 0.0
    for mu in (0.3, 0.75, 2.0):
        for lam in (0.5, 1.1):
            phi = lambda u, lam=lam: np.exp(-lam * u * u)
            phi_odd = lambda u, lam=lam: u * np.exp(-lam * u * u)
            for x, y in pairs:
                via_alpha = translate_alpha(mu, phi, x, y)
                via_xi = translate_xi(mu, phi, x, y)
                worst_routes = max(worst_routes, abs(via_alpha - via_xi))
                closed = translate_gaussian_closed(mu, lam, x, y)
                worst_closed = max(worst_closed, abs(via_alpha - closed))
                odd_alpha = translate_alpha(mu, phi_odd, x, y)
                odd_closed = translate_odd_gaussian_closed(mu, lam, x, y)
                worst_closed = max(worst_closed, abs(odd_alpha - odd_closed))
                swapped = translate_alpha(mu, phi, y, x)
                worst_sym = max(worst_sym, abs(via_alpha - swapped))
    contraction_ok = True
    worst_ratio = 0.0
    for mu in (0.3, 0.75, 2.0):
        for lam in (0.5, 1.1):
            base = l2mu_norm(lambda u: np.exp(-lam * u * u), sigma=lam, mu=mu)
            for y in (0.1, 1.0, 3.0):
                moved = l2mu_norm(
                    lambda u: translate_gaussian_closed(mu, lam, u, y), sigma=lam, mu=mu
                )
                worst_ratio = max(worst_ratio, moved / base)
                if moved > base * (1.0 + 1e-12):
                    contraction_ok = False
    witness_phi = lambda u: (u - 1.0) ** 2 * np.exp(-u * u / 8.0)
    witness = float(translate_alpha(2.0, witness_phi, 1.0, 1.0))
    witness_ok = witness < -1e-3
    passed = worst_routes < 1e-9 and worst_closed < 1e-9 and worst_sym < 1e-9 and contraction_ok and witness_ok
    detail = (
        f"route agreement {worst_routes:.2e}, closed forms {worst_closed:.2e}, symmetry {worst_sym:.2e} "
        f"(tol 1e-9); contraction ratio <= {worst_ratio:.6f} (needs <= 1 + 1e-12); "
        f"negativity witness {witness:.4f} (needs < -1e-3)"
    )
    return passed, detail


def criterion_oscillator() -> tuple[bool, str]:
    worst = {}  # (family, its report's tolerance) -> worst interior defect
    passed = True
    for mu in (0.0, 0.5, 1.5):
        for report in osc.run_all(osc.build(mu, 32)):
            family = report.name if report.name in ("rotation", "representation") else "word identities"
            key = (family, report.tolerance)
            worst[key] = max(worst.get(key, 0.0), report.max_defect)
            passed = passed and report.passed
    parts = (
        f"{family} {defect:.2e} (tol {np.format_float_scientific(tol, trim='-', exp_digits=1)})"
        for (family, tol), defect in worst.items()
    )
    return passed, "interior defects at N=32 of " + ", ".join(parts)


def _classical_hermite(n: int) -> DensePoly:
    prev = DensePoly((Fraction(1),))
    if n == 0:
        return prev
    cur = DensePoly((Fraction(0), Fraction(2)))
    for k in range(1, n):
        nxt = cur.shift_up(1).scale(Fraction(2)) - prev.scale(Fraction(2 * k))
        prev, cur = cur, nxt
    return cur


def criterion_classical_reduction() -> tuple[bool, str]:
    notes = []
    coeff_ok = all(
        hermite_coeffs(Fraction(0), n) == _classical_hermite(n) for n in range(21)
    )
    notes.append("coefficients exact" if coeff_ok else "COEFFICIENT MISMATCH")
    gamma_ok = all(gamma_mu_exact(Fraction(0), n) == math.factorial(n) for n in range(21))
    notes.append("factorials exact" if gamma_ok else "GAMMA MISMATCH")
    diag = np.diag(operator_matrix(0.0, "H", 16)).real
    eig_ok = bool(np.all(diag == np.arange(16) + 0.5))
    notes.append("eigenvalues n+1/2" if eig_ok else "EIGENVALUE MISMATCH")
    report = osc.check_commutation(osc.build(0.0, 16))
    canonical = [e for e in report.entries if e.tag == "canonical_commutator"]
    comm_defect = canonical[0].interior if canonical else math.inf
    comm_ok = comm_defect < 1e-12
    notes.append(f"canonical commutator defect {comm_defect:.1e} (tol 1e-12)")
    zs = (0.3, -1.7, 2.0 + 1.5j, -0.4j)
    # the series itself: e_mu at mu = 0 returns np.exp, which would compare exp with exp
    efun_defect = max(abs(_series(0.0, z) - np.exp(z)) / abs(np.exp(z)) for z in zs)
    efun_ok = efun_defect < 1e-13
    notes.append(f"exponential defect {efun_defect:.1e} (tol 1e-13)")
    t = Fraction(1, 3)
    flowed = heat_poly(Fraction(0), 4, t)
    classic = DensePoly((12 * t * t, Fraction(0), 12 * t, Fraction(0), Fraction(1)))
    heat_ok = flowed == classic
    notes.append("heat flow classical" if heat_ok else "HEAT MISMATCH")
    xs = np.linspace(-2.0, 2.0, 9)
    ft = transform_of_gaussian(0.0, 0.5, xs)
    ft_defect = _rel_sup(ft, np.exp(-0.5 * xs * xs))
    ft_ok = ft_defect < 1e-14
    notes.append("unit Gaussian fixed (tol 1e-14)" if ft_ok else f"GAUSSIAN FIXED POINT MISMATCH {ft_defect:.1e} (tol 1e-14)")
    passed = coeff_ok and gamma_ok and eig_ok and comm_ok and efun_ok and heat_ok and ft_ok
    return passed, "; ".join(notes)


CRITERIA = (
    criterion_exact_identities,
    criterion_quadrature_exactness,
    criterion_orthonormality,
    criterion_fourier_eigenfunctions,
    criterion_transform_closed_forms,
    criterion_bilinear_kernel,
    criterion_heat_consistency,
    criterion_translation,
    criterion_oscillator,
    criterion_classical_reduction,
)


def run_criterion(number: int) -> CriterionResult:
    if not 1 <= number <= len(CRITERIA):
        raise ValueError(f"criterion number must be 1..{len(CRITERIA)}")
    check = CRITERIA[number - 1]
    started = time.perf_counter()
    passed, detail = check()
    name = check.__name__.removeprefix("criterion_")
    return CriterionResult(number, name, bool(passed), detail, time.perf_counter() - started)


def run_acceptance(numbers=None) -> list:
    """Run the numbered criteria (all by default), in order."""
    if numbers is None:
        numbers = range(1, len(CRITERIA) + 1)
    return [run_criterion(n) for n in numbers]
