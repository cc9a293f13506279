"""What each op's outputs should be, from the oracle, and how far they are off.

Each function returns {output name: sup-norm relative error}.  An op's
outputs are correct when every error is within TOLERANCE; the
workload's accuracy_digits is -log10 of the worst error over its fixed
check set.
"""

from __future__ import annotations

import numpy as np

import oracle
import spec

# Far above the errors seen at the seed (1e-16 .. 1e-10), far below a wrong answer.
TOLERANCE = 1e-7


class ApplyExpect:
    """Oracle values for one apply_warm input set, computed once per run."""

    def __init__(self, inputs: dict):
        want = {}
        for mu in spec.MU_SET:
            coeffs = [oracle.coefficients(mu, spec.poly_gauss(p), spec.POLY_DEGREE) for p in inputs["polys"]]
            for route, grid, j, _, _ in spec.transform_calls(mu, inputs):
                if j < len(coeffs):
                    want[("fourier", mu, route, j)] = oracle.transform_by_eigen(mu, coeffs[j], grid)
                else:
                    want[("fourier", mu, route, j)] = oracle.gaussian_transform(mu, inputs["lam"], grid)
            want[("heat", mu)] = oracle.heat_gaussian(mu, inputs["alpha"], spec.HEAT_T, spec.X_LINE)
            want[("expand", mu)] = np.concatenate([coeffs[0], np.zeros(spec.EXPAND_N - spec.POLY_DEGREE)])
            want[("synthesize", mu)] = spec.poly_gauss(inputs["polys"][0])(spec.X_LINE)
            if mu > 0.0:
                closed = np.array([oracle.translate_gaussian(mu, inputs["tlam"], x, y) for x, y in spec.PAIRS])
                want[("translate_alpha", mu)] = closed
                want[("translate_xi", mu)] = closed
            want[("e_mu", mu)] = oracle.e_real(mu, spec.Z_EFUN)
        self.want = want

    def errors(self, out: dict) -> dict:
        if set(out) != set(self.want):
            raise ValueError("apply_warm outputs do not match the expected set")
        return {_name(key): oracle.rel_sup(out[key], want) for key, want in self.want.items()}


def _name(key) -> str:
    return "/".join(str(k) for k in key) if isinstance(key, tuple) else key


def _rule_errors(name: str, got, want) -> dict:
    return {f"{name}/nodes": oracle.rel_sup(got[0], want[0]), f"{name}/weights": oracle.rel_sup(got[1], want[1])}


def sweep_errors(mu: float, out: dict) -> dict:
    """Errors of one mu_sweep op's outputs at mu."""
    err = {}
    err.update(_rule_errors("hermite", out["hermite"], oracle.hermite_rule(mu, spec.SWEEP_HERMITE_SIZE)))
    nodes, weights = out["hermite"]
    err["hermite/moments"] = max(
        abs(float(np.dot(weights, nodes ** (2 * r))) / oracle.moment(mu, r) - 1.0) for r in range(21)
    )
    err.update(_rule_errors("alpha", out["alpha"], oracle.alpha_rule(mu, spec.SWEEP_ALPHA_SIZE)))
    err.update(_rule_errors("jacobi", out["jacobi"], oracle.jacobi_rule(mu - 1.0, mu, spec.SWEEP_JACOBI_SIZE)))
    # A difference of logarithms is the relative error of the values.
    want_log = oracle.log_gamma_mu(mu, np.arange(spec.SWEEP_GAMMA_SIZE + 1))
    err["log_gamma"] = float(np.max(np.abs(out["log_gamma"] - want_log)))
    x = spec.X_LINE
    err["phi_table"] = oracle.rel_sup(out["phi_table"], oracle.eigenfunctions(mu, spec.SWEEP_TABLE_N, x))
    err["synthesize"] = oracle.rel_sup(out["synthesize"], spec.gauss(spec.SWEEP_ALPHA)(x))
    err["fourier"] = oracle.rel_sup(out["fourier"], oracle.gaussian_transform(mu, spec.SWEEP_LAM, spec.X_SWEEP))
    err["heat"] = oracle.rel_sup(out["heat"], oracle.heat_gaussian(mu, spec.SWEEP_ALPHA, spec.SWEEP_T, x))
    err["position"] = oracle.rel_sup(out["position"], oracle.position_matrix(mu, spec.SWEEP_OSC_SIZE))
    # The oscillator checks report their own pass/fail; a failed one is an error of 1.
    err["oscillator_checks"] = 1.0 if out["checks_failed"] else 0.0
    return err
