"""Inputs of the workloads, shared by the worker and the checks.

Only numpy is imported here.  The worker builds the program's inputs
from these values and the checks build the oracle's expectations from
the same values, so both sides see the same numbers.
"""

from __future__ import annotations

import numpy as np

QUAD_N = 96  # rule size of fourier_quadrature and heat_apply_kernel (the program's default)
ROUTE_LIMIT = 30.0  # max |x t| up to which the transform kernel uses its power series
AVERAGING_INNER_NODES = 192  # inner rule of the transform kernel's averaging route

# apply_warm: a fixed set of mu, with 0, one negative and two positive values.
MU_SET = (-0.25, 0.0, 0.5, 1.5)
X_NARROW = np.linspace(-1.25, 1.25, 20)  # max |x t| < 30: series route for mu != 0
X_WIDE = np.linspace(-3.0, 3.0, 20)  # max |x t| > 30: averaging route for mu > 0
X_LINE = np.linspace(-2.5, 2.5, 41)  # heat, synthesis and table grid
Z_EFUN = np.linspace(-8.0, 8.0, 201)  # real arguments of the array e_mu
PAIRS = ((0.4, 1.1), (1.3, -0.6), (-0.9, -1.7), (2.0, 0.5), (-1.5, 0.8), (0.7, 0.7))
HEAT_T = 0.4
EXPAND_N = 40
POLY_DEGREE = 5

# mu_sweep: fresh positive mu per op, fixed shapes.
SWEEP_MU_RANGE = (0.1, 2.5)
SWEEP_HERMITE_SIZE = 256  # also the rule of the sweep's expand and transform
X_SWEEP = np.linspace(-1.0, 1.0, 20)  # max |x t| < 30 with the 256-node rule: series route
SWEEP_ALPHA_SIZE = 192
SWEEP_JACOBI_SIZE = 80  # the rule translate_xi builds (its default quad_n)
SWEEP_GAMMA_SIZE = 256
SWEEP_TABLE_N = 40
SWEEP_EXPAND_N = 63
SWEEP_OSC_SIZE = 24
SWEEP_ALPHA, SWEEP_LAM, SWEEP_T = 0.7, 0.9, 0.3
# Accuracy is taken over these mu, apart from the seeded stream, so it does
# not depend on the seed or on how many ops fit into a run.
SWEEP_CHECK_MUS = (0.15, 1.05, 2.35)
SWEEP_WARMUP_MU = 0.4142

CHECK_SEED = 0  # apply_warm accuracy and warm-up use the inputs of this seed


def apply_inputs(seed: int) -> dict:
    """Seeded apply_warm inputs.  Rates stay in ranges that keep every route fixed."""
    rng = np.random.default_rng(seed)
    polys = [rng.standard_normal(POLY_DEGREE + 1) for _ in range(2)]
    polys = [p / np.max(np.abs(p)) for p in polys]
    return {
        "polys": polys,
        "lam": float(rng.uniform(0.6, 1.2)),
        "alpha": float(rng.uniform(0.6, 1.2)),
        "tlam": float(rng.uniform(0.4, 1.2)),
    }


def poly_gauss(coeffs):
    """t -> p(t) e^(-t^2/2), p given by ascending coefficients."""
    return lambda t: np.polynomial.polynomial.polyval(t, coeffs) * np.exp(-0.5 * t * t)


def gauss(rate: float):
    """t -> e^(-rate t^2)."""
    return lambda t: np.exp(-rate * t * t)


def transform_calls(mu: float, inputs: dict):
    """(route, grid, input index, function, sigma) for every fourier_quadrature call at mu."""
    funcs = [(poly_gauss(p), 0.5) for p in inputs["polys"]] + [(gauss(inputs["lam"]), inputs["lam"])]
    if mu == 0.0:
        routes = (("exp", X_WIDE),)
    elif mu > 0.0:
        routes = (("series", X_NARROW), ("averaging", X_WIDE))
    else:
        routes = (("series", X_NARROW),)
    return [(route, grid, j, f, sigma) for route, grid in routes for j, (f, sigma) in enumerate(funcs)]


def sweep_mus(seed: int):
    """Endless stream of distinct mu, none equal to a check or warm-up value."""
    rng = np.random.default_rng(seed)
    seen = set(SWEEP_CHECK_MUS) | {SWEEP_WARMUP_MU}
    while True:
        mu = float(rng.uniform(*SWEEP_MU_RANGE))
        if mu not in seen:
            seen.add(mu)
            yield mu
