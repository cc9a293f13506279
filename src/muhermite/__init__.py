"""Deformed Hermite calculus.

Orthogonal polynomials for the weight |x|^(2 mu) exp(-x^2), the
reflection-aware derivative that lowers them, the unitary transform
they diagonalize, the associated heat flow and generalized translation,
and the ladder-operator algebra acting on the eigenfunction basis.
Everything numbered in the docs is machine-checked: exact rational
kernels where the statement is algebraic, Gaussian quadrature where it
is analytic.
"""

from types import ModuleType as _ModuleType

from .core import (
    MuParam,
    alpha_mu_moment,
    as_mu,
    gamma_half,
    gamma_mu,
    gamma_mu_exact,
    log_gamma_mu,
    mu_binomial,
    mu_binomial_exact,
    theta,
)
from .efun import c_s_mu, e_mu, heat_kernel, mehler_rhs
from .exact import IDENTITY_TAGS, IdentityReport, identity_sides, verify_identity
from .heat import (
    heat_apply_kernel,
    heat_gaussian,
    heat_gaussian_params,
    heat_odd_gaussian,
    heat_pde_residual,
    heat_spectral_matrix,
)
from .hermite import (
    dunkl_apply,
    dunkl_definition,
    heat_poly,
    hermite_coeffs,
    hermite_eval,
    inversion_expand,
    raise_apply,
)
from .oscillator import (
    CheckReport,
    IdentityDefect,
    OscillatorRep,
    build,
    check_commutation,
    check_equations_of_motion,
    check_ladder_powers,
    check_representation,
    check_rodrigues_operator,
    check_rotation,
    check_structure,
    run_all,
)
from .poly import BivariatePoly, DensePoly
from .quadrature import QuadratureRule, gauss_alpha_mu, gauss_hermite_mu, jacobi_rule
from .transform import (
    OperatorMatrix,
    SpectralVector,
    expand,
    fourier_quadrature,
    fourier_spectral,
    l2mu_norm,
    operator_matrix,
    phi_eval,
    phi_poly_coeffs,
    phi_poly_table,
    synthesize,
    transform_of_efun_gaussian,
    transform_of_gaussian,
    transform_of_hermite_gaussian,
    transform_of_monomial_gaussian,
)
from .translate import (
    translate_alpha,
    translate_gaussian_closed,
    translate_odd_gaussian_closed,
    translate_poly,
    translate_spectral_matrix,
    translate_xi,
)
from .verify import CriterionResult, run_acceptance, run_criterion

__version__ = "0.1.0"

# The public names are exactly the ones imported above.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
