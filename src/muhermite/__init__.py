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

from .core import *
from .efun import *
from .exact import *
from .heat import *
from .hermite import *
from .oscillator import *
from .poly import *
from .quadrature import *
from .transform import *
from .translate import *
from .verify import *

__version__ = "0.1.0"

# The public names are exactly the ones each library module exports.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
