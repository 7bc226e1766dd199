"""Generalized entropy families, their composition laws, and the power-bracket
kernel family that maximum-entropy arguments produce from them.

The package is organized as one module per concern.  Each module declares
its public names in its own `__all__`, and the package re-exports exactly
those lists, in the order below, for flat imports (`cli` stays a module).

    errors              shared exception tree
    quadrature          adaptive Gauss-Kronrod integration and root bracketing
    entropy_discrete    the entropy families on probability vectors
    entropy_continuous  the same measures over densities on an interval
    pathway             kernel/density/cdf/sampling for the power-bracket family
    maxent              constrained maximum-entropy solvers on a grid
    ode_check           derivative identities the kernel satisfies
    divergence          expectation-form identity and inaccuracy measure
    ppp                 product-probability triples over uniform partitions
    cli                 command-line front end (`pathway-entropy`)
"""
from .errors import *
from .quadrature import *
from .entropy_discrete import *
from .entropy_continuous import *
from .pathway import *
from .maxent import *
from .ode_check import *
from .divergence import *
from .ppp import *

__version__ = "0.1.0"

# Each star import above also binds its submodule on the package.
__all__ = [
    "__version__",
    *errors.__all__,
    *quadrature.__all__,
    *entropy_discrete.__all__,
    *entropy_continuous.__all__,
    *pathway.__all__,
    *maxent.__all__,
    *ode_check.__all__,
    *divergence.__all__,
    *ppp.__all__,
]
