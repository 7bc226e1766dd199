"""Generalized entropy families, their composition laws, and the power-bracket
kernel family that maximum-entropy arguments produce from them.

The package is organized as one module per concern; everything below is
re-exported here for flat imports.

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
from .errors import (
    DomainError,
    Infeasible,
    InvalidDistribution,
    InvalidOrder,
    NonConvergence,
    NonFinite,
    NoSignChange,
    NotNormalizable,
    NumericalError,
    PathwayEntropyError,
    UnknownName,
    UnsupportedFamily,
    UsageError,
)
from .quadrature import QuadratureSpec, find_root, integrate
from .entropy_discrete import (
    ALPHA_FAMILIES,
    AlphaOrder,
    DiscreteDistribution,
    EntropyFamily,
    FamilyTag,
    HAVRDA_CHARVAT,
    MATHAI_M,
    MATHAI_M_STAR,
    RENYI,
    SHANNON,
    TSALLIS,
    ZeroPolicy,
    composition_coefficient,
    composition_residual_bivariate,
    composition_residual_trivariate,
    entropy,
    entropy_from_power_sum,
    functional_equation_residual,
    power_exponent,
    product_distribution,
    recursivity_weight,
    shannon_limit_constant,
    shannon_recursivity_residual,
    validate_order,
)
from .entropy_continuous import (
    DensitySpec,
    composition_residual_continuous,
    continuous_entropy,
    density_power_integral,
    exponential_density,
    gaussian_density,
    uniform_density,
)
from .pathway import (
    SPECIAL_CASE_NAMES,
    PathwayParams,
    SupportInterval,
    as_density_spec,
    cdf,
    density,
    is_normalizable,
    kernel,
    kernel_derivative,
    log_kernel,
    normalizing_constant,
    normalizing_constant_quadrature,
    quantile,
    sample,
    special_case,
    support,
)
from .maxent import (
    MaxEntProblem,
    MaxEntSolution,
    MaxEntVariant,
    MomentConstraint,
    discrete_objective,
    euler_residual,
    solve,
    solve_escort,
    stationary_density,
    trapezoid_weights,
)
from .ode_check import (
    OdeCase,
    OdeReduction,
    SweepReport,
    default_step,
    residual,
    residual_sweep,
)
from .divergence import (
    InaccuracyInput,
    kerridge_inaccuracy,
    m_alpha_expectation_residual,
)
from .ppp import (
    PppSolution,
    has_independent_events,
    independent_event_triples,
    scan,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PathwayEntropyError", "DomainError", "InvalidOrder", "InvalidDistribution",
    "UnsupportedFamily", "UnknownName", "NotNormalizable", "Infeasible",
    "NoSignChange", "UsageError", "NumericalError", "NonConvergence", "NonFinite",
    # quadrature
    "QuadratureSpec", "integrate", "find_root",
    # discrete entropy
    "ZeroPolicy", "DiscreteDistribution", "FamilyTag", "EntropyFamily",
    "AlphaOrder", "SHANNON", "RENYI", "HAVRDA_CHARVAT", "TSALLIS", "MATHAI_M",
    "MATHAI_M_STAR", "ALPHA_FAMILIES", "validate_order",
    "shannon_limit_constant", "power_exponent", "entropy_from_power_sum",
    "entropy", "product_distribution",
    "composition_coefficient", "composition_residual_bivariate",
    "composition_residual_trivariate", "recursivity_weight",
    "functional_equation_residual", "shannon_recursivity_residual",
    # continuous entropy
    "DensitySpec", "uniform_density", "exponential_density", "gaussian_density",
    "density_power_integral", "continuous_entropy",
    "composition_residual_continuous",
    # pathway
    "PathwayParams", "SupportInterval", "support", "is_normalizable",
    "normalizing_constant", "normalizing_constant_quadrature", "log_kernel",
    "kernel", "kernel_derivative", "density", "cdf", "quantile", "sample",
    "special_case", "SPECIAL_CASE_NAMES", "as_density_spec",
    # maxent
    "MaxEntVariant", "MomentConstraint", "MaxEntProblem", "MaxEntSolution",
    "trapezoid_weights", "stationary_density", "discrete_objective",
    "euler_residual", "solve", "solve_escort",
    # ode_check
    "OdeReduction", "OdeCase", "SweepReport", "default_step", "residual",
    "residual_sweep",
    # divergence
    "InaccuracyInput", "m_alpha_expectation_residual", "kerridge_inaccuracy",
    # ppp
    "PppSolution", "independent_event_triples", "has_independent_events",
    "scan",
]
