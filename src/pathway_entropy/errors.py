"""Shared exception types.

Two trees: DomainError covers arguments outside the mathematical domain of an
operation, NumericalError covers floating-point and convergence failures.  The
CLI maps them onto exit codes (3 and 4 respectively; usage problems are 2).
"""

__all__ = [
    "PathwayEntropyError",
    "DomainError",
    "InvalidOrder",
    "InvalidDistribution",
    "UnsupportedFamily",
    "UnknownName",
    "NotNormalizable",
    "Infeasible",
    "UsageError",
    "NumericalError",
    "NonConvergence",
    "NonFinite",
]


class PathwayEntropyError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PathwayEntropyError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidOrder(DomainError):
    """The order alpha is outside the family's admissible range."""


class InvalidDistribution(DomainError):
    """A probability vector violates positivity or normalization."""


class UnsupportedFamily(DomainError):
    """The requested family has no definition for this operation."""


class UnknownName(DomainError):
    """A special-case or lookup name that is not recognized."""


class NotNormalizable(DomainError):
    """The kernel has no finite mass on its support."""


class Infeasible(DomainError):
    """No density on the requested domain can satisfy the constraints."""


class UsageError(PathwayEntropyError):
    """Command-line arguments that cannot be interpreted."""


class NumericalError(PathwayEntropyError, ArithmeticError):
    """Base class for floating-point and convergence failures."""


class NonConvergence(NumericalError):
    """An iterative procedure exhausted its budget before reaching tolerance."""


class NonFinite(NumericalError):
    """An integrand or derivative produced NaN or an infinity in the interior."""
