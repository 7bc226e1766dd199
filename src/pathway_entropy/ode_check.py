"""Differential identities satisfied by the pathway kernel.

With g(x) = x^(gamma-1) [1 - s(1-alpha) x^delta]^(beta/(1-alpha)) the exact
derivative identity is

    x g'(x) = (gamma-1) g(x)
              - s beta delta x^(delta+gamma-1) [1 - s(1-alpha) x^delta]^(beta/(1-alpha)-1)

and under parameter constraints the second term collapses onto a power of g:

    reduced_beta    delta = (gamma-1)(alpha-1)/beta, gamma != 1, alpha > 1:
                        x g' = (gamma-1) g - s beta delta g^eta
    reduced_beta1   the same with beta = 1:
                        x g' = (gamma-1) g - s delta g^alpha
    tsallis_eta     gamma = 1, delta = 1:
                        g' = -s beta g^eta
    tsallis_alpha   gamma = 1, delta = 1, beta = 1:
                        g' = -s g^alpha

with eta = 1 - (1-alpha)/beta.  The checks estimate g' by a central
difference of the kernel, so the comparison against the analytic right side
is a genuinely independent route (the right sides ARE the analytic
derivative, rewritten).  Residuals are truncation-limited at O(h^2).

Note the beta factor in the tsallis_eta right side: differentiating the
gamma = delta = 1 kernel gives g' = -s beta g^eta, and the beta = 1
specialization tsallis_alpha is consistent with that form only when the
factor is present.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .pathway import PathwayParams, _substitution, kernel, support

__all__ = [
    "OdeReduction",
    "OdeCase",
    "SweepReport",
    "default_step",
    "residual",
    "residual_sweep",
]

_CONSTRAINT_TOL = 1e-12


class OdeReduction(Enum):
    GENERAL = "general"
    REDUCED_BETA = "reduced_beta"
    REDUCED_BETA1 = "reduced_beta1"
    TSALLIS_ETA = "tsallis_eta"
    TSALLIS_ALPHA = "tsallis_alpha"


@dataclass(frozen=True)
class OdeCase:
    """Pathway params paired with the reduction whose identity is checked.

    The reductions are gated hard: parameters that do not satisfy the
    reduction's constraint (within 1e-12) are rejected here, because for
    such parameters it is the reduction, not the derivative identity, that
    fails.  eta = 1 - (1-alpha)/beta is derived at construction.
    """

    params: PathwayParams
    reduction: OdeReduction = OdeReduction.GENERAL
    eta: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        p = self.params
        eta = 1.0 - (1.0 - p.alpha) / p.beta_exp
        if self.eta is not None and abs(self.eta - eta) > _CONSTRAINT_TOL:
            raise DomainError(
                f"eta is derived; expected {eta!r}, got {self.eta!r}")
        object.__setattr__(self, "eta", eta)
        red = self.reduction
        if red in (OdeReduction.REDUCED_BETA, OdeReduction.REDUCED_BETA1):
            if p.gamma == 1.0:
                raise DomainError(f"{red.value} requires gamma != 1")
            if not p.alpha > 1.0:
                raise DomainError(f"{red.value} requires alpha > 1")
            required = (p.gamma - 1.0) * (p.alpha - 1.0) / p.beta_exp
            if abs(p.delta - required) > _CONSTRAINT_TOL:
                raise DomainError(
                    f"{red.value} requires delta = (gamma-1)(alpha-1)/beta_exp "
                    f"= {required!r}, got {p.delta!r}")
            if red is OdeReduction.REDUCED_BETA1 and p.beta_exp != 1.0:
                raise DomainError("reduced_beta1 requires beta_exp = 1")
        elif red in (OdeReduction.TSALLIS_ETA, OdeReduction.TSALLIS_ALPHA):
            if p.gamma != 1.0 or p.delta != 1.0:
                raise DomainError(f"{red.value} requires gamma = 1 and delta = 1")
            if red is OdeReduction.TSALLIS_ALPHA and p.beta_exp != 1.0:
                raise DomainError("tsallis_alpha requires beta_exp = 1")


@dataclass(frozen=True)
class SweepReport:
    max_residual: float
    argmax: float
    n_points: int
    h: float


def default_step(x):
    """Central-difference step: cbrt(eps) * max(1, |x|), elementwise."""
    return float(np.cbrt(np.finfo(float).eps)) * np.maximum(1.0, np.abs(x))


def _rhs(case: OdeCase, x: float, g: float) -> float:
    p = case.params
    red = case.reduction
    if red is OdeReduction.GENERAL:
        if p.alpha == 1.0:
            bracket_pow = math.exp(-p.beta_exp * p.s * x ** p.delta)
        else:
            u = 1.0 - p.s * (1.0 - p.alpha) * x ** p.delta
            bracket_pow = u ** (p.beta_exp / (1.0 - p.alpha) - 1.0)
        lead = (p.gamma - 1.0) * g
        return lead - (p.s * p.beta_exp * p.delta
                       * x ** (p.delta + p.gamma - 1.0) * bracket_pow)
    if red is OdeReduction.REDUCED_BETA:
        return (p.gamma - 1.0) * g - p.s * p.beta_exp * p.delta * g ** case.eta
    if red is OdeReduction.REDUCED_BETA1:
        return (p.gamma - 1.0) * g - p.s * p.delta * g ** p.alpha
    if red is OdeReduction.TSALLIS_ETA:
        return -p.s * p.beta_exp * g ** case.eta
    return -p.s * g ** p.alpha  # TSALLIS_ALPHA


def _residuals(case: OdeCase, xs: np.ndarray, steps: np.ndarray) -> np.ndarray:
    # One kernel call per stencil column.  The right side stays a per-point
    # call on Python floats: numpy's array pow/exp differ from libm in the
    # last bit on some points, which would move the reported residuals.
    if not np.all(steps > 0):
        raise DomainError(f"step must be positive, got {float(np.min(steps))}")
    interval = support(case.params)
    outside = ~((xs - steps > interval.lower) & (xs + steps < interval.upper))
    if np.any(outside):
        k = int(np.argmax(outside))
        x, h = float(xs[k]), float(steps[k])
        raise DomainError(
            f"stencil [{x - h}, {x + h}] leaves the open support "
            f"({interval.lower}, {interval.upper})")
    g_minus = kernel(case.params, xs - steps)
    g = kernel(case.params, xs)
    g_plus = kernel(case.params, xs + steps)
    derivative = (g_plus - g_minus) / (2.0 * steps)
    if case.reduction in (OdeReduction.TSALLIS_ETA, OdeReduction.TSALLIS_ALPHA):
        lhs = derivative
    else:
        lhs = xs * derivative
    rhs = np.array([_rhs(case, x, gx) for x, gx in zip(xs.tolist(), g.tolist())])
    return np.abs(lhs - rhs)


def residual(case: OdeCase, x: float, h: float | None = None) -> float:
    """|LHS - RHS| at x with g' from the (x-h, x+h) central difference.

    LHS is x g'(x) for the general and reduced forms, g'(x) for the two
    tsallis forms.
    """
    step = default_step(x) if h is None else h
    return float(_residuals(case, np.array([float(x)]), np.array([float(step)]))[0])


def _sweep_window(case: OdeCase) -> tuple[float, float]:
    p = case.params
    interval = support(case.params)
    if math.isfinite(interval.upper):
        return 0.1 * interval.upper, 0.9 * interval.upper
    # the x at which the substituted variable t is 1
    scale = _substitution(p)[2] ** (-1.0 / p.delta)
    top = 50.0 if p.alpha > 1.0 else 20.0
    return 0.1 * scale, top * scale


def residual_sweep(case: OdeCase, n_points: int,
                   h: float | None = None) -> SweepReport:
    """Worst residual over log-spaced interior points.

    The window spans [0.1, 0.9] of a finite support, or 0.1 to 50 (power
    tail) / 20 (exponential tail) characteristic scales on the half-line;
    n_points = 1 evaluates at the window's geometric midpoint.
    """
    if n_points < 1:
        raise DomainError("need at least one sweep point")
    lo, hi = _sweep_window(case)
    if n_points == 1:
        xs = np.array([math.sqrt(lo * hi)])
    else:
        xs = np.geomspace(lo, hi, n_points)
    steps = default_step(xs) if h is None else np.full(xs.shape, float(h))
    values = _residuals(case, xs, steps)
    k = int(np.argmax(values))
    return SweepReport(max_residual=float(values[k]), argmax=float(xs[k]),
                       n_points=int(n_points), h=float(steps[k]))
