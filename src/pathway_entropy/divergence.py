"""Inaccuracy of an assigned distribution and the expectation form of the
order-alpha measure.

`kerridge_inaccuracy` scores assigning q when f is true:

    (E_f[q^(alpha-1)] - 1) / (2^(1-alpha) - 1)

the expectation taken under f (discrete sum or quadrature of f q^(alpha-1)).
The divisor is the same binary normalization used by the havrda_charvat
family, so the q = f self-assignment reproduces that entropy exactly, and
its order-1 limit is the Shannon value over ln 2.

`m_alpha_expectation_residual` checks the identity

    (integral f^(2-alpha) - 1)/(alpha - 1)  ==  (E_f[f^(1-alpha)] - 1)/(alpha - 1)

by computing the two sides through different integrand code paths.  They are
algebraically the same integral, so the residual is a plumbing consistency
check and is held to 1e-10; both quadratures run 100x tighter than the
caller's tolerances to leave headroom under that bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy_continuous import DensitySpec, _values, density_power_integral
from .entropy_discrete import (
    HAVRDA_CHARVAT,
    MATHAI_M,
    AlphaOrder,
    DiscreteDistribution,
    entropy_from_power_sum,
    validate_order,
)
from .errors import DomainError, InvalidOrder
from .quadrature import QuadratureSpec, integrate

__all__ = [
    "InaccuracyInput",
    "m_alpha_expectation_residual",
    "kerridge_inaccuracy",
]


@dataclass(frozen=True)
class InaccuracyInput:
    """True distribution f, assigned distribution q, and the order.

    Both must be discrete with equal length, or both densities with equal
    declared support.  q must be positive wherever f has mass; the discrete
    check runs here, the continuous one at evaluation points.
    """

    true_dist: DiscreteDistribution | DensitySpec
    assigned: DiscreteDistribution | DensitySpec
    order: AlphaOrder

    def __post_init__(self) -> None:
        f, q = self.true_dist, self.assigned
        if isinstance(f, DiscreteDistribution) and isinstance(q, DiscreteDistribution):
            if len(f) != len(q):
                raise DomainError(
                    f"distributions must share length, got {len(f)} and {len(q)}")
            if np.any((f.probs > 0.0) & (q.probs <= 0.0)):
                raise DomainError("assigned distribution is zero where f has mass")
        elif isinstance(f, DensitySpec) and isinstance(q, DensitySpec):
            if f.lower != q.lower or f.upper != q.upper:
                raise DomainError(
                    "densities must share the declared support, got "
                    f"[{f.lower}, {f.upper}] and [{q.lower}, {q.upper}]")
        else:
            raise DomainError("true and assigned must both be discrete or both densities")
        a = self.order.alpha
        if not (a > 0.0 and a != 1.0):
            raise InvalidOrder(f"inaccuracy needs alpha > 0, alpha != 1, got {a}")


def m_alpha_expectation_residual(f: DensitySpec, order: AlphaOrder,
                                 spec: QuadratureSpec | None = None) -> float:
    """|direct power-integral route - expectation route| for the order-alpha
    measure of f; the two integrands are coded independently."""
    validate_order(MATHAI_M, order)
    a = order.alpha
    if a == 1.0:
        raise InvalidOrder("the expectation form needs alpha != 1")
    run = f.quadrature_spec(spec)
    run = replace(run, rel_tol=max(run.rel_tol / 100.0, 1e-13),
                  abs_tol=max(run.abs_tol / 100.0, 1e-15))
    direct = (density_power_integral(f, 2.0 - a, run) - 1.0) / (a - 1.0)

    def expectation_integrand(x):
        v = _values(f, x)
        return np.where(v > 0.0, v * np.where(v > 0.0, v, 1.0) ** (1.0 - a), 0.0)

    expected = (integrate(expectation_integrand, run) - 1.0) / (a - 1.0)
    return abs(direct - expected)


def kerridge_inaccuracy(inp: InaccuracyInput,
                        spec: QuadratureSpec | None = None) -> float:
    """(E_f[q^(alpha-1)] - 1) / (2^(1-alpha) - 1)."""
    a = inp.order.alpha
    f, q = inp.true_dist, inp.assigned
    if isinstance(f, DiscreteDistribution):
        mask = f.probs > 0.0
        terms = f.probs[mask] * q.probs[mask] ** (a - 1.0)
        expected = math.fsum(terms.tolist())
    else:
        def integrand(x):
            fv = _values(f, x)
            qv = np.asarray(q.pdf(x), dtype=float)
            if np.any((fv > 0.0) & (qv <= 0.0)):
                raise DomainError("assigned density is zero where f has mass")
            qv = np.where(fv > 0.0, qv, 1.0)
            return np.where(fv > 0.0, fv * qv ** (a - 1.0), 0.0)

        expected = integrate(integrand, f.quadrature_spec(spec))
    return entropy_from_power_sum(HAVRDA_CHARVAT, inp.order, expected)
