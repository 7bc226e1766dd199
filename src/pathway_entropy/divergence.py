"""Inaccuracy of an assigned distribution and the expectation form of the
order-alpha measure.

`kerridge_inaccuracy` scores assigning q when f is true:

    (E_f[q^(alpha-1)] - 1) / (2^(1-alpha) - 1)

the expectation taken under f (discrete sum or quadrature of f q^(alpha-1)).
The divisor is the same binary normalization used by the havrda_charvat
family, so the q = f self-assignment reproduces that entropy exactly, and
its order-1 limit is the Shannon value over ln 2.

For densities E_f is the integral of exp(ln f + (alpha-1) ln q), read
through the one log-density boundary described on `DensitySpec`.  A q that
is zero where f is a positive float raises DomainError; where f has
underflowed too, the term is 0.  A q that underflows to 0 in a tail is not
such a zero when it supplies `log_pdf`, as the bundled densities do: its
log stays finite there.  Where q^(alpha-1) outgrows f, discrete or not,
the terms overflow and NonFinite says that E_f diverges.

`m_alpha_expectation_residual` checks the identity

    (integral f^(2-alpha) - 1)/(alpha - 1)  ==  (E_f[f^(1-alpha)] - 1)/(alpha - 1)

by computing the two sides through different integrands: exp((2-alpha) ln f)
for the power integral, exp(ln f + (1-alpha) ln f) for the expectation.
They are algebraically the same integral, so the residual is a plumbing
consistency check and is held to 1e-10; both quadratures run 100x tighter
than the caller's tolerances to leave headroom under that bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy_continuous import DensitySpec, _expected_power, density_power_integral
from .entropy_discrete import (
    HAVRDA_CHARVAT,
    MATHAI_M,
    AlphaOrder,
    DiscreteDistribution,
    _sum,
    entropy_from_power_sum,
    validate_order,
)
from .errors import DomainError, InvalidOrder, NonFinite
from .quadrature import QuadratureSpec

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
    measure of f."""
    validate_order(MATHAI_M, order)
    a = order.alpha
    if a == 1.0:
        raise InvalidOrder("the expectation form needs alpha != 1")
    run = f.quadrature_spec(spec)
    run = replace(run, rel_tol=max(run.rel_tol / 100.0, 1e-13),
                  abs_tol=max(run.abs_tol / 100.0, 1e-15))
    direct = (density_power_integral(f, 2.0 - a, run) - 1.0) / (a - 1.0)
    expected = (_expected_power(f, f, 1.0 - a, run) - 1.0) / (a - 1.0)
    return abs(direct - expected)


def kerridge_inaccuracy(inp: InaccuracyInput,
                        spec: QuadratureSpec | None = None) -> float:
    """(E_f[q^(alpha-1)] - 1) / (2^(1-alpha) - 1)."""
    a = inp.order.alpha
    f, q = inp.true_dist, inp.assigned
    if isinstance(f, DiscreteDistribution):
        fp, qp, c = f.probs, q.probs, a - 1.0

        def term(s: slice, out: np.ndarray) -> np.ndarray:
            # the terms f q^c where f > 0: the other entries add nothing, and
            # their q, which may be 0, is never raised to c
            mass = fp[s] > 0.0
            fs = fp[s][mass]
            out = np.compress(mass, qp[s], out=out[:fs.size])
            # in place, with the exponent fast paths of q ** c (sqrt at c = 0.5);
            # a term past the float range is inf, which the sum keeps
            with np.errstate(over="ignore"):
                out **= c
            out *= fs
            return out
        expected = _sum(fp, term)
        if math.isinf(expected):
            raise NonFinite(f"E_f[q^p] diverges at p = {c!r}: a term f q^p overflows")
    else:
        expected = _expected_power(f, q, a - 1.0, spec)
    return entropy_from_power_sum(HAVRDA_CHARVAT, inp.order, expected)
