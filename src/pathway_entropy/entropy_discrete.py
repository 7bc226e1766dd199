"""Discrete entropy families of order alpha and their exact identities.

Implemented families over a probability vector (p_1, ..., p_k):

    shannon          -A * sum p_i ln p_i                   (A > 0)
    renyi            ln(sum p_i^a) / (1 - a)               (a > 0, a != 1)
    havrda_charvat   (sum p_i^a - 1) / (2^(1-a) - 1)       (a > 0, a != 1)
    tsallis          (sum p_i^a - 1) / (1 - a)             (a > 0, a != 1)
    mathai_m         (sum p_i^(2-a) - 1) / (a - 1)         (a < 2, a != 1)
    mathai_m_star    ln(sum p_i^(2-a)) / (a - 1)           (a < 2, a != 1)

Four of the order-alpha families tend to the natural-log Shannon value as
a -> 1.  havrda_charvat is the exception: its divisor 2^(1-a) - 1 behaves as
(1-a) ln 2 near a = 1, so that family tends to Shannon / ln 2, the Shannon
value measured in bits.  `entropy` dispatches each family to its exact limit
at a == 1 instead of evaluating a 0/0 form numerically, so the value is
continuous in the order across 1.

The composition law for independent product distributions,

    F(PQ) = F(P) + F(Q) + a(alpha) * F(P) * F(Q),

holds exactly with the family coefficient a(alpha) returned by
`composition_coefficient`, and its three-fold extension adds the pair products
weighted by a(alpha) and the triple product weighted by a(alpha)^2.  Power
sums are accumulated with exact compensated summation (math.fsum) so the
residual operations stay at the 1e-12 / 1e-10 level demanded of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    InvalidDistribution,
    InvalidOrder,
    UnsupportedFamily,
)

__all__ = [
    "ZeroPolicy",
    "DiscreteDistribution",
    "FamilyTag",
    "EntropyFamily",
    "AlphaOrder",
    "SHANNON",
    "RENYI",
    "HAVRDA_CHARVAT",
    "TSALLIS",
    "MATHAI_M",
    "MATHAI_M_STAR",
    "ALPHA_FAMILIES",
    "validate_order",
    "shannon_limit_constant",
    "power_exponent",
    "entropy_from_power_sum",
    "entropy",
    "product_distribution",
    "composition_coefficient",
    "composition_residual_bivariate",
    "composition_residual_trivariate",
    "recursivity_weight",
    "functional_equation_residual",
    "shannon_recursivity_residual",
]

_SUM_SLACK = 1e-9


class ZeroPolicy(Enum):
    STRICT_POSITIVE = "strict_positive"
    ZERO_INDIFFERENT = "zero_indifferent"


class FamilyTag(Enum):
    SHANNON = "shannon"
    RENYI = "renyi"
    HAVRDA_CHARVAT = "havrda_charvat"
    TSALLIS = "tsallis"
    MATHAI_M = "mathai_m"
    MATHAI_M_STAR = "mathai_m_star"


@dataclass(frozen=True)
class EntropyFamily:
    """Family selector plus the Shannon scale constant A (applied only when
    tag is SHANNON; the other families carry their own intrinsic a -> 1
    normalization and ignore it)."""

    tag: FamilyTag
    shannon_constant: float = 1.0

    def __post_init__(self) -> None:
        if not (self.shannon_constant > 0 and math.isfinite(self.shannon_constant)):
            raise DomainError("shannon_constant must be positive and finite")


@dataclass(frozen=True)
class AlphaOrder:
    alpha: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise InvalidOrder(f"alpha must be finite, got {self.alpha!r}")


SHANNON = EntropyFamily(FamilyTag.SHANNON)
RENYI = EntropyFamily(FamilyTag.RENYI)
HAVRDA_CHARVAT = EntropyFamily(FamilyTag.HAVRDA_CHARVAT)
TSALLIS = EntropyFamily(FamilyTag.TSALLIS)
MATHAI_M = EntropyFamily(FamilyTag.MATHAI_M)
MATHAI_M_STAR = EntropyFamily(FamilyTag.MATHAI_M_STAR)

#: The five order-alpha families (Shannon excluded: it has no free order).
ALPHA_FAMILIES = (RENYI, HAVRDA_CHARVAT, TSALLIS, MATHAI_M, MATHAI_M_STAR)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Validated probability vector.

    Inputs whose sum deviates from 1 by at most 1e-9 are renormalized;
    larger deviations are rejected.  Under STRICT_POSITIVE every entry must
    be positive; ZERO_INDIFFERENT admits zeros, which contribute nothing to
    any of the entropy sums (the 0*ln 0 = 0 convention).
    """

    probs: np.ndarray
    zero_policy: ZeroPolicy = ZeroPolicy.STRICT_POSITIVE

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).ravel()
        if p.size < 1:
            raise InvalidDistribution("need at least one outcome")
        if not np.all(np.isfinite(p)):
            raise InvalidDistribution("probabilities must be finite")
        if self.zero_policy is ZeroPolicy.STRICT_POSITIVE:
            if np.any(p <= 0.0):
                raise InvalidDistribution(
                    "strict_positive distribution contains a non-positive entry")
        elif np.any(p < 0.0):
            raise InvalidDistribution("probabilities must be non-negative")
        total = math.fsum(p.tolist())
        if abs(total - 1.0) > _SUM_SLACK:
            raise InvalidDistribution(
                f"probabilities sum to {total!r}, outside 1 +/- {_SUM_SLACK}")
        p = p / total
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, k: int) -> "DiscreteDistribution":
        if k < 1:
            raise InvalidDistribution("uniform distribution needs k >= 1")
        return cls(np.full(k, 1.0 / k))

    def __len__(self) -> int:
        return int(self.probs.size)

    def nonzero(self) -> np.ndarray:
        return self.probs[self.probs > 0.0]


def validate_order(family: EntropyFamily, order: AlphaOrder) -> None:
    """Reject orders outside the family's domain; alpha == 1 is admitted for
    the five alpha-families (handled by the exact Shannon-limit path)."""
    a = order.alpha
    tag = family.tag
    if tag is FamilyTag.SHANNON:
        if a != 1.0:
            raise InvalidOrder("shannon entropy is the alpha = 1 point; pass alpha = 1")
        return
    if tag in (FamilyTag.RENYI, FamilyTag.HAVRDA_CHARVAT, FamilyTag.TSALLIS):
        if not a > 0.0:
            raise InvalidOrder(f"{tag.value} requires alpha > 0, got {a}")
        return
    if tag in (FamilyTag.MATHAI_M, FamilyTag.MATHAI_M_STAR):
        if not a < 2.0:
            raise InvalidOrder(f"{tag.value} requires alpha < 2, got {a}")
        return
    raise UnsupportedFamily(str(tag))


def shannon_limit_constant(family: EntropyFamily) -> float:
    """Constant A such that the family's value tends to A * (-sum p ln p) as
    the order tends to 1.

    1 for every family except havrda_charvat, whose binary normalization
    2^(1-a) - 1 ~ (1-a) ln 2 makes the limit the base-2 Shannon value,
    A = 1/ln 2.  For the shannon family itself this is its scale constant.
    """
    if family.tag is FamilyTag.SHANNON:
        return family.shannon_constant
    if family.tag is FamilyTag.HAVRDA_CHARVAT:
        return 1.0 / math.log(2.0)
    return 1.0


def power_exponent(family: EntropyFamily, order: AlphaOrder) -> float:
    """Exponent of the power statistic the family is built on: alpha for
    renyi/havrda_charvat/tsallis, 2 - alpha for the mathai forms."""
    if family.tag in (FamilyTag.RENYI, FamilyTag.HAVRDA_CHARVAT, FamilyTag.TSALLIS):
        return order.alpha
    if family.tag in (FamilyTag.MATHAI_M, FamilyTag.MATHAI_M_STAR):
        return 2.0 - order.alpha
    raise UnsupportedFamily("shannon is not a power-statistic family")


def entropy_from_power_sum(family: EntropyFamily, order: AlphaOrder,
                           power_sum: float) -> float:
    """Map the power statistic (sum of p^c, or the integral of f^c, with c
    from `power_exponent`) to the family's entropy value.  Requires an
    order-alpha family with an order in its domain other than 1, and a
    positive power statistic."""
    validate_order(family, order)
    if order.alpha == 1.0:
        raise InvalidOrder("the power statistic maps to an entropy only at "
                           "alpha != 1; alpha = 1 is the Shannon limit")
    if not power_sum > 0:
        raise DomainError(f"power statistic must be positive, got {power_sum!r}")
    a = order.alpha
    tag = family.tag
    if tag is FamilyTag.RENYI:
        return math.log(power_sum) / (1.0 - a)
    if tag is FamilyTag.HAVRDA_CHARVAT:
        return (power_sum - 1.0) / (2.0 ** (1.0 - a) - 1.0)
    if tag is FamilyTag.TSALLIS:
        return (power_sum - 1.0) / (1.0 - a)
    if tag is FamilyTag.MATHAI_M:
        return (power_sum - 1.0) / (a - 1.0)
    return math.log(power_sum) / (a - 1.0)  # MATHAI_M_STAR


def _from_statistic(family: EntropyFamily, order: AlphaOrder,
                    shannon: Callable[[], float],
                    power_sum: Callable[[float], float]) -> float:
    """The order-1 dispatch of the discrete and continuous measures: at alpha
    exactly 1, and for shannon, `shannon_limit_constant` times the Shannon
    statistic; otherwise `entropy_from_power_sum` of the power statistic."""
    if family.tag is FamilyTag.SHANNON or order.alpha == 1.0:
        return shannon_limit_constant(family) * shannon()
    return entropy_from_power_sum(family, order, power_sum(power_exponent(family, order)))


def entropy(dist: DiscreteDistribution, family: EntropyFamily,
            order: AlphaOrder | None = None) -> float:
    """Entropy of `dist` under the chosen family at the chosen order."""
    if order is None:
        order = AlphaOrder(1.0)
    validate_order(family, order)
    p = dist.nonzero()
    return _from_statistic(family, order,
                           lambda: -math.fsum((p * np.log(p)).tolist()),
                           lambda c: math.fsum(np.exp(c * np.log(p)).tolist()))


def composition_coefficient(family: EntropyFamily, order: AlphaOrder) -> float:
    """Coefficient a(alpha) of the cross term in the product-composition law.

    Zero for the additive families (shannon, renyi, mathai_m_star)."""
    validate_order(family, order)
    a = order.alpha
    tag = family.tag
    if tag in (FamilyTag.SHANNON, FamilyTag.RENYI, FamilyTag.MATHAI_M_STAR):
        return 0.0
    if tag is FamilyTag.HAVRDA_CHARVAT:
        return 2.0 ** (1.0 - a) - 1.0
    if tag is FamilyTag.TSALLIS:
        return 1.0 - a
    return a - 1.0  # MATHAI_M


def _merged_policy(p: DiscreteDistribution, q: DiscreteDistribution) -> ZeroPolicy:
    # A distribution built from two others tolerates zeros if either does.
    if (p.zero_policy is ZeroPolicy.ZERO_INDIFFERENT
            or q.zero_policy is ZeroPolicy.ZERO_INDIFFERENT):
        return ZeroPolicy.ZERO_INDIFFERENT
    return ZeroPolicy.STRICT_POSITIVE


def product_distribution(p: DiscreteDistribution,
                         q: DiscreteDistribution) -> DiscreteDistribution:
    """Outer-product (independent joint) distribution, row-major flattened."""
    joint = np.outer(p.probs, q.probs).ravel()
    return DiscreteDistribution(joint, _merged_policy(p, q))


def composition_residual_bivariate(p: DiscreteDistribution, q: DiscreteDistribution,
                                   family: EntropyFamily, order: AlphaOrder) -> float:
    """F(PQ) - [F(P) + F(Q) + a(alpha) F(P) F(Q)], signed."""
    fp = entropy(p, family, order)
    fq = entropy(q, family, order)
    fpq = entropy(product_distribution(p, q), family, order)
    coef = composition_coefficient(family, order)
    return fpq - (fp + fq + coef * fp * fq)


def composition_residual_trivariate(p: DiscreteDistribution, q: DiscreteDistribution,
                                    r: DiscreteDistribution, family: EntropyFamily,
                                    order: AlphaOrder) -> float:
    """Three-fold composition residual: the pairwise cross terms carry
    a(alpha) and the triple product carries a(alpha)^2."""
    fp = entropy(p, family, order)
    fq = entropy(q, family, order)
    fr = entropy(r, family, order)
    joint = product_distribution(product_distribution(p, q), r)
    fpqr = entropy(joint, family, order)
    coef = composition_coefficient(family, order)
    expected = (fp + fq + fr
                + coef * (fp * fq + fp * fr + fq * fr)
                + coef * coef * fp * fq * fr)
    return fpqr - expected


def recursivity_weight(family: EntropyFamily, order: AlphaOrder, x: float) -> float:
    """Branching weight b_alpha(x) of the recursivity relation.

    (1-x) for shannon, (1-x)^alpha for havrda_charvat and tsallis,
    (1-x)^(2-alpha) for mathai_m.  The purely additive renyi and
    mathai_m_star measures have no recursivity weight.
    """
    validate_order(family, order)
    if not (0.0 <= x < 1.0):
        raise DomainError(f"recursivity weight needs 0 <= x < 1, got {x}")
    tag = family.tag
    a = order.alpha
    if tag is FamilyTag.SHANNON:
        return 1.0 - x
    if tag in (FamilyTag.HAVRDA_CHARVAT, FamilyTag.TSALLIS):
        return (1.0 - x) ** a
    if tag is FamilyTag.MATHAI_M:
        return (1.0 - x) ** (2.0 - a)
    raise UnsupportedFamily(
        f"{tag.value} is additive and has no recursivity weight")


def _two_point(family: EntropyFamily, order: AlphaOrder, x: float) -> float:
    dist = DiscreteDistribution(np.array([x, 1.0 - x]), ZeroPolicy.ZERO_INDIFFERENT)
    return entropy(dist, family, order)


def functional_equation_residual(family: EntropyFamily, order: AlphaOrder,
                                 x: float, y: float, *,
                                 as_printed: bool = False) -> float:
    """Residual of the symmetric two-point functional equation

        f(x) + b(x) f(y/(1-x)) - f(y) - b(y) f(x/(1-y))

    with f(t) the two-point entropy at (t, 1-t).  This vanishes identically
    for every family carrying a recursivity weight.  `as_printed=True` swaps
    the right-hand weight to b(x); that variant is *not* an identity and is
    kept only for comparison.
    """
    if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0 and x + y <= 1.0):
        raise DomainError(
            f"need x, y >= 0, x < 1, y < 1 and x + y <= 1, got x={x}, y={y}")
    f = lambda t: _two_point(family, order, t)
    bx = recursivity_weight(family, order, x)
    by = recursivity_weight(family, order, y)
    left = f(x) + bx * f(y / (1.0 - x))
    weight = bx if as_printed else by
    right = f(y) + weight * f(x / (1.0 - y))
    return left - right


def shannon_recursivity_residual(p: DiscreteDistribution,
                                 q: DiscreteDistribution) -> float:
    """Residual of the Shannon branching identity: splitting the last outcome
    p_m into p_m * q_j changes the entropy by exactly p_m * H(Q)."""
    pv = p.probs
    qv = q.probs
    pm = float(pv[-1])
    combined = np.concatenate((pv[:-1], pm * qv))
    h_combined = entropy(DiscreteDistribution(combined, _merged_policy(p, q)),
                         SHANNON)
    h_p = entropy(p, SHANNON)
    h_q = entropy(q, SHANNON)
    return h_combined - (h_p + pm * h_q)
