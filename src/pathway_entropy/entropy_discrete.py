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
weighted by a(alpha) and the triple product weighted by a(alpha)^2.  The
probability total, the Shannon sum and the power sums are correctly rounded,
the value math.fsum returns on the list of the terms, so the residual
operations stay at the 1e-12 / 1e-10 level demanded of them.  `_sum` is
math.fsum itself below 512 entries.  From 512 on it forms the terms, p ln p
or exp(c ln p), a cache-sized block at a time in one reused buffer, so no
term vector of the whole length is built.  It splits each block's terms, by
error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008)
at a power of two taken from that block's own max|x|, into a part that numpy
sums exactly and a residual whose float sum has a known error bound; one
math.fsum of all the blocks' sums and bounds then certifies the rounding.
It is math.fsum of all the terms when that bound cannot settle the rounding
at a second, finer split, or a term is not finite.
"""
from __future__ import annotations

import itertools
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

_FSUM_BELOW = 512
_BLOCK = 1 << 15
_EPS = float(np.finfo(float).eps)
_TINY = 2.0 ** -900


def _sum(values: np.ndarray,
         term: Callable[[slice, np.ndarray], np.ndarray] | None = None) -> float:
    """The correctly rounded sum of the terms of a 1-D float array, bit for bit
    what math.fsum returns on the list of them, signs mixed or not.  The terms
    are the entries themselves, or what term(s, out) returns for the entries in
    slice s: an array formed in the buffer out or in a prefix of it, so that no
    term vector of the whole length is ever built.

    The terms are formed and summed a block of _BLOCK entries at a time, so the
    buffers stay in cache.  From 512 entries on, error-free extraction (Rump,
    Ogita & Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31, 2008) splits each term x of a block of k terms at the block's
    own s = 2^(e + m), 2^e > max(max|x|, 2^-900), 2^m > k + 1, into
    q = (x + s) - s and r = x - q, both exact.  The q are multiples of u s
    (u = eps / 2) whose partial sums stay below s, so numpy sums them exactly
    in any order; |r| <= u s, so the float sum of the r is within (k eps)^2 s / 4
    of theirs.  math.fsum of every block's two sums, minus and plus the float
    sum of the blocks' bounds (k eps)^2 s (the factor 4 covers that sum's
    rounding), brackets the sum; when the two ends round
    alike, and not to zero (a zero's sign is fsum's to choose), that is the
    sum.  Otherwise the r split once more, at s 2^(m - 52), and then math.fsum
    sums all the terms, as it does when no block's max|x| exceeds 2^-900 or
    one's is not below 2^1000 / n: inf, NaN and fsum's OverflowError stay as
    they were.
    """
    n = values.size
    if n < _FSUM_BELOW:
        terms = values if term is None else term(slice(None), np.empty(n))
        return math.fsum(terms.tolist())
    if term is None:
        term = lambda s, out: values[s]
    buf = np.empty((3, min(n, _BLOCK)))

    def blocks():
        for start in range(0, n, _BLOCK):
            yield term(slice(start, start + _BLOCK), buf[0, :min(n - start, _BLOCK)])

    def fsum_of_terms() -> float:
        return math.fsum(itertools.chain.from_iterable(x.tolist() for x in blocks()))

    for level in (1, 2):
        parts, bound, largest = [], 0.0, 0.0
        for x in blocks():
            top = max(x.max(initial=0.0), -x.min(initial=0.0))
            if not top < 2.0 ** 1000 / n:
                return fsum_of_terms()
            largest = max(largest, top)
            k = x.size
            shift = (k + 1).bit_length()
            split = math.ldexp(1.0, math.frexp(max(top, _TINY))[1] + shift)
            sigmas = [split, split * 2.0 ** (shift - 52)][:level]
            q, r = buf[1, :k], buf[2, :k]
            for sigma in sigmas:
                np.add(x, sigma, out=q)
                q -= sigma
                parts.append(float(q.sum()))
                x = np.subtract(x, q, out=r)
            parts.append(float(x.sum()))
            bound += (k * _EPS) ** 2 * sigmas[-1]
        if not largest > _TINY:
            break
        low = math.fsum(parts + [-bound])
        if low != 0.0 and low == math.fsum(parts + [bound]):
            return low
    return fsum_of_terms()


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
# Families whose composition law has no cross term.
_ADDITIVE = (FamilyTag.SHANNON, FamilyTag.RENYI, FamilyTag.MATHAI_M_STAR)


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
        # min and max propagate NaN, so this one pair sees every bad entry
        low, high = p.min(), p.max()
        if not (math.isfinite(low) and math.isfinite(high)):
            raise InvalidDistribution("probabilities must be finite")
        if self.zero_policy is ZeroPolicy.STRICT_POSITIVE:
            if low <= 0.0:
                raise InvalidDistribution(
                    "strict_positive distribution contains a non-positive entry")
        elif low < 0.0:
            raise InvalidDistribution("probabilities must be non-negative")
        # no entry of a vector that sums to 1 +/- slack exceeds 1 + slack, and
        # below that the sum cannot overflow
        if high > 1.0 + _SUM_SLACK:
            raise InvalidDistribution(
                f"probability {float(high)!r} exceeds 1 + {_SUM_SLACK}")
        total = _sum(p)
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
    divisor = _divisor(family.tag, order.alpha)
    if family.tag in _ADDITIVE:
        return math.log(power_sum) / divisor
    return (power_sum - 1.0) / divisor


def _divisor(tag: FamilyTag, a: float) -> float:
    # d(alpha) of the value ln(S)/d (additive families) or (S - 1)/d (the
    # rest); by S_PQ = S_P S_Q the latter's cross term is d F_P F_Q
    if tag is FamilyTag.HAVRDA_CHARVAT:
        return 2.0 ** (1.0 - a) - 1.0
    if tag in (FamilyTag.RENYI, FamilyTag.TSALLIS):
        return 1.0 - a
    return a - 1.0  # the mathai forms


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
    p = dist.probs
    zeros = dist.zero_policy is ZeroPolicy.ZERO_INDIFFERENT

    def log(s: slice, out: np.ndarray, zero_log: float) -> np.ndarray:
        # ln p over slice s into out; a zero entry's log is never taken, and
        # zero_log stands in for it, chosen so that its term comes out +0
        # (0 ln 0 = 0, and 0^c = 0 for every family's c > 0).  So zeros are
        # dropped a block at a time, with no mask or copy of the whole vector.
        x = p[s]
        if not zeros:
            return np.log(x, out=out)
        out.fill(zero_log)
        return np.log(x, out=out, where=x > 0.0)

    def shannon(s: slice, out: np.ndarray) -> np.ndarray:
        return np.multiply(log(s, out, 0.0), p[s], out=out)

    def power_sum(c: float) -> float:
        def term(s: slice, out: np.ndarray) -> np.ndarray:
            log(s, out, -math.inf)
            out *= c
            return np.exp(out, out=out)
        return _sum(p, term)

    return _from_statistic(family, order, lambda: -_sum(p, shannon), power_sum)


def composition_coefficient(family: EntropyFamily, order: AlphaOrder) -> float:
    """Coefficient a(alpha) of the cross term in the product-composition law.

    Zero for the additive families (shannon, renyi, mathai_m_star)."""
    validate_order(family, order)
    if family.tag in _ADDITIVE:
        return 0.0
    return _divisor(family.tag, order.alpha)


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
    if family.tag is FamilyTag.SHANNON:
        return 1.0 - x
    if family.tag in _ADDITIVE:
        raise UnsupportedFamily(
            f"{family.tag.value} is additive and has no recursivity weight")
    return (1.0 - x) ** power_exponent(family, order)


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
