"""Discrete entropy families: fixed values, limits, and exact identities.

Numeric fixtures were frozen from a 50-digit mpmath oracle evaluating the
defining power sums independently of the library code.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathway_entropy.entropy_discrete import (
    ALPHA_FAMILIES,
    HAVRDA_CHARVAT,
    MATHAI_M,
    MATHAI_M_STAR,
    RENYI,
    SHANNON,
    TSALLIS,
    AlphaOrder,
    DiscreteDistribution,
    EntropyFamily,
    FamilyTag,
    ZeroPolicy,
    composition_coefficient,
    composition_residual_bivariate,
    composition_residual_trivariate,
    entropy,
    entropy_from_power_sum,
    functional_equation_residual,
    product_distribution,
    recursivity_weight,
    shannon_limit_constant,
    shannon_recursivity_residual,
    validate_order,
)
from pathway_entropy.errors import (
    DomainError,
    InvalidDistribution,
    InvalidOrder,
    UnsupportedFamily,
)

HALF_HALF = DiscreteDistribution(np.array([0.5, 0.5]))
SKEWED = DiscreteDistribution(np.array([0.25, 0.75]))
TRIPLE = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))

# ---------------------------------------------------------------- fixed values

FROZEN = [
    (TSALLIS, 2.0, HALF_HALF, 0.5),
    (HAVRDA_CHARVAT, 2.0, HALF_HALF, 1.0),
    (RENYI, 2.0, SKEWED, 0.47000362924573555365),
    (MATHAI_M, 0.5, HALF_HALF, 0.5857864376269049512),
    (MATHAI_M_STAR, 0.5, HALF_HALF, 0.69314718055994530942),
    (RENYI, 0.5, TRIPLE, 1.0636585111251115892),
    (TSALLIS, 1.5, TRIPLE, 0.78537424611036963181),
    (HAVRDA_CHARVAT, 0.5, DiscreteDistribution(np.array([0.1, 0.9])),
     0.63955188369408844113),
    (MATHAI_M, -1.0, TRIPLE, 0.42),
    (MATHAI_M_STAR, 1.5, TRIPLE, 1.0636585111251115892),
]


@pytest.mark.parametrize("family,alpha,dist,expected", FROZEN)
def test_frozen_entropy_values(family, alpha, dist, expected):
    assert entropy(dist, family, AlphaOrder(alpha)) == pytest.approx(expected, abs=1e-14)


def test_shannon_values():
    assert entropy(TRIPLE, SHANNON) == pytest.approx(1.0296530140645735274, abs=1e-14)
    bits = EntropyFamily(FamilyTag.SHANNON, shannon_constant=1.0 / math.log(2.0))
    assert entropy(SKEWED, bits) == pytest.approx(0.81127812445913286391, abs=1e-14)


def test_shannon_uniform_closed_form():
    for k in range(2, 11):
        for constant in (1.0, 1.0 / math.log(2.0)):
            fam = EntropyFamily(FamilyTag.SHANNON, shannon_constant=constant)
            value = entropy(DiscreteDistribution.uniform(k), fam)
            assert abs(value - constant * math.log(k)) < 1e-14


def test_alpha_one_dispatch_is_exact_limit():
    # renyi/tsallis/mathai_m/mathai_m_star tend to the natural-log Shannon
    # value; havrda_charvat tends to Shannon / ln 2 because its divisor
    # 2^(1-a) - 1 shrinks like (1-a) ln 2.  The a == 1 dispatch must return
    # exactly those limits so the value is continuous in the order.
    shannon_value = entropy(TRIPLE, SHANNON)
    for family in ALPHA_FAMILIES:
        target = shannon_value * shannon_limit_constant(family)
        assert entropy(TRIPLE, family, AlphaOrder(1.0)) == target
    assert shannon_limit_constant(HAVRDA_CHARVAT) == 1.0 / math.log(2.0)
    assert shannon_limit_constant(TSALLIS) == 1.0


def test_limit_approach_and_monotone_error():
    shannon_value = entropy(TRIPLE, SHANNON)
    for family in ALPHA_FAMILIES:
        target = shannon_value * shannon_limit_constant(family)
        for side in (+1.0, -1.0):
            errors = []
            for h in (1e-2, 1e-3, 1e-4):
                value = entropy(TRIPLE, family, AlphaOrder(1.0 + side * h))
                errors.append(abs(value - target))
            assert errors[2] <= 1e-3
            assert errors[0] >= errors[1] - 1e-12
            assert errors[1] >= errors[2] - 1e-12


# ---------------------------------------------------------------- validation

def test_order_domains():
    with pytest.raises(InvalidOrder):
        validate_order(RENYI, AlphaOrder(0.0))
    with pytest.raises(InvalidOrder):
        validate_order(TSALLIS, AlphaOrder(-0.5))
    with pytest.raises(InvalidOrder):
        validate_order(MATHAI_M, AlphaOrder(2.0))
    with pytest.raises(InvalidOrder):
        validate_order(SHANNON, AlphaOrder(1.5))
    validate_order(MATHAI_M, AlphaOrder(-5.0))
    validate_order(HAVRDA_CHARVAT, AlphaOrder(3.0))


def test_distribution_validation():
    with pytest.raises(InvalidDistribution):
        DiscreteDistribution(np.array([0.5, 0.6]))
    with pytest.raises(InvalidDistribution):
        DiscreteDistribution(np.array([0.5, 0.5, 0.0]))  # strict policy
    with pytest.raises(InvalidDistribution):
        DiscreteDistribution(np.array([1.2, -0.2]), ZeroPolicy.ZERO_INDIFFERENT)
    ok = DiscreteDistribution(np.array([0.5, 0.5, 0.0]), ZeroPolicy.ZERO_INDIFFERENT)
    assert len(ok) == 3


def test_tiny_sum_deviation_is_renormalized():
    probs = np.array([0.3, 0.7]) * (1.0 + 2e-10)
    dist = DiscreteDistribution(probs)
    assert math.fsum(dist.probs.tolist()) == pytest.approx(1.0, abs=1e-15)


def test_zero_indifference():
    base = DiscreteDistribution(np.array([0.4, 0.6]))
    padded = DiscreteDistribution(np.array([0.4, 0.6, 0.0, 0.0]),
                                  ZeroPolicy.ZERO_INDIFFERENT)
    for family in ALPHA_FAMILIES + (SHANNON,):
        for alpha in (0.5, 1.0, 1.5):
            if family.tag in (FamilyTag.SHANNON,) and alpha != 1.0:
                continue
            a = AlphaOrder(alpha)
            assert entropy(base, family, a) == pytest.approx(
                entropy(padded, family, a), abs=1e-15)


# ---------------------------------------------------------------- composition

def test_composition_coefficient_values():
    half = AlphaOrder(0.5)
    assert composition_coefficient(RENYI, half) == 0.0
    assert composition_coefficient(MATHAI_M_STAR, half) == 0.0
    assert abs(composition_coefficient(HAVRDA_CHARVAT, half)
               - 0.4142135623730950488) < 1e-15
    assert composition_coefficient(TSALLIS, half) == 0.5
    assert composition_coefficient(MATHAI_M, half) == -0.5
    assert abs(composition_coefficient(HAVRDA_CHARVAT, AlphaOrder(1.5))
               + 0.2928932188134524756) < 1e-15


def test_additive_families_have_zero_cross_term():
    order = AlphaOrder(1.7)
    res = composition_residual_bivariate(HALF_HALF, TRIPLE, RENYI, order)
    assert abs(res) < 1e-13


def _random_dist(rng, size):
    w = rng.random(size) + 1e-3
    return DiscreteDistribution(w / w.sum())


def test_composition_residuals_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = _random_dist(rng, rng.integers(2, 7))
        q = _random_dist(rng, rng.integers(2, 7))
        r = _random_dist(rng, rng.integers(2, 7))
        for family in ALPHA_FAMILIES:
            alpha = _sample_alpha(rng, family)
            order = AlphaOrder(alpha)
            assert abs(composition_residual_bivariate(p, q, family, order)) <= 1e-12
            assert abs(composition_residual_trivariate(p, q, r, family, order)) <= 1e-10


def _sample_alpha(rng, family):
    lo_band = rng.uniform(0.1, 0.9)
    hi_band = rng.uniform(1.1, 1.9)
    alpha = lo_band if rng.random() < 0.5 else hi_band
    if family.tag in (FamilyTag.MATHAI_M, FamilyTag.MATHAI_M_STAR) and rng.random() < 0.3:
        alpha = rng.uniform(-1.0, 0.9)
    return float(alpha)


def test_product_distribution_is_outer_product():
    joint = product_distribution(HALF_HALF, SKEWED)
    assert np.allclose(np.sort(joint.probs), np.sort(
        np.outer([0.5, 0.5], [0.25, 0.75]).ravel()))


# ---------------------------------------------------------------- recursivity

def test_recursivity_weight_table():
    order = AlphaOrder(1.5)
    x = 0.3
    assert recursivity_weight(SHANNON, AlphaOrder(1.0), x) == pytest.approx(0.7)
    assert recursivity_weight(HAVRDA_CHARVAT, order, x) == pytest.approx(0.7 ** 1.5)
    assert recursivity_weight(TSALLIS, order, x) == pytest.approx(0.7 ** 1.5)
    assert recursivity_weight(MATHAI_M, order, x) == pytest.approx(0.7 ** 0.5)
    with pytest.raises(UnsupportedFamily):
        recursivity_weight(RENYI, order, x)
    with pytest.raises(UnsupportedFamily):
        recursivity_weight(MATHAI_M_STAR, order, x)
    with pytest.raises(DomainError):
        recursivity_weight(TSALLIS, order, 1.0)


def test_functional_equation_hand_case():
    # Tsallis alpha=2, x=0.2, y=0.5: both sides equal 0.62 exactly.
    res = functional_equation_residual(TSALLIS, AlphaOrder(2.0), 0.2, 0.5)
    assert abs(res) < 1e-15


def test_functional_equation_residual_small_everywhere():
    xs = [0.0, 0.1, 0.25, 0.4, 0.6]
    pairs = [(x, y) for x in xs for y in xs if x + y <= 1.0 and x < 1 and y < 1]
    cases = [
        (SHANNON, AlphaOrder(1.0)),
        (HAVRDA_CHARVAT, AlphaOrder(0.6)),
        (TSALLIS, AlphaOrder(1.8)),
        (MATHAI_M, AlphaOrder(0.4)),
        (MATHAI_M, AlphaOrder(-0.7)),
    ]
    for family, order in cases:
        for x, y in pairs:
            assert abs(functional_equation_residual(family, order, x, y)) <= 1e-12


def test_functional_equation_boundary():
    for family, order in ((TSALLIS, AlphaOrder(1.5)), (SHANNON, AlphaOrder(1.0))):
        assert abs(functional_equation_residual(family, order, 0.0, 0.37)) <= 1e-13


def test_printed_variant_is_not_an_identity():
    res = functional_equation_residual(TSALLIS, AlphaOrder(2.0), 0.2, 0.5,
                                       as_printed=True)
    assert abs(res) > 1e-3


def test_functional_equation_domain_checks():
    with pytest.raises(DomainError):
        functional_equation_residual(TSALLIS, AlphaOrder(1.5), 0.7, 0.5)
    with pytest.raises(DomainError):
        functional_equation_residual(TSALLIS, AlphaOrder(1.5), -0.1, 0.5)


def test_shannon_recursivity_identity():
    p = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
    q = DiscreteDistribution(np.array([0.25, 0.25, 0.5]))
    assert abs(shannon_recursivity_residual(p, q)) <= 1e-12
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = _random_dist(rng, rng.integers(2, 8))
        q = _random_dist(rng, rng.integers(2, 8))
        assert abs(shannon_recursivity_residual(p, q)) <= 1e-12


# ---------------------------------------------------------------- properties

@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6),
       st.sampled_from([0.3, 0.7, 1.0, 1.4, 1.9]))
def test_permutation_symmetry(weights, alpha):
    w = np.asarray(weights)
    dist = DiscreteDistribution(w / w.sum())
    perm = DiscreteDistribution(dist.probs[::-1].copy())
    for family in ALPHA_FAMILIES:
        order = AlphaOrder(alpha)
        assert entropy(dist, family, order) == pytest.approx(
            entropy(perm, family, order), abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sampled_from([0.4, 0.8, 1.3, 1.9]))
def test_uniform_maximizes(k, alpha):
    rng = np.random.default_rng(k * 1000 + int(alpha * 10))
    uniform = DiscreteDistribution.uniform(k)
    other = _random_dist(rng, k)
    for family in ALPHA_FAMILIES:
        order = AlphaOrder(alpha)
        assert entropy(uniform, family, order) >= entropy(other, family, order) - 1e-12


def test_power_sum_map_checks_its_order():
    # alpha = 1 is the Shannon limit, not a power-statistic value, and an
    # order outside the family's domain is no order at all.
    with pytest.raises(InvalidOrder):
        entropy_from_power_sum(TSALLIS, AlphaOrder(1.0), 0.5)
    with pytest.raises(InvalidOrder):
        entropy_from_power_sum(MATHAI_M, AlphaOrder(2.5), 0.3)
    with pytest.raises(InvalidOrder):
        entropy_from_power_sum(SHANNON, AlphaOrder(1.0), 0.5)


@pytest.mark.parametrize("build,error,match", [
    (lambda: AlphaOrder(math.nan), InvalidOrder, "finite"),
    (lambda: EntropyFamily(FamilyTag.SHANNON, 0.0), DomainError, "shannon_constant"),
    (lambda: DiscreteDistribution(np.array([])), InvalidDistribution, "at least one"),
    (lambda: DiscreteDistribution(np.array([0.5, math.nan])), InvalidDistribution,
     "finite"),
    (lambda: DiscreteDistribution.uniform(0), InvalidDistribution, "k >= 1"),
], ids=["order_nan", "shannon_constant", "empty", "nan_entry", "uniform_zero"])
def test_typed_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()
