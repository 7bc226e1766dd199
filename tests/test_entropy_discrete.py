"""Discrete entropy families: fixed values, limits, and exact identities.

Numeric fixtures were frozen from a 50-digit mpmath oracle evaluating the
defining power sums independently of the library code.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    _BLOCK,
    _sum,
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
    with pytest.raises(UnsupportedFamily, match="^bogus$"):
        validate_order(EntropyFamily("bogus"), AlphaOrder(1.5))
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
    # entries whose sum overflows the float range, below and above the
    # length at which the sum stops being one fsum
    (lambda: DiscreteDistribution(np.array([1e308, 1e308])), InvalidDistribution,
     "exceeds 1"),
    (lambda: DiscreteDistribution(np.full(600, 1e308)), InvalidDistribution,
     "exceeds 1"),
    (lambda: power_exponent(SHANNON, AlphaOrder(1.0)), UnsupportedFamily,
     "not a power-statistic family"),
], ids=["order_nan", "shannon_constant", "empty", "nan_entry", "uniform_zero",
        "overflowing_sum", "overflowing_long_sum", "shannon_power_exponent"])
def test_typed_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


# ------------------------------------------------------ correctly rounded sums

@settings(max_examples=60, deadline=None)
@given(st.integers(1_500, 100_000), st.integers(0, 2 ** 32 - 1), st.booleans())
@example(2_047, 1, True)
@example(2_048, 2, True)
@example(2_049, 3, False)
@example(511, 4, True)    # the fsum threshold, 512, and either side of it
@example(512, 5, False)
@example(513, 6, True)
@example(2 ** 15 - 1, 7, True)  # around one and two extraction blocks
@example(2 ** 15, 8, False)
@example(2 ** 15 + 1, 9, True)
@example(2 * 2 ** 15 + 1, 10, True)
def test_sum_equals_fsum_bit_for_bit(n, seed, mixed_signs):
    values = _wide_range(n, seed, mixed_signs)
    assert _sum(values) == math.fsum(values.tolist())


def _wide_range(n, seed, mixed_signs):
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-20.0, 20.0, n)
    if mixed_signs:
        values *= rng.choice([-1.0, 1.0], n)
    return values


@pytest.fixture
def fsum_lengths(monkeypatch):
    """Patch math.fsum to record the length of every list it sums."""
    fsum = math.fsum
    lengths = []

    def counting_fsum(xs):
        xs = list(xs)
        lengths.append(len(xs))
        return fsum(xs)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    return lengths


def _tie():
    # a tie: 1 + 2^-53 lies halfway between 1 and its successor, so the
    # interval the bound leaves around it straddles the tie at both levels
    values = np.zeros(5_000)
    values[0], values[4_096] = 1.0, 2.0 ** -53
    return values


def _tie_up():
    values = _tie()
    values[0] = 1.0 + 2.0 ** -52
    return values


def _cancelling_errors():
    # +-1e16 and +-1 cancel exactly around the true sum 2^-60, which the
    # bound at either level (about 2^-12, then 2^-51) swamps: the interval
    # holds sums of both signs
    values = np.zeros(5_000)
    values[[0, 4_096, 1, 4_097, 2]] = 1e16, 1.0, -1e16, -1.0, 2.0 ** -60
    return values


def _rounded_error_sum():
    # 1 + 2^-53 + 2^-200 rounds up, but the float low sum of the residuals
    # (2^-53, +-2^-140 and 2^-200 at the first level) drops the 2^-200 and
    # leaves the tie, which rounds down: only the bound on that sum sends
    # this to the fallback
    values = np.zeros(5_000)
    values[[0, 4_096, 1, 4_097, 2]] = (1.0, 2.0 ** -53, 2.0 ** -140, 2.0 ** -200,
                                       -2.0 ** -140)
    return values


@pytest.mark.parametrize("build,expected", [
    (_tie, 1.0),
    (_tie_up, 1.0 + 2.0 ** -51),
    (_cancelling_errors, 2.0 ** -60),
    (_rounded_error_sum, 1.0 + 2.0 ** -52),
], ids=["tie_to_even_down", "tie_to_even_up", "cancelling_errors", "rounded_error_sum"])
def test_sum_falls_back_to_fsum_when_the_certificate_fails(build, expected,
                                                           fsum_lengths):
    values = build()
    assert math.fsum(values.tolist()) == expected
    fsum_lengths.clear()
    assert _sum(values) == expected
    assert fsum_lengths[-1] == values.size


def test_sum_certifies_without_the_full_fsum(fsum_lengths):
    values = _random_dist(np.random.default_rng(3), 50_000).probs
    expected = math.fsum(values.tolist())
    fsum_lengths.clear()
    assert _sum(values) == expected
    assert max(fsum_lengths) < 1_100


def test_sum_certifies_at_the_second_level_without_the_full_fsum(fsum_lengths):
    # for this seed the first level's interval straddles a rounding
    # boundary, and the second level settles it: more fsum calls than the
    # first level's two, none of them over the whole vector
    values = _wide_range(50_000, 29, True)
    expected = math.fsum(values.tolist())
    fsum_lengths.clear()
    assert _sum(values) == expected
    assert len(fsum_lengths) > 2
    assert max(fsum_lengths) < values.size


@pytest.mark.parametrize("top", [2.0 ** -900, 2.0 ** -1000, 5e-324])
def test_sum_of_tiny_entries_is_fsum(top):
    # max|x| at or below 2^-900, subnormal entries included
    rng = np.random.default_rng(7)
    values = top * rng.uniform(-1.0, 1.0, 4_000)
    values[:100] = rng.choice([-5e-324, 0.0, 5e-324, 2.0 ** -1060], 100)
    values[100] = top
    assert _sum(values) == math.fsum(values.tolist())


@pytest.mark.parametrize("head", [
    [math.inf], [math.nan], [math.inf, -math.inf], [1e308, 1e308, -1e308],
], ids=["inf", "nan", "inf_minus_inf", "intermediate_overflow"])
def test_sum_of_non_finite_or_huge_entries_is_fsum(head):
    values = np.concatenate((head, np.zeros(3_000)))
    try:
        expected = repr(math.fsum(values.tolist()))
    except (OverflowError, ValueError) as exc:
        expected = repr(exc)
    try:
        got = repr(_sum(values))
    except (OverflowError, ValueError) as exc:
        got = repr(exc)
    assert got == expected


def test_sparse_total_certifies_block_by_block(fsum_lengths):
    # whole blocks of zeros and a block of entries below 2^-900 around the
    # one that holds the mass: each block is split at its own power of two,
    # so none of them sends the total to the fsum of the whole vector
    rng = np.random.default_rng(12)
    values = np.zeros(5 * _BLOCK)
    mass = rng.random(_BLOCK) + 0.01
    values[_BLOCK:2 * _BLOCK] = mass / mass.sum()
    values[3 * _BLOCK:4 * _BLOCK] = 2.0 ** -950 * rng.random(_BLOCK)
    expected = math.fsum(values.tolist())
    fsum_lengths.clear()
    assert _sum(values) == expected
    dist = DiscreteDistribution(values, ZeroPolicy.ZERO_INDIFFERENT)
    assert np.array_equal(dist.probs, values / expected)
    assert max(fsum_lengths) < _BLOCK


@pytest.mark.parametrize("policy", list(ZeroPolicy), ids=lambda p: p.value)
def test_nan_in_a_later_block_is_named_before_an_earlier_negative_entry(policy):
    values = np.full(3 * _BLOCK, 1.0 / (3 * _BLOCK))
    values[5] = -1e-3
    values[-1] = math.nan
    with pytest.raises(InvalidDistribution, match="probabilities must be finite"):
        DiscreteDistribution(values, policy)


@pytest.mark.parametrize("family,alpha", [(SHANNON, 1.0), (TSALLIS, 1.7)],
                         ids=["shannon", "tsallis"])
def test_long_entropy_builds_no_full_length_temporary(family, alpha):
    # the terms are formed block by block: the traced peak stays far below
    # the 8 MiB a term vector of 2^20 entries would take
    raw = np.random.default_rng(13).random(2 ** 20) + 0.01
    dist = DiscreteDistribution(raw / raw.sum())
    tracemalloc.start()
    try:
        entropy(dist, family, AlphaOrder(alpha))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("family,alpha", [(SHANNON, 1.0), (TSALLIS, 1.7),
                                          (MATHAI_M, 0.4)],
                         ids=["shannon", "tsallis", "mathai_m"])
def test_zeros_are_dropped_block_by_block(family, alpha):
    # every seventh of 2^20 entries is zero: the terms of the positive ones
    # are summed with no mask or compressed copy of the whole vector, and the
    # value is the correctly rounded sum over the positive entries alone
    raw = np.random.default_rng(14).random(2 ** 20) + 0.01
    raw[::7] = 0.0
    dist = DiscreteDistribution(raw / raw.sum(), ZeroPolicy.ZERO_INDIFFERENT)
    p = dist.probs[dist.probs > 0.0]
    order = AlphaOrder(alpha)
    if alpha == 1.0:
        expected = -math.fsum((np.log(p) * p).tolist())
    else:
        c = power_exponent(family, order)
        expected = entropy_from_power_sum(
            family, order, math.fsum(np.exp(np.log(p) * c).tolist()))
    tracemalloc.start()
    try:
        got = entropy(dist, family, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 2 ** 20


def test_million_entry_entropies_match_the_fsum_route():
    raw = np.random.default_rng(2024).random(10 ** 6) + 0.01
    raw /= raw.sum()
    dist = DiscreteDistribution(raw)
    p = raw / math.fsum(raw.tolist())
    assert np.array_equal(dist.probs, p)
    shannon = -math.fsum((p * np.log(p)).tolist())
    for family, alpha in [(SHANNON, 1.0), (HAVRDA_CHARVAT, 1.0), (RENYI, 0.6),
                          (HAVRDA_CHARVAT, 1.7), (TSALLIS, 2.5), (MATHAI_M, 0.4),
                          (MATHAI_M_STAR, 1.3)]:
        order = AlphaOrder(alpha)
        if alpha == 1.0:
            expected = shannon_limit_constant(family) * shannon
        else:
            c = power_exponent(family, order)
            expected = entropy_from_power_sum(
                family, order, math.fsum(np.exp(c * np.log(p)).tolist()))
        assert entropy(dist, family, order) == expected
