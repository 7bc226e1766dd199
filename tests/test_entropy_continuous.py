"""Continuous entropy: closed-form values, limits, product composition."""
from __future__ import annotations

import math

import numpy as np
import pytest

from pathway_entropy.divergence import (
    InaccuracyInput,
    kerridge_inaccuracy,
    m_alpha_expectation_residual,
)
from pathway_entropy.entropy_continuous import (
    DensitySpec,
    composition_residual_continuous,
    continuous_entropy,
    density_power_integral,
    exponential_density,
    gaussian_density,
    uniform_density,
)
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
    entropy,
    entropy_from_power_sum,
    shannon_limit_constant,
)
from pathway_entropy.errors import DomainError, InvalidDistribution, NonFinite
from pathway_entropy.quadrature import QuadratureSpec

EXPO = exponential_density(1.0)
GAUSS = gaussian_density()
UNIT = uniform_density(0.0, 1.0)

# closed forms: exponential(1) power integral of f^c is 1/c, uniform[0,L]
# gives L^(1-c), standard gaussian gives (2 pi)^((1-c)/2) / sqrt(c); the
# family values below were frozen from those forms at 50-digit precision.
FROZEN = [
    (EXPO, RENYI, 1.5, 0.810930216216328763956),
    (EXPO, HAVRDA_CHARVAT, 1.5, 1.138071187457698349601),
    (EXPO, TSALLIS, 1.5, 2.0 / 3.0),
    (EXPO, MATHAI_M, 1.5, 2.0),
    (EXPO, MATHAI_M_STAR, 1.5, 1.386294361119890618834),
    (EXPO, RENYI, 0.5, 1.386294361119890618834),
    (EXPO, HAVRDA_CHARVAT, 0.5, 2.414213562373095048802),
    (EXPO, TSALLIS, 0.5, 2.0),
    (EXPO, MATHAI_M, 0.5, 2.0 / 3.0),
    (EXPO, MATHAI_M_STAR, 0.5, 0.810930216216328763956),
    (GAUSS, RENYI, 1.5, 1.324403641312837123758),
    (GAUSS, TSALLIS, 1.5, 0.9685708550411777601206),
    (GAUSS, MATHAI_M, 1.5, 2.478060539680990514168),
]


@pytest.mark.parametrize("density,family,alpha,expected", FROZEN)
def test_frozen_continuous_values(density, family, alpha, expected):
    value = continuous_entropy(density, family, AlphaOrder(alpha))
    assert value == pytest.approx(expected, abs=1e-9)


def test_unit_uniform_vanishes_for_all_alpha_families():
    # integral of 1^c is 1 over [0,1], so every power-family value is 0
    for family in ALPHA_FAMILIES:
        value = continuous_entropy(UNIT, family, AlphaOrder(1.5))
        assert abs(value) < 1e-12


def test_shannon_exponential_and_gaussian():
    assert continuous_entropy(EXPO, SHANNON, AlphaOrder(1.0)) == pytest.approx(1.0, abs=1e-9)
    expected = 0.5 * math.log(2.0 * math.pi * math.e)
    assert continuous_entropy(GAUSS, SHANNON, AlphaOrder(1.0)) == pytest.approx(expected, abs=1e-9)


def test_shannon_uniform_scale():
    for length in (0.5, 1.0, 2.0):
        density = uniform_density(0.0, length)
        value = continuous_entropy(density, SHANNON, AlphaOrder(1.0))
        assert value == pytest.approx(math.log(length), abs=1e-10)


def test_shannon_constant_applied():
    bits = EntropyFamily(FamilyTag.SHANNON, shannon_constant=2.5)
    assert continuous_entropy(EXPO, bits, AlphaOrder(1.0)) == pytest.approx(2.5, abs=1e-8)


def test_alpha_one_limit_per_family():
    # exponential(1) has Shannon value exactly 1; near the order-1 point each
    # family sits within 1e-2 of its own limit (Shannon/ln 2 for the
    # binary-normalized havrda_charvat, Shannon itself for the rest)
    for family in ALPHA_FAMILIES:
        target = shannon_limit_constant(family)
        exact = continuous_entropy(EXPO, family, AlphaOrder(1.0))
        assert exact == pytest.approx(target, abs=1e-8)
        for alpha in (1.0 - 1e-3, 1.0 + 1e-3):
            value = continuous_entropy(EXPO, family, AlphaOrder(alpha))
            assert abs(value - target) < 1e-2


def test_power_integral_matches_closed_form():
    assert density_power_integral(EXPO, 2.0) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(DomainError):
        density_power_integral(EXPO, 0.0)


# ------------------------------------------------------------- composition

def test_composition_trivial_unit_uniform():
    for family in ALPHA_FAMILIES:
        res = composition_residual_continuous(UNIT, UNIT, family, AlphaOrder(1.5))
        assert abs(res) < 1e-10


def test_composition_with_scalar_valued_pdf():
    # a pdf that returns one float for an array is evaluated node by node
    scalar_unit = DensitySpec(lambda x: 1.0, 0.0, 1.0)
    for family, alpha in ((SHANNON, 1.0), (TSALLIS, 1.5)):
        res = composition_residual_continuous(scalar_unit, EXPO, family, AlphaOrder(alpha))
        assert abs(res) < 1e-6


def test_composition_exponential_uniform_tsallis():
    res = composition_residual_continuous(EXPO, UNIT, TSALLIS, AlphaOrder(1.5))
    assert abs(res) < 1e-6


def test_composition_exponential_pair_mathai():
    res = composition_residual_continuous(EXPO, EXPO, MATHAI_M, AlphaOrder(0.5))
    assert abs(res) < 1e-6


def test_composition_additive_families_and_shannon():
    res = composition_residual_continuous(EXPO, UNIT, RENYI, AlphaOrder(0.5))
    assert abs(res) < 1e-6
    res = composition_residual_continuous(EXPO, UNIT, SHANNON, AlphaOrder(1.0))
    assert abs(res) < 1e-6


# ---------------------------------------------------------------- plumbing

def test_density_spec_validation():
    with pytest.raises(InvalidDistribution):
        DensitySpec(lambda x: x, 1.0, 1.0)
    with pytest.raises(InvalidDistribution):
        uniform_density(2.0, 1.0)
    with pytest.raises(InvalidDistribution):
        exponential_density(0.0)
    with pytest.raises(InvalidDistribution):
        gaussian_density(sd=-1.0)


def test_checked_verifies_mass():
    raw = DensitySpec(lambda x: np.exp(-np.asarray(x, dtype=float)), 0.0, math.inf)
    assert raw.checked() is raw
    double = DensitySpec(lambda x: 2.0 * np.exp(-np.asarray(x, dtype=float)), 0.0, math.inf)
    with pytest.raises(InvalidDistribution):
        double.checked()


def test_negative_roundoff_clamped():
    # pdf that dips a hair below zero at the right edge must not poison logs
    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 1.0 - 1e-17 * x, -1e-18)

    density = DensitySpec(pdf, 0.0, 1.0)
    value = continuous_entropy(density, SHANNON, AlphaOrder(1.0))
    assert abs(value) < 1e-9


def test_quadrature_spec_tolerances_respected():
    loose = QuadratureSpec(0.0, 1.0, rel_tol=1e-6, abs_tol=1e-8)
    value = continuous_entropy(GAUSS, SHANNON, AlphaOrder(1.0), loose)
    assert value == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), abs=1e-5)


def test_discretization_converges_to_continuous_with_log_width():
    # cell masses on a truncated support: the discrete Shannon value exceeds
    # the continuous one by -ln(cell width); the corrected gap shrinks as the
    # grid refines (convergence check, not an identity)
    gaps = []
    for n in (200, 2000):
        edges = np.linspace(0.0, 40.0, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        masses = np.exp(-mids) * width
        masses = masses / masses.sum()
        dist = DiscreteDistribution(masses)
        discrete = entropy(dist, SHANNON)
        gaps.append(abs((discrete + math.log(width)) - 1.0))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-3


def _half_nan(x):
    # NaN on [0, 0.5) and 2 on [0.5, 1]: the finite half alone has unit mass
    return np.where(np.asarray(x, dtype=float) < 0.5, np.nan, 2.0)


@pytest.mark.parametrize("pdf", [_half_nan, lambda x: np.full(np.shape(x), np.nan)],
                         ids=["half_nan", "all_nan"])
def test_nan_density_values_raise_non_finite(pdf):
    f = DensitySpec(pdf, 0.0, 1.0)
    with pytest.raises(NonFinite):
        f.checked()
    for family, alpha in ((SHANNON, 1.0), (TSALLIS, 1.5), (RENYI, 0.5)):
        with pytest.raises(NonFinite):
            continuous_entropy(f, family, AlphaOrder(alpha))
        with pytest.raises(NonFinite):
            composition_residual_continuous(UNIT, f, family, AlphaOrder(alpha))
    with pytest.raises(NonFinite):
        kerridge_inaccuracy(InaccuracyInput(f, UNIT, AlphaOrder(1.5)))
    with pytest.raises(NonFinite):
        m_alpha_expectation_residual(f, AlphaOrder(1.5))


def test_non_positive_power_statistic_is_domain_error():
    for family in ALPHA_FAMILIES:
        for bad in (0.0, -0.25, math.nan):
            with pytest.raises(DomainError, match="power statistic"):
                entropy_from_power_sum(family, AlphaOrder(1.5), bad)
    zero_mass = DensitySpec(lambda x: np.zeros(np.shape(x)), 0.0, 1.0)
    for family in ALPHA_FAMILIES:
        with pytest.raises(DomainError, match="power statistic"):
            continuous_entropy(zero_mass, family, AlphaOrder(1.5))


@pytest.mark.parametrize("family,alpha", [(SHANNON, 1.0), (TSALLIS, 1.5), (RENYI, 0.5)])
def test_joint_side_runs_an_inner_integral_per_outer_node(family, alpha):
    # The joint side must stay an iterated integral (the composition check's
    # second route), not the product of two 1-D integrals: g's pdf is called
    # at least once per node of the outer rule's 8 head panels x 15 nodes.
    calls = []

    def g_pdf(y):
        calls.append(1)
        return GAUSS.pdf(y)

    g = DensitySpec(g_pdf, GAUSS.lower, GAUSS.upper)
    continuous_entropy(g, family, AlphaOrder(alpha))
    one_dim = len(calls)
    calls.clear()
    composition_residual_continuous(EXPO, g, family, AlphaOrder(alpha))
    assert len(calls) - one_dim >= 8 * 15
