"""Inaccuracy measure and the two-route expectation identity."""
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
    exponential_density,
    uniform_density,
)
from pathway_entropy.entropy_discrete import (
    HAVRDA_CHARVAT,
    SHANNON,
    AlphaOrder,
    DiscreteDistribution,
    entropy,
    shannon_limit_constant,
)
from pathway_entropy.errors import DomainError, InvalidOrder
from pathway_entropy.pathway import PathwayParams, as_density_spec


def test_hand_value_discrete():
    inp = InaccuracyInput(DiscreteDistribution(np.array([0.5, 0.5])),
                          DiscreteDistribution(np.array([0.9, 0.1])),
                          AlphaOrder(2.0))
    assert kerridge_inaccuracy(inp) == pytest.approx(1.0, abs=1e-12)


def test_uniform_self_assignment():
    u2 = DiscreteDistribution.uniform(2)
    inp = InaccuracyInput(u2, u2, AlphaOrder(2.0))
    assert kerridge_inaccuracy(inp) == pytest.approx(1.0, abs=1e-12)


def test_self_assignment_is_binary_normalized_entropy():
    dist = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
    for alpha in (0.5, 1.5, 2.0):
        inp = InaccuracyInput(dist, dist, AlphaOrder(alpha))
        expected = entropy(dist, HAVRDA_CHARVAT, AlphaOrder(alpha))
        assert kerridge_inaccuracy(inp) == pytest.approx(expected, abs=1e-12)


def test_self_assignment_order_one_limit():
    # near order 1 the self-term approaches Shannon / ln 2, the limit fixed
    # by the binary divisor
    dist = DiscreteDistribution(np.array([0.2, 0.3, 0.5]))
    target = entropy(dist, SHANNON) * shannon_limit_constant(HAVRDA_CHARVAT)
    for alpha in (1.0 - 1e-3, 1.0 + 1e-3):
        inp = InaccuracyInput(dist, dist, AlphaOrder(alpha))
        assert abs(kerridge_inaccuracy(inp) - target) < 1e-2


def test_continuous_inaccuracy_closed_form():
    # f = e^-x, q = 2 e^-2x, alpha = 2: E_f[q] = 2/3, value (2/3-1)/(-1/2)
    f = exponential_density(1.0)
    q = exponential_density(2.0)
    inp = InaccuracyInput(f, q, AlphaOrder(2.0))
    assert kerridge_inaccuracy(inp) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_asymmetry_observed():
    # alpha = 2 happens to be symmetric (sum f q); 1.5 is not
    f = DiscreteDistribution(np.array([0.5, 0.5]))
    q = DiscreteDistribution(np.array([0.9, 0.1]))
    forward = kerridge_inaccuracy(InaccuracyInput(f, q, AlphaOrder(1.5)))
    backward = kerridge_inaccuracy(InaccuracyInput(q, f, AlphaOrder(1.5)))
    assert abs(forward - backward) > 1e-3


def test_input_validation():
    f = DiscreteDistribution(np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        InaccuracyInput(f, DiscreteDistribution.uniform(3), AlphaOrder(2.0))
    with pytest.raises(DomainError):
        InaccuracyInput(f, exponential_density(1.0), AlphaOrder(2.0))
    with pytest.raises(InvalidOrder):
        InaccuracyInput(f, f, AlphaOrder(1.0))
    with pytest.raises(InvalidOrder):
        InaccuracyInput(f, f, AlphaOrder(-0.5))
    with pytest.raises(DomainError):
        InaccuracyInput(exponential_density(1.0), uniform_density(0.0, 1.0),
                        AlphaOrder(2.0))
    from pathway_entropy.entropy_discrete import ZeroPolicy
    masked = DiscreteDistribution(np.array([0.0, 1.0]), ZeroPolicy.ZERO_INDIFFERENT)
    with pytest.raises(DomainError):
        InaccuracyInput(f, masked, AlphaOrder(2.0))
    # zero mass in f where q is zero is fine
    InaccuracyInput(masked, masked, AlphaOrder(2.0))
    # a density can only be found zero where f has mass while integrating
    half = DensitySpec(lambda x: np.where(np.asarray(x) < 0.5, 2.0, 0.0), 0.0, 1.0)
    with pytest.raises(DomainError, match="assigned density is zero"):
        kerridge_inaccuracy(InaccuracyInput(uniform_density(0.0, 1.0), half,
                                            AlphaOrder(2.0)))


def test_expectation_residual_routes():
    assert m_alpha_expectation_residual(uniform_density(0.0, 1.0),
                                        AlphaOrder(1.5)) <= 1e-12
    assert m_alpha_expectation_residual(exponential_density(1.0),
                                        AlphaOrder(0.5)) <= 1e-10
    type1 = as_density_spec(PathwayParams(alpha=0.5, gamma=1.0, delta=1.0, s=1.0))
    assert m_alpha_expectation_residual(type1, AlphaOrder(0.5)) <= 1e-10


def test_expectation_residual_rejects_order_one():
    with pytest.raises(InvalidOrder):
        m_alpha_expectation_residual(uniform_density(0.0, 1.0), AlphaOrder(1.0))
    with pytest.raises(InvalidOrder):
        m_alpha_expectation_residual(uniform_density(0.0, 1.0), AlphaOrder(2.5))
