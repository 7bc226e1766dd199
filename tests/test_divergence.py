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
    gaussian_density,
    uniform_density,
)
from pathway_entropy.entropy_discrete import (
    HAVRDA_CHARVAT,
    SHANNON,
    AlphaOrder,
    DiscreteDistribution,
    ZeroPolicy,
    entropy,
    entropy_from_power_sum,
    shannon_limit_constant,
)
from pathway_entropy.errors import DomainError, InvalidOrder, NonConvergence, NonFinite
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



def test_long_discrete_inaccuracy_matches_the_fsum_route():
    rng = np.random.default_rng(8)
    f, q = (DiscreteDistribution(w / w.sum())
            for w in (rng.random(50_000) + 0.01, rng.random(50_000) + 0.01))
    order = AlphaOrder(1.7)
    expected = math.fsum((f.probs * q.probs ** (order.alpha - 1.0)).tolist())
    assert kerridge_inaccuracy(InaccuracyInput(f, q, order)) == \
        entropy_from_power_sum(HAVRDA_CHARVAT, order, expected)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 2.0, 3.0])
def test_discrete_inaccuracy_skips_the_entries_without_mass(alpha):
    # f is zero on a whole block and on scattered entries, and q is zero on
    # some of them: those entries add nothing, and q^(alpha-1) is never
    # formed there.  Bit for bit the sum over the masked entries.
    rng = np.random.default_rng(9)
    n = 3 * 2 ** 15 + 17
    fw, qw = rng.random(n) + 0.01, rng.random(n) + 0.01
    fw[2 ** 15:2 ** 16] = 0.0
    fw[rng.random(n) < 0.2] = 0.0
    qw[(fw == 0.0) & (rng.random(n) < 0.5)] = 0.0
    f, q = (DiscreteDistribution(w / w.sum(), ZeroPolicy.ZERO_INDIFFERENT)
            for w in (fw, qw))
    order = AlphaOrder(alpha)
    mask = f.probs > 0.0
    expected = math.fsum((f.probs[mask] * q.probs[mask] ** (alpha - 1.0)).tolist())
    assert kerridge_inaccuracy(InaccuracyInput(f, q, order)) == \
        entropy_from_power_sum(HAVRDA_CHARVAT, order, expected)


def test_continuous_inaccuracy_closed_form():
    # f = e^-x, q = 2 e^-2x, alpha = 2: E_f[q] = 2/3, value (2/3-1)/(-1/2)
    f = exponential_density(1.0)
    q = exponential_density(2.0)
    inp = InaccuracyInput(f, q, AlphaOrder(2.0))
    assert kerridge_inaccuracy(inp) == pytest.approx(2.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("rate", [1.5, 2.5])
def test_continuous_inaccuracy_where_the_assigned_tail_underflows(rate):
    # far in the folded tail e^(-rate x) underflows to 0 while e^-x does
    # not; their logs stay finite, so E_f[q^(1/2)] = sqrt(r) / (1 + r/2)
    inp = InaccuracyInput(exponential_density(1.0), exponential_density(rate),
                          AlphaOrder(1.5))
    expected = (math.sqrt(rate) / (1.0 + rate / 2.0) - 1.0) / (2.0 ** -0.5 - 1.0)
    assert kerridge_inaccuracy(inp) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("bundled, pdf_only", [
    (gaussian_density(),
     DensitySpec(lambda x: np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
                 -math.inf, math.inf)),
    (exponential_density(1.0), DensitySpec(lambda x: np.exp(-x), 0.0, math.inf)),
], ids=["gaussian", "exponential"])
def test_continuous_inaccuracy_against_a_pdf_only_copy(bundled, pdf_only, alpha):
    # far in the folded tail the pdf-only copy underflows to 0 where the
    # bundled log density stays finite; f has no float-range mass there, so
    # those nodes add 0 and either order gives the self-inaccuracy
    own = kerridge_inaccuracy(InaccuracyInput(bundled, bundled, AlphaOrder(alpha)))
    for f, q in ((bundled, pdf_only), (pdf_only, bundled)):
        inp = InaccuracyInput(f, q, AlphaOrder(alpha))
        assert kerridge_inaccuracy(inp) == pytest.approx(own, rel=1e-12)


def test_divergent_continuous_inaccuracy_is_non_finite():
    # q^(-1/2) grows like e^(x^2) and outgrows f = N(0, 1): E_f diverges
    inp = InaccuracyInput(gaussian_density(), gaussian_density(0.0, 0.5),
                          AlphaOrder(0.5))
    with pytest.raises(NonFinite, match=r"E_f\[q\^p\] diverges at p = -0\.5"):
        kerridge_inaccuracy(inp)


@pytest.mark.parametrize("n", [2, 600])
def test_discrete_inaccuracy_with_an_overflowing_term_is_non_finite(n):
    # (1e-320)^(-0.99) is past the float range, as the continuous route's
    # overflowing terms are; (1e-320)^(-0.5) is not
    f = DiscreteDistribution.uniform(n)
    q = DiscreteDistribution(np.append(1e-320, np.full(n - 1, (1.0 - 1e-320) / (n - 1))))
    with pytest.raises(NonFinite, match=r"E_f\[q\^p\] diverges at p = -0\.99"):
        kerridge_inaccuracy(InaccuracyInput(f, q, AlphaOrder(0.01)))
    if n == 2:
        value = kerridge_inaccuracy(InaccuracyInput(f, q, AlphaOrder(0.5)))
        assert value == 1.2071135004922894e+160


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


def test_continuous_inaccuracy_never_evaluates_the_assigned_density_at_an_end():
    # q = 6x(1-x) vanishes at both ends of [0, 1]; a node that refinement
    # towards 1 rounds onto 1.0 would read q = 0 as a zero density where f
    # has mass.  E_f[q^(-1/2)] = pi/sqrt(6) is finite, so the integral either
    # converges to it or stops at the float spacing.
    f = DensitySpec(lambda x: np.ones_like(x), 0.0, 1.0)
    q = DensitySpec(lambda x: 6.0 * x * (1.0 - x), 0.0, 1.0)
    expected = (math.pi / math.sqrt(6.0) - 1.0) / (2.0 ** 0.5 - 1.0)
    try:
        value = kerridge_inaccuracy(InaccuracyInput(f, q, AlphaOrder(0.5)))
    except NonConvergence as exc:
        assert "float spacing" in str(exc)
    else:
        assert value == pytest.approx(expected, rel=1e-8)
