"""Continuous entropy: closed-form values, limits, product composition."""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from pathway_entropy import entropy_continuous
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
    _joint,
    _log_values,
    _power,
    _shannon,
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
from pathway_entropy.pathway import PathwayParams, as_density_spec
from pathway_entropy.quadrature import QuadratureSpec, integrate

EXPO = exponential_density(1.0)
GAUSS = gaussian_density()
UNIT = uniform_density(0.0, 1.0)


def _quadrature_only(f: DensitySpec) -> DensitySpec:
    """f without its closed forms: every statistic of it is integrated."""
    return dataclasses.replace(f, shannon=None, power_integral=None)

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


@pytest.mark.parametrize("density,family,alpha,expected", FROZEN)
def test_frozen_continuous_values_by_quadrature(density, family, alpha, expected):
    # the same frozen values through the quadrature route, which the closed
    # forms of the bundled densities otherwise bypass
    value = continuous_entropy(_quadrature_only(density), family, AlphaOrder(alpha))
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


@pytest.mark.parametrize("g", [DensitySpec(lambda y: 1.0, 0.0, 1.0),
                               DensitySpec(lambda y: math.exp(-y), 0.0, math.inf)],
                         ids=["constant", "math_exp"])
def test_composition_with_scalar_valued_inner_pdf(g):
    # g is the joint side's inner density.  f = (1 + x)^-2 is positive at all
    # 120 head nodes, so the first inner batch has as many rows as nodes: a
    # single float of g, not adapted to one value per node, would pass for
    # one row of 120 values (f^1.5 is a polynomial in the folded variable,
    # so that row converges at once, to a wrong value).
    f = DensitySpec(lambda x: (1.0 + np.asarray(x, dtype=float)) ** -2, 0.0, math.inf)
    for family, alpha in ((SHANNON, 1.0), (TSALLIS, 1.5)):
        res = composition_residual_continuous(f, g, family, AlphaOrder(alpha))
        assert abs(res) < 1e-6


@pytest.mark.parametrize("pdf", [lambda x: np.exp(-np.asarray(x, dtype=float)),
                                 lambda x: math.exp(-x),
                                 lambda x: 0.5],
                         ids=["vectorized", "scalar_only", "constant"])
def test_values_gives_one_float_per_node(pdf):
    x = np.linspace(0.0, 2.0, 7)
    logs = _log_values(DensitySpec(pdf, 0.0, math.inf), x)
    assert logs.dtype == float and logs.shape == x.shape
    assert logs.tolist() == pytest.approx([math.log(pdf(float(t))) for t in x], rel=1e-15)


@pytest.mark.parametrize("family,alpha", [(SHANNON, 1.0), (TSALLIS, 1.5)])
def test_scalar_only_outer_pdf_keeps_the_composition_batched(family, alpha, monkeypatch):
    # A pdf that rejects arrays is looped over each node batch inside
    # _log_values, so the outer integrand stays vectorized and each outer sweep
    # runs one inner integral, as for its vectorized twin (same values).
    calls = []
    real = entropy_continuous.integrate

    def counting(integrand, spec):
        calls.append(spec)
        return real(integrand, spec)

    monkeypatch.setattr(entropy_continuous, "integrate", counting)

    def run(pdf):
        calls.clear()
        f = DensitySpec(pdf, 0.0, math.inf)
        return composition_residual_continuous(f, GAUSS, family, AlphaOrder(alpha)), len(calls)

    scalar, scalar_calls = run(lambda x: math.exp(-x))
    twin, twin_calls = run(lambda x: np.array([math.exp(-v) for v in x]))
    assert scalar_calls == twin_calls <= 8
    assert scalar == twin and abs(scalar) < 1e-10


# one pathway density in each alpha regime: compact support, alpha = 1, and
# a power-law tail
PATHWAY_FACTORS = [PathwayParams(0.5, 2.0, 1.5, 1.0, 1.0),
                   PathwayParams(1.0, 1.5, 2.0, 0.8, 1.0),
                   PathwayParams(1.4, 2.0, 1.5, 1.0, 2.5)]


@pytest.mark.parametrize("params", PATHWAY_FACTORS, ids=["below_one", "at_one", "above_one"])
@pytest.mark.parametrize("g", [EXPO, GAUSS], ids=["exponential", "gaussian"])
def test_composition_pathway_pairs_tight(params, g):
    # the inner integrals share panels, yet each row still meets its own
    # tolerance: the two routes agree far below the 1e-6 working contract
    f = as_density_spec(params)
    for family, alpha in ((SHANNON, 1.0), (TSALLIS, 1.5), (MATHAI_M, 0.5), (RENYI, 2.0)):
        res = composition_residual_continuous(f, g, family, AlphaOrder(alpha))
        assert abs(res) < 1e-10


def _joint_per_node(f, g, term):
    # reference: one scalar inner integral at each outer node
    def outer(x):
        return np.array([integrate(lambda y: term(lx + _log_values(g, y)), g.quadrature_spec())
                         if lx > -math.inf else 0.0 for lx in _log_values(f, x)])

    return integrate(outer, f.quadrature_spec())


@pytest.mark.parametrize("f,g", [(EXPO, GAUSS),
                                 (as_density_spec(PATHWAY_FACTORS[2]), EXPO)],
                         ids=["exponential_gaussian", "pathway_exponential"])
def test_joint_side_matches_per_node_inner_integrals(f, g):
    # shared inner panels change only rounding and over-resolution: both
    # routes are within the 1e-10 relative tolerance of the same integral
    for term in (_shannon, _power(0.5), _power(1.5)):
        assert _joint(f, g, None, term) == pytest.approx(
            _joint_per_node(f, g, term), rel=2e-10)


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
    # the spec sets the tolerances of quadrature only: set the closed forms aside
    loose = QuadratureSpec(0.0, 1.0, rel_tol=1e-6, abs_tol=1e-8)
    value = continuous_entropy(_quadrature_only(GAUSS), SHANNON, AlphaOrder(1.0), loose)
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
    # the assigned density goes through the same policy as the true one
    with pytest.raises(NonFinite, match="density returned NaN"):
        kerridge_inaccuracy(InaccuracyInput(UNIT, f, AlphaOrder(1.5)))
    with pytest.raises(NonFinite):
        m_alpha_expectation_residual(f, AlphaOrder(1.5))


# r = gamma/delta = 0.0063: the density passes the float range near x = 0.
# Under warnings as errors (as pytest runs) the overflow used to send the
# integrand node by node, and the log-density then failed on a float.  The
# quadrature rows keep that path; the closed power integral diverges at the
# head, since c(gamma-1)+1 < 0 at c = 2.
_SLOW_HEAD = PathwayParams(1.0, 0.011753189300355899, 1.8526943481655047,
                           2.0966220830130656e-05, 0.050218806231499644)


@pytest.mark.parametrize("density,family,alpha", [
    (_quadrature_only(as_density_spec(_SLOW_HEAD)), SHANNON, 1.0),
    (as_density_spec(_SLOW_HEAD), TSALLIS, 2.0),
    (_quadrature_only(as_density_spec(_SLOW_HEAD)), TSALLIS, 2.0),
], ids=["shannon", "power", "power_quadrature"])
def test_overflowing_term_raises_non_finite_under_warnings_as_errors(density, family, alpha):
    with pytest.raises(NonFinite):
        continuous_entropy(density, family, AlphaOrder(alpha))


@pytest.mark.parametrize("params,expected", [
    (_SLOW_HEAD, -72.5101350056280986954366639166),
    (PathwayParams(1.5, 2.0, 1.0, 1.0, 1.2), 6.00308251041501923952898705014),
], ids=["slow_head", "slow_tail"])
def test_slow_shannon_entropies_come_from_their_closed_forms(params, expected):
    # Quadrature in x raises on both: the slow head holds 2.2e-4 of its mass
    # below x = 1e-308, and the slow tail decays like x^-1.4.  Frozen from
    # 40-digit mpmath quadrature of -h ln f over v = ln x, h(v) = f(e^v) e^v,
    # at the binary values of the parameters.
    value = continuous_entropy(as_density_spec(params), SHANNON, AlphaOrder(1.0))
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("f,family,alpha,match", [
    (exponential_density(10.0), TSALLIS, 400.0, "outside the float range"),
    (exponential_density(1e-10), RENYI, 40.0, "outside the float range"),
    (gaussian_density(0.0, 1e-3), HAVRDA_CHARVAT, 200.0, "outside the float range"),
    (uniform_density(0.0, 1e-300), TSALLIS, 4.0, "outside the float range"),
    (as_density_spec(PathwayParams(1.5, 2.0, 1.0, 1.0, 1.2)), RENYI, 0.5,
     "diverges in the power tail"),
    (as_density_spec(PathwayParams(0.5, 0.5, 1.0, 1.0, 1.0)), MATHAI_M, -1.0,
     "diverges at the head"),
    (as_density_spec(PathwayParams(1.0, 1e-310, 1.0, 1.0, 1.0)), SHANNON, 1.0,
     "Shannon entropy -inf is outside the float range"),
    (as_density_spec(PathwayParams(0.5, 2.0, 1.0, 1.0, 100.0)), TSALLIS, 1e307,
     "needs gamma' = 1e\\+307, beta' = inf"),
    (as_density_spec(PathwayParams(1.0, 2.0, 1.0, 1.0, 1e-10)), RENYI, 1e-320,
     "beta' = 0.0"),
    (as_density_spec(PathwayParams(0.5, 1.0, 1.0, 1.0, 1.0)), TSALLIS, 1e307,
     "ln Gamma overflows for the kernel g\\^p"),
], ids=["exponential_overflow", "exponential_underflow", "gaussian_overflow",
        "uniform_overflow", "pathway_tail", "pathway_head", "pathway_shannon",
        "pathway_beta_overflow", "pathway_beta_underflow", "pathway_lgamma_overflow"])
def test_closed_forms_raise_non_finite(f, family, alpha, match):
    # f^c past the float range, or a kernel g^c that is not integrable: a
    # typed error, never a bare OverflowError or the DomainError of the
    # parameters that g^c would need.  A subnormal gamma puts all the mass
    # at the origin, where psi(gamma/delta) is -inf.  At order 1e307 the Beta
    # shape q' = beta'/(1-alpha) of g^p overflows ln Gamma.
    with pytest.raises(NonFinite, match=match):
        continuous_entropy(f, family, AlphaOrder(alpha))


@pytest.mark.parametrize("params", [PathwayParams(0.5, 2.0, 1.0, 1.0, 1e-10),
                                    PathwayParams(-3.0, 2.5, 2.0, 0.7, 1e-10)],
                         ids=["alpha_half", "alpha_negative"])
def test_closed_power_integral_takes_the_limit_of_an_underflowed_beta(params):
    # Renyi 1e-320 underflows beta' = p beta to 0; below order 1 the kernel
    # g^p then has bracket exponent 0, so the value is the log of the support
    # length (s (1-alpha))^(-1/delta), as quadrature also gives
    length = (params.s * (1.0 - params.alpha)) ** (-1.0 / params.delta)
    value = continuous_entropy(as_density_spec(params), RENYI, AlphaOrder(1e-320))
    assert value == pytest.approx(math.log(length), rel=1e-14)


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
def test_joint_side_runs_an_inner_integral_per_outer_node(family, alpha, monkeypatch):
    # The joint side must stay an iterated integral (the composition check's
    # second route), not the product of two 1-D integrals: its inner
    # integrals over g's support carry at least one row per node of the
    # outer rule's 8 head panels x 15 nodes, each for a distinct f(x).  The
    # first batch of every integrand over g's support is recorded, one row
    # per integral it carries; rows term(f(x) g(y)) on the same nodes y are
    # equal only when their f(x) are.
    rows = []
    real = entropy_continuous.integrate
    g = _quadrature_only(GAUSS)

    def recording(integrand, spec):
        if (spec.lower, spec.upper) != (GAUSS.lower, GAUSS.upper):
            return real(integrand, spec)
        first = []

        def recorded(y):
            out = np.asarray(integrand(y), dtype=float)
            if not first:
                first.append(out.reshape(-1, np.size(y)))
            return out

        value = real(recorded, spec)
        rows.extend(first[0])
        return value

    monkeypatch.setattr(entropy_continuous, "integrate", recording)
    continuous_entropy(g, family, AlphaOrder(alpha))
    one_dim = len(rows)
    composition_residual_continuous(EXPO, g, family, AlphaOrder(alpha))
    # the composition's own F(g) comes first, then the joint side
    joint = np.array(rows[2 * one_dim:])
    assert len(np.unique(joint, axis=0)) >= 8 * 15


# ------------------------------------------------------- closed forms first

def _two_route_densities():
    """Seeded pathway draws in each regime, with tails and heads fast enough
    for quadrature, plus the three other bundled densities."""
    rng = np.random.default_rng(3011)
    out = []
    for regime in (0, 1, 2) * 5:
        while True:
            alpha = (rng.uniform(0.2, 0.9), 1.0, rng.uniform(1.1, 1.6))[regime]
            params = PathwayParams(alpha, rng.uniform(0.8, 3.0), rng.uniform(0.7, 2.5),
                                   rng.uniform(0.5, 2.0), rng.uniform(0.6, 2.0))
            # above order 1, f^c decays like x^-(1 + delta q'), where
            # delta q' = c (delta beta/(alpha-1) - gamma + 1) - 1 is linear in
            # c: keep it >= 1.5 over the exponents c in [0.6, 1.8] used below
            if regime < 2 or min(c * (params.delta * params.beta_exp / (alpha - 1.0)
                                      - params.gamma + 1.0) - 1.0 for c in (0.6, 1.8)) >= 1.5:
                break
        out.append(as_density_spec(params))
    for k in range(3):
        out += [exponential_density(float(rng.uniform(0.3, 3.0))),
                gaussian_density(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.2, 3.0))),
                uniform_density(*sorted(float(v) for v in rng.uniform(-3.0, 3.0, 2)))]
    return out


TWO_ROUTE = _two_route_densities()
TWO_ROUTE_IDS = [f"pathway_{('below', 'at', 'above')[i % 3]}_one_{i // 3}" for i in range(15)] \
    + [f"{name}_{k}" for k in range(3) for name in ("exponential", "gaussian", "uniform")]


@pytest.mark.parametrize("f", TWO_ROUTE, ids=TWO_ROUTE_IDS)
def test_closed_power_integral_matches_quadrature(f):
    for c in (0.6, 0.95, 1.3, 1.8):
        assert f.power_integral(c) == pytest.approx(density_power_integral(f, c), rel=1e-9)


@pytest.mark.parametrize("f", TWO_ROUTE, ids=TWO_ROUTE_IDS)
def test_closed_shannon_matches_quadrature(f):
    order = AlphaOrder(1.0)
    closed = continuous_entropy(f, SHANNON, order)
    assert closed == f.shannon()
    assert closed == pytest.approx(
        continuous_entropy(_quadrature_only(f), SHANNON, order), rel=1e-9)


_NO_SCIPY_PROBE = """
import sys
import pathway_entropy as pe
densities = [pe.uniform_density(0.0, 2.0), pe.exponential_density(1.5),
             pe.gaussian_density(0.5, 2.0)]
densities += [pe.as_density_spec(pe.PathwayParams(a, 2.0, 1.5, 1.0, 2.5))
              for a in (0.5, 1.0, 1.4)]
for f in densities:
    for family, alpha in ((pe.SHANNON, 1.0), (pe.TSALLIS, 1.5), (pe.RENYI, 0.5)):
        pe.continuous_entropy(f, family, pe.AlphaOrder(alpha))
        pe.composition_residual_continuous(f, pe.exponential_density(), family,
                                           pe.AlphaOrder(alpha))
print("scipy.special" in sys.modules, "scipy" in sys.modules)
"""


def test_bundled_density_entropies_load_no_scipy_special():
    # the closed forms use math.lgamma and the package's own digamma, so the
    # continuous measures of every bundled density keep scipy out of memory
    src = os.path.dirname(os.path.dirname(entropy_continuous.__file__))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
