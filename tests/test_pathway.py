"""Pathway family: constants, kernels, cdf/quantile/sampling, special cases."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from pathway_entropy.entropy_continuous import continuous_entropy
from pathway_entropy.entropy_discrete import SHANNON, TSALLIS, AlphaOrder
from pathway_entropy.errors import DomainError, NonFinite, NotNormalizable, UnknownName
from pathway_entropy.ode_check import OdeCase, residual_sweep
from pathway_entropy.pathway import (
    SPECIAL_CASE_NAMES,
    PathwayParams,
    _digamma,
    _substitution,
    as_density_spec,
    cdf,
    density,
    is_normalizable,
    kernel,
    kernel_derivative,
    log_kernel,
    normalizing_constant,
    normalizing_constant_quadrature,
    quantile,
    sample,
    special_case,
    support,
)
from pathway_entropy.quadrature import QuadratureSpec, integrate

HAND = PathwayParams(alpha=0.5, gamma=1.0, delta=1.0, s=1.0)
EXPO = PathwayParams(alpha=1.0, gamma=1.0, delta=1.0, s=1.0)
QEXP = PathwayParams(alpha=1.5, gamma=1.0, delta=1.0, s=1.0)
WIGNER = PathwayParams(alpha=2.0, gamma=1.0, delta=2.0, s=1.0)
TYPE1_GEN = PathwayParams(alpha=0.7, gamma=1.3, delta=2.0, s=1.1, beta_exp=1.4)
TYPE2_GEN = PathwayParams(alpha=1.6, gamma=1.2, delta=1.1, s=0.9, beta_exp=1.3)
LIMIT_GEN = PathwayParams(alpha=1.0, gamma=2.5, delta=1.5, s=0.8, beta_exp=1.2)
# finite support whose edge (5e-11)^-100 is past the float range, and the
# order-1 set whose scale power is
BEYOND_FLOAT_EDGE = PathwayParams(alpha=0.5, gamma=1.0, delta=0.01, s=1e-10)
BEYOND_FLOAT_SCALE = PathwayParams(alpha=1.0, gamma=1.0, delta=0.01, s=1e-10)

# frozen from 50-digit evaluation of the Beta/Gamma closed forms, each
# cross-checked there against independent high-precision quadrature
CONSTANTS = [
    (HAND, 1.5),
    (PathwayParams(alpha=0.5, gamma=2.0, delta=1.0, s=1.0), 3.0),
    (QEXP, 0.5),
    (WIGNER, 2.0 / math.pi),
    (EXPO, 1.0),
    (PathwayParams(alpha=1.0, gamma=3.0, delta=2.0, s=1.0), 2.256758334191025147792),
    (PathwayParams(alpha=1.0, gamma=2.0, delta=2.0, s=1.0), 2.0),
    (TYPE1_GEN, 2.126720542757111582629),
    (TYPE2_GEN, 0.6619047357581227027967),
    (LIMIT_GEN, 1.552308664163012840124),
]


@pytest.mark.parametrize("params,expected", CONSTANTS)
def test_normalizing_constant_frozen(params, expected):
    assert normalizing_constant(params) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("params,expected", CONSTANTS)
def test_closed_form_matches_quadrature(params, expected):
    assert normalizing_constant_quadrature(params) == pytest.approx(expected, rel=1e-8)


def test_hand_constant_tight():
    assert abs(normalizing_constant(HAND) - 1.5) < 1e-12


def test_support_regimes():
    assert support(HAND).upper == pytest.approx(2.0)
    assert support(PathwayParams(alpha=0.0, delta=2.0)).upper == pytest.approx(1.0)
    assert support(QEXP).upper == math.inf
    assert support(EXPO).upper == math.inf
    assert support(HAND).lower == 0.0
    # inf is the float rounding of an edge past the float range: every
    # float x >= 0 lies inside it
    assert support(BEYOND_FLOAT_EDGE).upper == math.inf


def test_not_normalizable_boundary():
    flat = PathwayParams(alpha=2.0, gamma=1.0, delta=1.0, s=1.0)
    assert not is_normalizable(flat)
    with pytest.raises(NotNormalizable):
        normalizing_constant(flat)
    with pytest.raises(NotNormalizable):
        density(flat, 1.0)
    # every distribution function checks first, the exact quantile ends too
    for u in (0.0, 0.5, 1.0):
        with pytest.raises(NotNormalizable):
            quantile(flat, u)
    with pytest.raises(NotNormalizable):
        cdf(flat, 0.0)
    with pytest.raises(NotNormalizable):
        sample(flat, 1, seed=0)
    # kernel evaluation stays available for non-normalizable params
    assert kernel(flat, 1.0) == pytest.approx(0.5)


def test_params_validation():
    with pytest.raises(DomainError):
        PathwayParams(alpha=0.5, gamma=0.0)
    with pytest.raises(DomainError):
        PathwayParams(alpha=0.5, delta=-1.0)
    with pytest.raises(DomainError):
        PathwayParams(alpha=math.nan)
    with pytest.raises(DomainError):
        PathwayParams(alpha=0.5, beta_exp=0.0)


def test_kernel_values():
    flat = PathwayParams(alpha=2.0, gamma=1.0, delta=1.0, s=1.0)
    assert kernel(flat, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert kernel(QEXP, 1.0) == pytest.approx(1.5 ** -2, abs=1e-15)
    assert kernel(PathwayParams(alpha=0.5, gamma=2.0), 1.0) == pytest.approx(0.25, abs=1e-15)
    assert kernel(HAND, 0.0) == pytest.approx(1.0)
    assert kernel(HAND, 2.0) == 0.0
    assert kernel(HAND, 2.5) == 0.0
    assert kernel(HAND, -0.5) == 0.0


def test_density_boundary_and_outside():
    assert density(HAND, 2.0) == 0.0
    assert density(HAND, -1.0) == 0.0
    assert density(HAND, 0.0) == pytest.approx(1.5)
    values = density(HAND, np.array([0.0, 1.0, 2.0, 3.0]))
    assert values[0] == pytest.approx(1.5)
    assert values[1] == pytest.approx(1.5 * 0.25)
    assert values[2] == 0.0 and values[3] == 0.0


def test_log_kernel_extremes():
    # gamma < 1 gives an integrable spike at 0; huge x underflows cleanly
    spike = PathwayParams(alpha=1.0, gamma=0.5, delta=1.0, s=1.0)
    assert log_kernel(spike, 0.0) == math.inf
    assert math.exp(log_kernel(spike, 1e300)) == 0.0
    # at x = inf, the limit of g ~ x^(-1 - delta q): here q = beta/(alpha-1) - r
    # is -2 (g ~ x, not normalizable) and -1 (g -> (s(alpha-1))^(-2) = 4)
    rising = PathwayParams(alpha=2.0, gamma=3.0)
    level = PathwayParams(alpha=1.5, gamma=3.0)
    assert log_kernel(rising, math.inf) == math.inf
    assert log_kernel(level, math.inf) == pytest.approx(math.log(4.0), rel=1e-15)
    assert kernel(level, np.array([math.inf, 1e300])) == pytest.approx([4.0, 4.0])
    # an edge past the float range: ln g(2) = 2 ln(1 - 5e-11 * 2^0.01)
    assert log_kernel(BEYOND_FLOAT_EDGE, 2.0) == pytest.approx(
        2.0 * math.log1p(-5e-11 * 2.0 ** 0.01), rel=1e-12)
    assert normalizing_constant_quadrature(spike) == pytest.approx(
        normalizing_constant(spike), rel=1e-8)


def test_kernel_derivative_matches_central_difference():
    h = 1e-6
    for params in (HAND, QEXP, TYPE1_GEN, TYPE2_GEN, LIMIT_GEN, EXPO):
        edge = support(params).upper
        for x in (0.3, 0.9, 1.4):
            if x >= edge:
                continue
            numeric = (kernel(params, x + h) - kernel(params, x - h)) / (2 * h)
            assert kernel_derivative(params, x) == pytest.approx(numeric, rel=1e-6, abs=1e-9)


def test_limit_continuity_in_alpha():
    for x in (0.1, 0.5, 1.0):
        base = density(PathwayParams(alpha=1.0, gamma=2.0), x)
        for side in (+1.0, -1.0):
            gaps = []
            for h in (0.1, 0.01, 0.001):
                value = density(PathwayParams(alpha=1.0 + side * h, gamma=2.0), x)
                gaps.append(abs(value - base))
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] <= 1e-2


# --------------------------------------------------------------- cdf et al.

def test_cdf_closed_forms():
    assert cdf(EXPO, math.log(2.0)) == pytest.approx(0.5, abs=1e-10)
    assert cdf(HAND, 1.0) == pytest.approx(0.875, abs=1e-10)
    assert cdf(HAND, 2.0) == pytest.approx(1.0, abs=1e-8)
    assert cdf(HAND, 5.0) == pytest.approx(1.0, abs=1e-8)
    assert cdf(WIGNER, 1.0) == pytest.approx(0.5, abs=1e-10)
    assert cdf(HAND, 0.0) == 0.0
    assert cdf(HAND, -1.0) == 0.0
    assert cdf(BEYOND_FLOAT_EDGE, 2.0) == 0.0


def test_cdf_frozen_generic():
    assert cdf(TYPE1_GEN, 0.8) == pytest.approx(0.8487775607559245719987, abs=1e-9)
    assert cdf(TYPE2_GEN, 2.0) == pytest.approx(0.5333724135160697996059, abs=1e-9)
    assert support(TYPE1_GEN).upper == pytest.approx(1.740776559556978182651, rel=1e-12)


def test_quantile_endpoints_and_roundtrip():
    assert quantile(HAND, 0.0) == 0.0
    assert quantile(HAND, 1.0) == pytest.approx(2.0)
    assert quantile(QEXP, 1.0) == math.inf
    assert quantile(HAND, 0.875) == pytest.approx(1.0, abs=1e-6)
    assert quantile(WIGNER, 0.5) == pytest.approx(1.0, abs=1e-6)
    for params in (HAND, EXPO, TYPE2_GEN):
        for x in (0.4, 1.1):
            assert quantile(params, cdf(params, x)) == pytest.approx(x, abs=1e-6)
    with pytest.raises(DomainError):
        quantile(HAND, 1.5)
    # r = 2, q = 0.01: the median of w = t/(1+t) rounds to 1, so t comes from
    # the complementary inverse; the reference is the 40-digit median of the
    # beta-prime law
    heavy = PathwayParams(alpha=2.0, gamma=2.0, delta=1.0, s=1.0, beta_exp=2.01)
    assert quantile(heavy, 0.5) == pytest.approx(3.4287588743768797e30, rel=1e-12)


def test_sampling_deterministic_and_in_support():
    a = sample(HAND, 1000, seed=7)
    b = sample(HAND, 1000, seed=7)
    c = sample(HAND, 1000, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 2.0
    assert sample(HAND, 0, seed=1).size == 0


@pytest.mark.parametrize("params", [TYPE1_GEN, LIMIT_GEN], ids=["beta", "gamma"])
def test_sample_maps_the_draws_in_place(params):
    # bit for bit scale^(-1/delta) * t^(1/delta) of the seeded draws of t,
    # with no second array of the sample's length
    n = 2 ** 20
    law, r, q, scale = _substitution(params)
    t = law.draw(np.random.default_rng(3), r, q, n)
    expected = scale ** (-1.0 / params.delta) * t ** (1.0 / params.delta)
    del t
    tracemalloc.start()
    try:
        draws = sample(params, n, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(draws, expected)
    assert peak < 1.25 * draws.nbytes


def test_sampling_mean_exponential_branch():
    draws = sample(EXPO, 100_000, seed=123)
    # mean 1, sd 1: three standard errors of the 1e5-sample mean
    assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(100_000)


def test_sampling_mean_type1_branch():
    draws = sample(HAND, 100_000, seed=456)
    se = 0.3872983346207416885179 / math.sqrt(100_000)
    assert abs(draws.mean() - 0.5) < 3.0 * se


# a heavy power tail (density ~ x^-2) and a steep one (density ~ x^-7.8)
HEAVY = PathwayParams(alpha=1.5, gamma=2.0, delta=1.5, s=1.0, beta_exp=1.0)
STEEP = PathwayParams(alpha=1.6734, gamma=2.0060, delta=0.7414, s=1.8966,
                      beta_exp=7.9788)
REGIMES = (HAND, TYPE1_GEN, EXPO, LIMIT_GEN, TYPE2_GEN, HEAVY, STEEP)


def oracle_cdf(params, x):
    """scipy.stats law of the substituted t = s|1-alpha| x^delta."""
    a, r = params.alpha, params.gamma / params.delta
    if a < 1.0:
        scale = params.s * (1.0 - a)
        law = stats.beta(r, params.beta_exp / (1.0 - a) + 1.0)
    elif a > 1.0:
        scale = params.s * (a - 1.0)
        law = stats.betaprime(r, params.beta_exp / (a - 1.0) - r)
    else:
        scale = params.beta_exp * params.s
        law = stats.gamma(r)
    return law.cdf(scale * np.asarray(x, dtype=float) ** params.delta)


@pytest.mark.parametrize("params", REGIMES)
def test_sample_distribution_kolmogorov_smirnov(params):
    draws = sample(params, 2000, seed=0)
    assert np.all(np.isfinite(draws))
    statistic = stats.kstest(draws, lambda x: oracle_cdf(params, x)).statistic
    # 1 % critical value of the one-sample KS statistic at n = 2000
    assert statistic < 1.628 / math.sqrt(2000)


@pytest.mark.parametrize("params", REGIMES)
def test_cdf_matches_quadrature_oracle(params):
    c = normalizing_constant(params)
    for u in (0.05, 0.4, 0.8, 0.99):
        x = quantile(params, u)
        mass = c * integrate(lambda t: kernel(params, t), QuadratureSpec(0.0, x))
        assert cdf(params, x) == pytest.approx(mass, abs=1e-9)


@pytest.mark.parametrize("params", REGIMES + (BEYOND_FLOAT_EDGE,))
def test_cdf_saturates_at_the_upper_end(params):
    assert cdf(params, math.inf) == 1.0
    assert cdf(params, support(params).upper) == 1.0
    assert quantile(params, 1.0) == support(params).upper


@pytest.mark.parametrize("params", REGIMES + (BEYOND_FLOAT_EDGE,))
def test_lower_end_and_finite_edges_are_exact(params):
    assert quantile(params, 0.0) == 0.0
    # the kernel vanishes one float past each finite edge of the support
    interval = support(params)
    assert log_kernel(params, np.nextafter(interval.lower, -math.inf)) == -math.inf
    if math.isfinite(interval.upper):
        assert log_kernel(params, np.nextafter(interval.upper, math.inf)) == -math.inf
    for x in (5e-324, 1e-320):
        assert math.isfinite(log_kernel(params, x))
    # and at x = inf, where every normalizable kernel vanishes
    assert log_kernel(params, math.inf) == -math.inf
    assert kernel(params, np.array([math.inf])).tolist() == [0.0]
    assert density(params, math.inf) == as_density_spec(params).pdf(math.inf) == 0.0


@pytest.mark.parametrize("params", (TYPE2_GEN, HEAVY, STEEP))
def test_quantile_round_trip_far_in_the_power_tail(params):
    for u in (0.3, 0.6, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
        x = quantile(params, u)
        assert math.isfinite(x)
        assert cdf(params, x) == pytest.approx(u, abs=1e-15)
        assert quantile(params, cdf(params, x)) == pytest.approx(x, rel=1e-12)


@pytest.mark.parametrize("params,u,expected", [
    # Beta(3.2368, 3.1822) and beta prime with the same shapes, where
    # betaincinv returns nan; Beta(0.5, 2), where it returns the smallest
    # normal float for a subnormal w, whose fourth root x is a normal float
    (PathwayParams(-0.12574286846531213, 1.9484290216781293, 0.6019572410177927,
                   12.63392086947086, 2.4566451690854905), 1e-300, 3.510073504068945e-157),
    (PathwayParams(1.5, 3.2368, 1.0, 1.0, 3.2095), 1e-300, 1.8807174463927883e-93),
    (PathwayParams(0.5, 2.0, 4.0, 1.0, 0.5), 1e-155, 3.0705195677312714e-78),
], ids=["beta_nan", "beta_prime_nan", "beta_floor"])
def test_quantile_far_in_the_lower_tail(params, u, expected):
    # expected: 50-digit mpmath solutions of I_w(r, q) = u, mapped to x
    assert quantile(params, u) == pytest.approx(expected, rel=1e-12, abs=0.0)


# ------------------------------------------------------------ special cases

def test_special_case_mappings():
    qexp = special_case("tsallis_q_exponential", alpha=1.5)
    assert qexp == QEXP
    assert special_case("type1_beta", alpha=0.5) == HAND
    assert special_case("type2_beta", s=0.5) == PathwayParams(alpha=1.5, gamma=1.0,
                                                              delta=1.0, s=0.5)
    assert special_case("stretched_exponential") == EXPO
    mb = special_case("maxwell_boltzmann")
    assert (mb.gamma, mb.delta, mb.alpha) == (3.0, 2.0, 1.0)
    gh = special_case("gaussian_half", s=0.5)
    assert (gh.gamma, gh.delta, gh.alpha, gh.s) == (1.0, 2.0, 1.0, 0.5)
    wb = special_case("weibull", shape=3.0)
    assert wb.gamma == wb.delta == 3.0 and wb.alpha == 1.0
    wg = special_case("wigner", q=2.0, beta_scale=1.0)
    assert wg == WIGNER
    assert normalizing_constant(wg) == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_special_case_validation():
    with pytest.raises(UnknownName):
        special_case("lorentz")
    with pytest.raises(DomainError):
        special_case("wigner", q=3.0)
    with pytest.raises(DomainError):
        special_case("wigner", q=1.0)
    with pytest.raises(DomainError):
        special_case("type1_beta", alpha=1.2)
    with pytest.raises(DomainError):
        special_case("type2_beta", alpha=0.8)
    with pytest.raises(DomainError):
        special_case("weibull", rate=2.0)
    for name in SPECIAL_CASE_NAMES:
        with pytest.raises(DomainError, match=f"{name} got unexpected arguments"):
            special_case(name, beta_exp=2.0)


def test_as_density_spec_unit_mass():
    for params in (HAND, EXPO, TYPE2_GEN):
        spec = as_density_spec(params)
        assert spec.checked() is spec
        total = integrate(spec.pdf, QuadratureSpec(spec.lower, spec.upper))
        assert total == pytest.approx(1.0, abs=1e-8)


def test_random_params_normalize_across_regimes():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 15:
        regime = count % 3
        gamma = rng.uniform(0.6, 2.5)
        delta = rng.uniform(0.6, 2.0)
        s = rng.uniform(0.5, 1.8)
        beta = rng.uniform(0.7, 1.6)
        if regime == 0:
            alpha = rng.uniform(0.2, 0.9)
        elif regime == 1:
            alpha = 1.0
        else:
            alpha = rng.uniform(1.1, 1.8)
        params = PathwayParams(alpha=alpha, gamma=gamma, delta=delta, s=s,
                               beta_exp=beta)
        if not is_normalizable(params):
            continue
        count += 1
        interval = support(params)
        total = integrate(lambda x: density(params, x),
                          QuadratureSpec(interval.lower, interval.upper))
        assert abs(total - 1.0) <= 1e-7
        assert normalizing_constant_quadrature(params) == pytest.approx(
            normalizing_constant(params), rel=1e-8)


# shapes whose constant leaves the float range while the density stays an
# ordinary number: c = e^956.6 at order 1, c = e^-1996 below it.  The
# entropies were frozen from 40-digit mpmath quadrature of -f ln f and f^1.5,
# with ln f = ln c + ln g at the binary values of these parameters.
LARGE_ORDER_ONE = PathwayParams(1.0, 446.18, 2.049, 9.783, 654.7)
LARGE_BELOW_ONE = PathwayParams(-1.565, 3251.5, 1.219, 0.1466, 404.5)


LARGE_SHAPE_ENTROPIES = pytest.mark.parametrize("params,family,alpha,expected", [
    (LARGE_ORDER_ONE, SHANNON, 1.0, -3.6407488764335589514),
    (LARGE_BELOW_ONE, SHANNON, 1.0, -3.4102964578012343262),
    (LARGE_BELOW_ONE, TSALLIS, 1.5, -9.5374996314008790767),
], ids=["order_one_shannon", "below_one_shannon", "below_one_tsallis"])


@LARGE_SHAPE_ENTROPIES
def test_large_shape_entropies_through_the_log_density(params, family, alpha, expected):
    # the spec's closed forms, from ln c and the log moments
    value = continuous_entropy(as_density_spec(params), family, AlphaOrder(alpha))
    assert value == pytest.approx(expected, rel=1e-10)


@LARGE_SHAPE_ENTROPIES
def test_large_shape_entropies_by_quadrature_of_the_log_density(params, family, alpha,
                                                                expected):
    # the quadrature route: integrands read ln f = ln c + ln g, finite where
    # c itself is not
    f = dataclasses.replace(as_density_spec(params), shannon=None, power_integral=None)
    value = continuous_entropy(f, family, AlphaOrder(alpha))
    assert value == pytest.approx(expected, rel=1e-10)


# psi(x) frozen from 30-digit mpmath: the recurrence range, the zero of psi
# near 1.4616, both sides of the switch to the series at 10, and its far end
@pytest.mark.parametrize("x,expected", [
    (1e-3, -1000.575571931810279655),
    (0.0063, -159.2970587510693612752),
    (0.05, -20.49784499129986925659),
    (0.3, -3.502524222200133124915),
    (1.0, -0.5772156649015328606065),
    (1.4616321449683622, -9.241265521729427479201e-17),
    (2.5, 0.7031566406452431872257),
    (7.25, 1.910453526883736028382),
    (9.999, 2.251647417205735314158),
    (10.0, 2.251752589066721107647),
    (37.5, 3.610948344596338412047),
    (1e3, 6.90725519564881205205),
    (1e5, 11.51292046496189508676),
])
def test_digamma_matches_mpmath(x, expected):
    assert abs(_digamma(x) - expected) <= 2e-15 * max(abs(expected), 1.0)


# density at the 1 %, 50 % and 99 % quantiles of each draw (x frozen from
# `quantile`), against 40-digit mpmath exp(ln c + ln g) at the binary
# parameter values
@pytest.mark.parametrize("params,x,expected", [
    (LARGE_ORDER_ONE, 0.17726527124684702, 4.307534662736384566),
    (LARGE_ORDER_ONE, 0.19184997348851282, 62.834374477239585073),
    (LARGE_ORDER_ONE, 0.2067955482681363, 4.1017553726718919867),
    (LARGE_BELOW_ONE, 2.108032256745643, 2.9860246390298485661),
    (LARGE_BELOW_ONE, 2.127717097677505, 49.865038938425850186),
    (LARGE_BELOW_ONE, 2.1452717535762007, 3.7560774684847733545),
], ids=["order_one_q01", "order_one_q50", "order_one_q99",
        "below_one_q01", "below_one_q50", "below_one_q99"])
def test_large_shape_density_against_mpmath(params, x, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = density(params, x)
        batch = density(params, np.array([x]))
    assert scalar == pytest.approx(expected, rel=1e-9)
    assert batch[0] == scalar


@pytest.mark.parametrize("params", [HAND, EXPO, QEXP, WIGNER, TYPE1_GEN, TYPE2_GEN,
                                    LIMIT_GEN, LARGE_ORDER_ONE, LARGE_BELOW_ONE],
                         ids=["hand", "expo", "qexp", "wigner", "type1", "type2", "limit",
                              "large_order_one", "large_below_one"])
def test_density_is_the_spec_pdf_bit_for_bit(params):
    # one statement of the density: `density` and the spec read one log form
    xs = np.concatenate([[-1.0, 0.0], quantile(params, 0.5) * np.linspace(0.1, 3.0, 30)])
    pdf = as_density_spec(params).pdf
    assert density(params, xs).tobytes() == pdf(xs).tobytes()
    assert all(density(params, float(x)) == pdf(float(x)) for x in xs)


@pytest.mark.parametrize("params,quadrature_match", [
    (LARGE_ORDER_ONE, "normalizing constant 1/0.0 is outside the float range"),
    (LARGE_BELOW_ONE, r"normalizing constant 1/integral\(kernel\) is outside the "
                      r"float range: .* near x=1\.3114"),
], ids=["overflows", "underflows"])
def test_constant_outside_the_float_range_is_non_finite(params, quadrature_match):
    with pytest.raises(NonFinite, match="outside the float range"):
        normalizing_constant(params)
    # the cross-check route: the kernel underflows to a zero integral, or
    # overflows where c underflows
    with pytest.raises(NonFinite, match=quadrature_match):
        normalizing_constant_quadrature(params)


@pytest.mark.parametrize("build", [
    lambda: quantile(BEYOND_FLOAT_EDGE, 0.5),
    lambda: quantile(BEYOND_FLOAT_SCALE, 0.5),
    lambda: sample(BEYOND_FLOAT_EDGE, 4, seed=0),
    lambda: residual_sweep(OdeCase(BEYOND_FLOAT_EDGE), 5),
    lambda: residual_sweep(OdeCase(BEYOND_FLOAT_SCALE), 5),
    # the true quantile is near 10^377.3
    lambda: quantile(PathwayParams(1.4288881707620376, 1.8443352334771512,
                                   0.8164051549613847, 0.2765310681262507,
                                   0.9856824928762806), 1.0 - 1e-12),
], ids=["quantile_edge", "quantile_order_one", "sample", "sweep_edge",
        "sweep_order_one", "quantile_power_tail"])
def test_x_past_the_float_range_is_non_finite(build):
    with pytest.raises(NonFinite, match="is not a finite float"):
        build()


@pytest.mark.parametrize("build,match", [
    (lambda: cdf(PathwayParams(alpha=0.5), math.nan), "nan"),
    (lambda: kernel_derivative(PathwayParams(alpha=0.5), 0.0), "x > 0"),
    (lambda: kernel_derivative(PathwayParams(alpha=0.5), np.array([0.5, 2.5])),
     "interior"),
    (lambda: special_case("weibull", shape=0.0), "shape > 0"),
    (lambda: special_case("wigner", beta_scale=0.0), "beta_scale > 0"),
], ids=["cdf_nan", "derivative_at_zero", "derivative_past_edge", "weibull_shape",
        "wigner_scale"])
def test_domain_errors(build, match):
    with pytest.raises(DomainError, match=match):
        build()
