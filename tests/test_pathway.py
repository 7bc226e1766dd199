"""Pathway family: constants, kernels, cdf/quantile/sampling, special cases."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from pathway_entropy.errors import DomainError, NotNormalizable, UnknownName
from pathway_entropy.pathway import (
    PathwayParams,
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


def test_not_normalizable_boundary():
    flat = PathwayParams(alpha=2.0, gamma=1.0, delta=1.0, s=1.0)
    assert not is_normalizable(flat)
    with pytest.raises(NotNormalizable):
        normalizing_constant(flat)
    with pytest.raises(NotNormalizable):
        density(flat, 1.0)
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


def test_sampling_deterministic_and_in_support():
    a = sample(HAND, 1000, seed=7)
    b = sample(HAND, 1000, seed=7)
    c = sample(HAND, 1000, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0.0 and a.max() <= 2.0
    assert sample(HAND, 0, seed=1).size == 0


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


@pytest.mark.parametrize("params", REGIMES)
def test_cdf_saturates_at_the_upper_end(params):
    assert cdf(params, math.inf) == 1.0
    assert cdf(params, support(params).upper) == 1.0


@pytest.mark.parametrize("params", (TYPE2_GEN, HEAVY, STEEP))
def test_quantile_round_trip_far_in_the_power_tail(params):
    for u in (0.3, 0.6, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
        x = quantile(params, u)
        assert math.isfinite(x)
        assert cdf(params, x) == pytest.approx(u, abs=1e-15)
        assert quantile(params, cdf(params, x)) == pytest.approx(x, rel=1e-12)


# ------------------------------------------------------------ special cases

def test_special_case_mappings():
    qexp = special_case("tsallis_q_exponential", alpha=1.5)
    assert qexp == QEXP
    assert special_case("type1_beta", alpha=0.5) == HAND
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
