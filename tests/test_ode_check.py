"""Derivative identities of the pathway kernel under all five reductions."""
from __future__ import annotations

import math

import numpy as np
import pytest

from pathway_entropy.errors import DomainError
from pathway_entropy.ode_check import (
    OdeCase,
    OdeReduction,
    SweepReport,
    default_step,
    residual,
    residual_sweep,
)
from pathway_entropy.pathway import PathwayParams, kernel, kernel_derivative


def test_tsallis_alpha_hand_case():
    # g = (1+x)^-1 so g' = -g^2 exactly
    case = OdeCase(PathwayParams(alpha=2.0, gamma=1.0, delta=1.0, s=1.0),
                   OdeReduction.TSALLIS_ALPHA)
    assert residual(case, 1.0, 1e-5) <= 1e-9


def test_tsallis_eta_sweep():
    case = OdeCase(PathwayParams(alpha=1.5, gamma=1.0, delta=1.0, s=1.0,
                                 beta_exp=2.0), OdeReduction.TSALLIS_ETA)
    assert case.eta == pytest.approx(1.25)
    report = residual_sweep(case, 100, h=1e-5)
    assert report.max_residual <= 1e-7


def test_reduced_beta1_sweep():
    # delta = (gamma-1)(alpha-1) = 2 * 0.5 = 1
    case = OdeCase(PathwayParams(alpha=1.5, gamma=3.0, delta=1.0, s=1.0),
                   OdeReduction.REDUCED_BETA1)
    report = residual_sweep(case, 100, h=1e-5)
    assert report.max_residual <= 1e-7


def test_reduced_beta_sweep_with_free_exponent():
    # delta = (gamma-1)(alpha-1)/beta = (1.5)(0.5)/1.5 = 0.5
    case = OdeCase(PathwayParams(alpha=1.5, gamma=2.5, delta=0.5, s=1.0,
                                 beta_exp=1.5), OdeReduction.REDUCED_BETA)
    report = residual_sweep(case, 100, h=1e-5)
    assert report.max_residual <= 1e-7


def test_general_identity_random_params():
    cases = [
        PathwayParams(alpha=0.5, gamma=1.0, delta=1.0, s=1.0),
        PathwayParams(alpha=0.7, gamma=1.3, delta=2.0, s=1.1, beta_exp=1.4),
        PathwayParams(alpha=1.6, gamma=1.2, delta=1.1, s=0.9, beta_exp=1.3),
        PathwayParams(alpha=1.0, gamma=2.5, delta=1.5, s=0.8, beta_exp=1.2),
        PathwayParams(alpha=2.0, gamma=1.0, delta=1.0, s=1.0),
    ]
    for params in cases:
        case = OdeCase(params, OdeReduction.GENERAL)
        report = residual_sweep(case, 60)
        scale = max(1.0, kernel(params, report.argmax))
        assert report.max_residual <= 1e-8 * scale


def test_gamma_one_drops_leading_term():
    case = OdeCase(PathwayParams(alpha=0.5, gamma=1.0, delta=2.0, s=1.0),
                   OdeReduction.GENERAL)
    assert residual_sweep(case, 50).max_residual <= 1e-9


def test_single_point_sweep_is_midpoint_residual():
    case = OdeCase(PathwayParams(alpha=0.5, gamma=1.0, delta=1.0, s=1.0))
    report = residual_sweep(case, 1, h=1e-5)
    lo, hi = 0.2, 1.8
    mid = math.sqrt(lo * hi)
    assert report.argmax == pytest.approx(mid)
    assert report.max_residual == residual(case, mid, 1e-5)
    assert isinstance(report, SweepReport) and report.n_points == 1


def test_stencil_convergence_order_two():
    case = OdeCase(PathwayParams(alpha=2.0, gamma=1.0, delta=1.0, s=1.0),
                   OdeReduction.TSALLIS_ALPHA)
    r = [residual(case, 1.0, h) for h in (1e-3, 1e-4, 1e-5)]
    assert r[0] > r[1] > r[2]
    assert r[0] / r[1] == pytest.approx(100.0, rel=0.25)


def test_constraint_gating():
    params = PathwayParams(alpha=1.5, gamma=3.0, delta=0.7, s=1.0)
    with pytest.raises(DomainError):
        OdeCase(params, OdeReduction.REDUCED_BETA)
    # the derivative identity itself still holds for those params
    general = OdeCase(params, OdeReduction.GENERAL)
    report = residual_sweep(general, 40)
    assert report.max_residual <= 1e-8 * max(1.0, kernel(params, report.argmax))
    with pytest.raises(DomainError):
        OdeCase(PathwayParams(alpha=0.9, gamma=2.0, delta=0.2, s=1.0),
                OdeReduction.REDUCED_BETA)  # alpha must exceed 1
    with pytest.raises(DomainError):
        OdeCase(PathwayParams(alpha=1.5, gamma=2.0, delta=1.0, s=1.0),
                OdeReduction.TSALLIS_ETA)  # gamma must be 1
    with pytest.raises(DomainError):
        OdeCase(PathwayParams(alpha=1.5, gamma=1.0, delta=1.0, s=1.0,
                              beta_exp=2.0), OdeReduction.TSALLIS_ALPHA)
    with pytest.raises(DomainError):
        OdeCase(PathwayParams(alpha=1.5, gamma=3.0, delta=1.0, s=1.0,
                              beta_exp=2.0), OdeReduction.REDUCED_BETA1)


def test_eta_is_derived():
    case = OdeCase(PathwayParams(alpha=1.5, gamma=1.0, delta=1.0, s=1.0,
                                 beta_exp=2.0), OdeReduction.TSALLIS_ETA,
                   eta=1.25)
    assert case.eta == 1.25
    with pytest.raises(DomainError):
        OdeCase(PathwayParams(alpha=1.5, gamma=1.0, delta=1.0, s=1.0,
                              beta_exp=2.0), OdeReduction.TSALLIS_ETA, eta=0.5)


def test_stencil_boundary_rejected():
    case = OdeCase(PathwayParams(alpha=0.5, gamma=1.0, delta=1.0, s=1.0))
    with pytest.raises(DomainError):
        residual(case, 1.9999, 1e-2)
    with pytest.raises(DomainError):
        residual(case, 1e-8, 1e-5)
    with pytest.raises(DomainError):
        residual(case, 1.0, 0.0)


def test_default_step_scaling():
    eps_cbrt = float(6.055454452393343e-06)
    assert default_step(0.5) == pytest.approx(eps_cbrt, rel=1e-6)
    assert default_step(10.0) == pytest.approx(10.0 * eps_cbrt, rel=1e-6)


def test_three_way_agreement_with_analytic_derivative():
    params = PathwayParams(alpha=1.6, gamma=1.2, delta=1.1, s=0.9, beta_exp=1.3)
    x = 0.8
    h = 1e-5
    numeric = (kernel(params, x + h) - kernel(params, x - h)) / (2 * h)
    analytic = kernel_derivative(params, x)
    assert numeric == pytest.approx(analytic, rel=1e-8)
    # residual against the closed-form RHS closes the triangle
    assert residual(OdeCase(params), x, h) <= 1e-10


def _pointwise_sweep(case, n_points, h):
    # Reference: the scalar loop, three scalar kernel calls per point and the
    # first maximum kept.
    from pathway_entropy.ode_check import _rhs, _sweep_window
    lo, hi = _sweep_window(case)
    xs = np.geomspace(lo, hi, n_points) if n_points > 1 else [math.sqrt(lo * hi)]
    tsallis = case.reduction in (OdeReduction.TSALLIS_ETA,
                                 OdeReduction.TSALLIS_ALPHA)
    best = None
    for x in map(float, xs):
        step = h if h is not None else float(default_step(x))
        g_minus = kernel(case.params, x - step)
        g_plus = kernel(case.params, x + step)
        derivative = (g_plus - g_minus) / (2.0 * step)
        lhs = derivative if tsallis else x * derivative
        value = abs(lhs - _rhs(case, x, kernel(case.params, x)))
        if best is None or value > best[0]:
            best = (value, x, step)
    return best


def test_sweep_matches_pointwise_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    for i in range(90):
        gamma, delta = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.5)
        s, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        alpha = (rng.uniform(0.2, 0.9), 1.0, rng.uniform(1.1, 1.8))[i % 3]
        if alpha > 1.0:
            beta = (alpha - 1.0) * (gamma / delta + rng.uniform(0.5, 6.0))
        case = OdeCase(PathwayParams(float(alpha), float(gamma), float(delta),
                                     float(s), float(beta)))
        n_points = int(rng.integers(1, 120))
        h = None if i % 2 else float(10.0 ** rng.uniform(-6, -3))
        report = residual_sweep(case, n_points, h)
        assert (report.max_residual, report.argmax, report.h) == \
            _pointwise_sweep(case, n_points, h)


def test_sweep_makes_three_kernel_calls(monkeypatch):
    from pathway_entropy import ode_check
    calls = []

    def counted(params, x):
        calls.append(np.size(x))
        return kernel(params, x)

    monkeypatch.setattr(ode_check, "kernel", counted)
    case = OdeCase(PathwayParams(alpha=1.5, gamma=1.0, delta=1.0, s=1.0,
                                 beta_exp=2.0), OdeReduction.TSALLIS_ETA)
    residual_sweep(case, 200)
    assert calls == [200, 200, 200]


@pytest.mark.parametrize("build,match", [
    (lambda: OdeCase(PathwayParams(alpha=1.5, gamma=1.0, delta=0.5),
                     OdeReduction.REDUCED_BETA), "gamma != 1"),
    # delta = (gamma-1)(alpha-1)/beta holds, so only beta = 2 is at fault
    (lambda: OdeCase(PathwayParams(alpha=1.5, gamma=3.0, delta=0.5, beta_exp=2.0),
                     OdeReduction.REDUCED_BETA1), "beta_exp = 1"),
    (lambda: residual_sweep(OdeCase(PathwayParams(alpha=0.5)), 0), "one sweep point"),
], ids=["reduced_beta_gamma_one", "reduced_beta1_beta", "no_sweep_points"])
def test_domain_errors(build, match):
    with pytest.raises(DomainError, match=match):
        build()
