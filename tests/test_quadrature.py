"""Integrator and root-finder contract tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathway_entropy.errors import (
    DomainError,
    NoSignChange,
    NonConvergence,
    NonFinite,
)
from pathway_entropy.quadrature import QuadratureSpec, find_root, integrate


def test_rule_weights_are_consistent():
    # Kronrod and Gauss weights each integrate 1 over [-1, 1] exactly.
    from pathway_entropy.quadrature import _W_GAUSS, _W_KRONROD

    assert abs(_W_KRONROD.sum() - 2.0) < 1e-14
    assert abs(_W_GAUSS.sum() - 2.0) < 1e-14


def test_polynomial_on_unit_interval():
    spec = QuadratureSpec(0.0, 1.0)
    assert abs(integrate(lambda x: x * x, spec) - 1.0 / 3.0) < 1e-12


def test_exponential_tail():
    spec = QuadratureSpec(0.0, math.inf)
    assert abs(integrate(np.exp, QuadratureSpec(-math.inf, 0.0)) - 1.0) < 1e-10
    assert abs(integrate(lambda x: np.exp(-x), spec) - 1.0) < 1e-10


def test_inverse_sqrt_endpoint_singularity():
    spec = QuadratureSpec(0.0, 1.0)
    value = integrate(lambda x: 1.0 / np.sqrt(x), spec)
    assert abs(value - 2.0) < 1e-9


def test_gaussian_whole_line():
    spec = QuadratureSpec(-math.inf, math.inf)
    value = integrate(lambda x: np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi), spec)
    assert abs(value - 1.0) < 1e-10


def test_scalar_only_integrand_is_supported():
    spec = QuadratureSpec(0.0, 2.0)
    value = integrate(lambda x: math.exp(float(x)), spec)
    assert abs(value - (math.exp(2.0) - 1.0)) < 1e-10


def test_vectorization_is_decided_on_the_first_batch():
    sizes = []

    def f(x):
        x = np.asarray(x)
        sizes.append(x.size)
        return x * x

    assert abs(integrate(f, QuadratureSpec(0.0, 1.0)) - 1.0 / 3.0) < 1e-12
    # one call on whole 15-node panels; no separate small probe call
    assert len(sizes) == 1 and sizes[0] % 15 == 0


def test_package_error_in_first_batch_is_not_retried_as_scalars():
    calls = []

    def f(x):
        calls.append(np.ndim(x))
        raise DomainError("outside the integrand's domain")

    with pytest.raises(DomainError):
        integrate(f, QuadratureSpec(0.0, 1.0))
    assert calls == [1]


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(0.0, 1.0, rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=2)
    with pytest.raises(NonConvergence):
        integrate(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-12), spec)


def test_nan_integrand_raises_non_finite():
    spec = QuadratureSpec(0.0, 1.0)
    with pytest.raises(NonFinite):
        integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), spec)


def test_interval_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(1.0, 1.0)
    with pytest.raises(DomainError):
        QuadratureSpec(2.0, 1.0)
    with pytest.raises(DomainError):
        QuadratureSpec(0.0, 1.0, rel_tol=0.0)


def test_determinism_bit_identical():
    spec = QuadratureSpec(0.0, 10.0)
    f = lambda x: np.sin(x) * np.exp(-0.3 * x) + 0.1 * x
    a = integrate(f, spec)
    b = integrate(f, spec)
    assert a == b  # bit-identical, not merely close


def test_interval_additivity():
    f = lambda x: np.cos(x) ** 2
    whole = integrate(f, QuadratureSpec(0.0, 3.0))
    split = integrate(f, QuadratureSpec(0.0, 1.1)) + integrate(f, QuadratureSpec(1.1, 3.0))
    assert abs(whole - split) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    c=st.floats(-3, 3, allow_nan=False),
)
def test_linearity_on_polynomials(a, b, c):
    spec = QuadratureSpec(-1.0, 2.0)
    f = lambda x: a * x * x + b * x + c
    exact = a * (2.0 ** 3 + 1.0) / 3.0 + b * (4.0 - 1.0) / 2.0 + c * 3.0
    assert abs(integrate(f, spec) - exact) < 1e-9 * (1.0 + abs(exact))


def test_find_root_linear():
    assert abs(find_root(lambda x: x - 2.0, (0.0, 5.0), 1e-12) - 2.0) < 1e-10


def test_find_root_sqrt2():
    root = find_root(lambda x: x * x - 2.0, (1.0, 2.0), 1e-12)
    assert abs(root - math.sqrt(2.0)) < 1e-10


def test_find_root_no_sign_change():
    with pytest.raises(NoSignChange):
        find_root(lambda x: x, (1.0, 2.0), 1e-12)


def test_find_root_endpoint_zero():
    assert find_root(lambda x: x - 1.0, (1.0, 2.0), 1e-12) == 1.0


def test_find_root_nan_mid_iteration_is_non_finite():
    # finite at the bracket ends, NaN at every interior point
    with pytest.raises(NonFinite):
        find_root(lambda x: x - 0.25 if x in (0.0, 1.0) else math.nan, (0.0, 1.0), 1e-12)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-12])
def test_find_root_rejects_invalid_tol(tol):
    with pytest.raises(DomainError):
        find_root(lambda x: x - 0.25, (0.0, 1.0), tol)


def test_find_root_returns_a_python_float():
    root = find_root(lambda x: np.float64(x) ** 3 - 0.2, (np.float64(0.0), 1.0),
                     np.float64(1e-13))
    assert type(root) is float


# Shapes for the brentq comparison, each with its root at c: smooth, flat
# (cubic), saturating (tanh), a step, a wiggle that bends the secant, and a
# tiny scale whose divided differences underflow, so that the interpolation
# steps divide by zero.
_ROOT_SHAPES = (
    lambda c: lambda x: x - c,
    lambda c: lambda x: (x - c) ** 3,
    lambda c: lambda x: math.tanh(40.0 * (x - c)),
    lambda c: lambda x: -1.0 if x < c else 1.0,
    lambda c: lambda x: math.exp(0.1 * x) - math.exp(0.1 * c),
    lambda c: lambda x: (x - c) * (1.0 + (x - c) ** 2) - 1e-3 * math.sin(40.0 * (x - c)),
    lambda c: lambda x: (x - c) * abs(x - c) ** 0.1,
    lambda c: lambda x: 1e-300 * (x - c),
)


def test_find_root_matches_scipy_brentq_bit_for_bit():
    from scipy.optimize import brentq

    rng = np.random.default_rng(20240607)
    for i in range(2100):
        c = float(rng.uniform(-10.0, 10.0) * 10.0 ** rng.integers(-3, 3))
        width = 10.0 ** rng.uniform(-3.0, 3.0)
        a, b = c - width * rng.uniform(0.01, 1.0), c + width * rng.uniform(0.01, 1.0)
        f = _ROOT_SHAPES[i % len(_ROOT_SHAPES)](c)
        tol = float(10.0 ** rng.uniform(-15.0, -4.0))
        expected = brentq(f, a, b, xtol=tol, maxiter=300)
        assert find_root(f, (a, b), tol) == expected, (i, a, b, tol)


def test_find_root_iteration_budget():
    with pytest.raises(NonConvergence):
        find_root(lambda x: -1.0 if x < 0.0 else 1.0, (-1e300, 1e300), 1e-300)


@pytest.mark.parametrize("build,error,match", [
    (lambda: QuadratureSpec(0.0, 1.0, max_subdivisions=0), DomainError,
     "max_subdivisions"),
    (lambda: find_root(lambda x: x, (1.0, -1.0), 1e-12), DomainError, "bracket"),
    (lambda: find_root(lambda x: x, (math.nan, 1.0), 1e-12), DomainError, "bracket"),
    (lambda: find_root(lambda x: x if x > 0 else math.nan, (-1.0, 1.0), 1e-12),
     NonFinite, "endpoint"),
], ids=["no_subdivisions", "reversed_bracket", "nan_bracket", "nan_endpoint_value"])
def test_typed_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()
