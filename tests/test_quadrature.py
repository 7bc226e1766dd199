"""Integrator contract tests."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathway_entropy.errors import (
    DomainError,
    NonConvergence,
    NonFinite,
)
from pathway_entropy.quadrature import QuadratureSpec, integrate


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


def test_array_error_other_than_type_or_value_error_propagates():
    # only what scalar-only code raises on an array sends f node by node
    def f(x):
        if isinstance(x, np.ndarray):
            raise ZeroDivisionError("array call")
        return x * x

    with pytest.raises(ZeroDivisionError, match="array call"):
        integrate(f, QuadratureSpec(0.0, 1.0))


def test_failed_node_by_node_retry_names_the_array_error():
    def f(x):
        if isinstance(x, np.ndarray):
            raise TypeError("array call")
        raise KeyError("scalar call")

    with pytest.raises(KeyError) as info:
        integrate(f, QuadratureSpec(0.0, 1.0))
    assert isinstance(info.value.__cause__, TypeError)
    assert str(info.value.__cause__) == "array call"


def test_vectorization_is_decided_on_every_batch():
    sizes = []

    def f(x):
        x = np.asarray(x)
        sizes.append(x.size)
        return x * x

    assert abs(integrate(f, QuadratureSpec(0.0, 1.0)) - 1.0 / 3.0) < 1e-12
    # one call on whole 15-node panels; no separate small probe call
    assert len(sizes) == 1 and sizes[0] % 15 == 0


def _scalar_only(f, probes):
    """f behind a guard that rejects arrays, recording each batch's probe."""
    def guarded(x):
        if isinstance(x, np.ndarray):
            probes.append(x.size)
            raise TypeError("scalar-only")
        return f(x)
    return guarded


# sqrt and rational functions round alike in math and numpy, so a scalar
# loop and one array call give the same bits
@pytest.mark.parametrize("scalar,vector,lower,upper,rel_tol", [
    (math.sqrt, np.sqrt, 0.0, 1.0, 1e-13),
    (lambda x: 1.0 / (1e-4 + x * x), lambda x: 1.0 / (1e-4 + x * x),
     -math.inf, math.inf, 1e-13),
    (lambda x: (math.sqrt(x), 1.0 / (1.0 + x * x)),
     lambda x: np.array([np.sqrt(x), 1.0 / (1.0 + x * x)]), 0.0, 1.0, 1e-13),
    (lambda x: (1.0 / (x * x), 1.0 / (0.01 + (x - 3.0) * (x - 3.0))),
     lambda x: np.array([1.0 / (x * x), 1.0 / (0.01 + (x - 3.0) * (x - 3.0))]),
     1.0, math.inf, 1e-12),
], ids=["sqrt", "rational_whole_line", "rows", "rows_half_line"])
def test_scalar_fallback_matches_the_vectorized_twin_on_every_sweep(
        scalar, vector, lower, upper, rel_tol):
    spec = QuadratureSpec(lower, upper, rel_tol=rel_tol)
    probes = []
    value = integrate(_scalar_only(scalar, probes), spec)
    twin = integrate(vector, spec)
    assert len(probes) > 1   # the fallback ran after the first batch too
    assert type(value) is type(twin)
    assert np.asarray(value).tobytes() == np.asarray(twin).tobytes()


def _square_in_place(x):
    x *= x
    return x


# the head nodes of [0, 1] and [-1, 1] are shared constants, yet f gets
# nodes it may overwrite, on those intervals as on any other
@pytest.mark.parametrize("lower,upper", [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)])
@pytest.mark.parametrize("in_place,twin,exact", [
    (lambda x: np.exp(x, out=x), np.exp, lambda a, b: math.exp(b) - math.exp(a)),
    (_square_in_place, lambda x: x * x, lambda a, b: (b ** 3 - a ** 3) / 3.0),
], ids=["exp_out", "square_in_place"])
def test_integrand_may_write_to_its_nodes(lower, upper, in_place, twin, exact):
    def recorded(f, sizes):
        def g(x):
            sizes.append(np.size(x))
            return f(x)
        return g

    spec = QuadratureSpec(lower, upper)
    sizes, twin_sizes = [], []
    value = integrate(recorded(in_place, sizes), spec)
    assert value == pytest.approx(exact(lower, upper), rel=1e-12)
    assert value == integrate(recorded(twin, twin_sizes), spec)
    assert sizes == twin_sizes and min(sizes) > 1   # one array call per batch


def test_package_error_in_first_batch_is_not_retried_as_scalars():
    calls = []

    def f(x):
        calls.append(np.ndim(x))
        raise DomainError("outside the integrand's domain")

    with pytest.raises(DomainError):
        integrate(f, QuadratureSpec(0.0, 1.0))
    assert calls == [1]


def test_vector_rows_match_their_scalar_integrals():
    rows = (np.exp, np.sqrt, lambda x: np.cos(5.0 * x), lambda x: 1.0 / (1.0 + x * x))
    spec = QuadratureSpec(0.0, 2.0)
    values = integrate(lambda x: np.array([r(x) for r in rows]), spec)
    assert isinstance(values, np.ndarray) and values.shape == (4,)
    exact = (math.exp(2.0) - 1.0, 2.0 ** 1.5 / 1.5, math.sin(10.0) / 5.0, math.atan(2.0))
    for row, value, truth in zip(rows, values, exact):
        tol = max(spec.abs_tol, spec.rel_tol * abs(truth))
        assert abs(value - truth) <= tol
        assert abs(value - integrate(row, spec)) <= 2.0 * tol


def test_each_row_meets_its_own_relative_tolerance():
    # the small row is the hard one (an endpoint singularity): a tolerance
    # taken from the large row would leave it almost unrefined
    spec = QuadratureSpec(0.0, 1.0, rel_tol=1e-10, abs_tol=1e-30)
    small, large = integrate(
        lambda x: np.array([1e-9 * x ** -0.5, 1e3 * np.exp(x)]), spec)
    assert abs(small - 2e-9) <= 1e-10 * 2e-9
    assert abs(large - 1e3 * (math.e - 1.0)) <= 1e-10 * 1e3 * (math.e - 1.0)


def test_scalar_integrands_return_a_python_float():
    spec = QuadratureSpec(0.0, 1.0)
    assert type(integrate(np.exp, spec)) is float
    assert type(integrate(lambda x: math.exp(float(x)), spec)) is float


def test_non_finite_value_in_any_row_names_the_node():
    spec = QuadratureSpec(0.0, 1.0)
    with pytest.raises(NonFinite, match="in row 1") as info:
        integrate(lambda x: np.array([x, np.where(x > 0.5, np.nan, 1.0)]), spec)
    node = float(str(info.value).split("x=")[1].split()[0])
    assert 0.5 < node < 1.0


@pytest.mark.parametrize("f,lower,upper,message,batches", [
    # in the first sweep, in the last of three rows
    (lambda x: np.array([x, np.sqrt(x), np.where(x > 0.7, np.inf, x)]), 0.0, 1.0,
     "integrand returned a non-finite value near x=0.7004865596879937 in row 2", 1),
    # in the fourth sweep, as the sqrt row refines its corner at 0
    (lambda x: np.array([np.sqrt(x), np.where(x < 1e-4, np.nan, 1.0), x * x]),
     0.0, 1.0,
     "integrand returned a non-finite value near x=6.675491311865147e-05 in row 1", 4),
    # in the fourth sweep of the whole line's fold, where the tail row refines
    (lambda x: np.array([np.exp(-x * x),
                         np.where(np.abs(x) > 2000.0, -np.inf,
                                  (1.0 + np.abs(x)) ** -1.5)]),
     -math.inf, math.inf,
     "integrand returned a non-finite value near x=-3744.792682349868 in row 1", 4),
    # every node finite, one row's integral beyond the float range
    (lambda x: np.array([x, np.full(x.shape, 1.5e308)]), 0.0, 1.0,
     "an integral overflows the float range", 1),
], ids=["first_sweep", "later_sweep", "later_sweep_folded", "finite_overflow"])
def test_non_finite_messages_name_the_node_row_and_sweep(f, lower, upper, message,
                                                         batches):
    # the node is looked for only once a sum is not finite; the text is the
    # one a scan before the panel sums gives
    calls = []

    def counting(x):
        calls.append(x.size)
        return f(x)

    with pytest.raises(NonFinite) as info:
        integrate(counting, QuadratureSpec(lower, upper))
    assert str(info.value) == message
    assert len(calls) == batches


# Every node value is finite, but the integral is not: a panel's rule sum
# overflows (panel_sum, and split_sign and oscillating, whose error estimates
# come out NaN), or the panels' total does (panel_total).  In partial_sum,
# head panels of width 2 worth 0.75e308, 0.75e308, 1e308 and -1e308 have a
# finite pairwise total in numpy, but fsum's running sum overflows.
_PARTIAL = np.array([0.375e308, 0.375e308, 0.5e308, -0.5e308, 0.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("f,upper,match", [
    (lambda x: np.full(x.shape, 1.5e308), 1.0, "an integral overflows"),
    (lambda x: np.full(x.shape, 5e307), 8.0, "an integral overflows"),
    (lambda x: np.where(x < 0.5, 1.7e308, -1.7e308), 1.0, "an integral overflows"),
    (lambda x: 1.7e308 * np.sin(50.0 * x), 1.0, "an integral overflows"),
    (lambda x: _PARTIAL[np.minimum(x // 2.0, 7.0).astype(int)], 16.0,
     "a partial sum overflows"),
], ids=["panel_sum", "panel_total", "split_sign", "oscillating", "partial_sum"])
def test_overflowing_integral_raises_non_finite(f, upper, match):
    with pytest.raises(NonFinite, match=match):
        integrate(f, QuadratureSpec(0.0, upper))


def test_vector_determinism_bit_identical():
    spec = QuadratureSpec(0.0, 10.0)
    f = lambda x: np.array([np.sin(x) * np.exp(-0.3 * x), np.sqrt(x), x ** 3])
    assert integrate(f, spec).tobytes() == integrate(f, spec).tobytes()


def test_panel_at_the_float_spacing_raises():
    # a pole that is not integrable: bisection narrows the panels around it
    # until their nodes collapse onto it, where a panel's error estimate is 0
    # and its value huge, which must not pass as converged
    f = lambda x: np.maximum(np.abs(x - 0.3141592653589793), 1e-200) ** -1.2
    with pytest.raises(NonConvergence):
        integrate(f, QuadratureSpec(0.0, 1.0))
    with pytest.raises(NonConvergence, match="float spacing"):
        integrate(f, QuadratureSpec(0.0, 1.0, max_subdivisions=10_000))


def test_panel_narrowed_to_nothing_is_a_typed_error():
    # an escort weight whose bracket vanishes just inside the span, raised to
    # a negative power past a floor: refinement at the zero reaches the float
    # spacing, which must end in a typed error, not a 0/0 RuntimeWarning
    delta, lam3, power = 1.8845941873401648, -0.12962743191561407, -0.24699172001915193

    def weight(x):
        x_delta = np.power(x, delta)
        return x_delta * np.power(np.clip(1.0 + lam3 * x_delta, 1e-300, None), power)

    with pytest.raises(NonConvergence, match="float spacing"):
        integrate(weight, QuadratureSpec(0.0, 2.9568226780039493, rel_tol=1e-12,
                                         abs_tol=1e-14))


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(0.0, 1.0, rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=2)
    with pytest.raises(NonConvergence):
        integrate(lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-12), spec)


def test_nan_integrand_raises_non_finite():
    spec = QuadratureSpec(0.0, 1.0)
    with pytest.raises(NonFinite):
        integrate(lambda x: np.where(x > 0.5, np.nan, 1.0), spec)


def _reported_x(message):
    return float(re.search(r"x=(\S+)", message).group(1))


def test_non_finite_message_reports_x_on_a_folded_interval():
    # the node lies past x = 50, not at its folded t < 1
    with pytest.raises(NonFinite) as info:
        integrate(lambda x: np.where(x > 50.0, np.nan, np.exp(-x)),
                  QuadratureSpec(0.0, math.inf))
    assert 50.0 < _reported_x(str(info.value)) < 100.0


def test_narrowed_panel_message_reports_x_on_a_folded_interval():
    # refinement at the non-integrable point x = 100 reaches the float
    # spacing of t = 100/101
    with pytest.raises(NonConvergence, match="float spacing") as info:
        integrate(lambda x: np.abs(x - 100.0) ** -1.5,
                  QuadratureSpec(0.0, math.inf, max_subdivisions=100_000))
    assert _reported_x(str(info.value)) == pytest.approx(100.0, abs=1e-6)


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


@pytest.mark.parametrize("build,error,match", [
    (lambda: QuadratureSpec(0.0, 1.0, max_subdivisions=0), DomainError,
     "max_subdivisions"),
], ids=["no_subdivisions"])
def test_typed_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()
