"""Continuous analogues of the entropy families over densities on an interval.

A density is a callable plus its declared support.  The five order-alpha
measures replace the discrete power sum with the integral of f^alpha (or
f^(2-alpha) for the mathai forms), evaluated by the adaptive quadrature in
`pathway_entropy.quadrature`; the Shannon measure is -A * integral f ln f.

The product-composition law carries over verbatim: for the independent joint
density f(x) g(y) the joint measure equals F(f) + F(g) + a(alpha) F(f) F(g).
`composition_residual_continuous` evaluates the joint side by genuinely
iterated two-dimensional quadrature (inner integral per outer node) rather
than through the separable shortcut, so the residual really does compare two
independently computed routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .entropy_discrete import (
    AlphaOrder,
    EntropyFamily,
    _from_statistic,
    composition_coefficient,
    validate_order,
)
from .errors import DomainError, InvalidDistribution, NonFinite
from .quadrature import QuadratureSpec, integrate

__all__ = [
    "DensitySpec",
    "uniform_density",
    "exponential_density",
    "gaussian_density",
    "density_power_integral",
    "continuous_entropy",
    "composition_residual_continuous",
]

_NORMALIZATION_TOL = 1e-8


@dataclass(frozen=True)
class DensitySpec:
    """Density callable with declared support [lower, upper].

    Endpoints may be infinite.  `checked()` verifies unit mass by quadrature;
    the bundled constructors below are normalized in closed form.  Negative
    density values are clamped to zero and a NaN value raises NonFinite; the
    order-alpha measures of a density with zero mass raise DomainError.
    """

    pdf: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float

    def __post_init__(self) -> None:
        lo = float(self.lower)
        hi = float(self.upper)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise InvalidDistribution(
                f"support must satisfy lower < upper, got [{lo}, {hi}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def quadrature_spec(self, template: QuadratureSpec | None = None) -> QuadratureSpec:
        """Integration spec over this support, tolerances taken from
        `template` when given."""
        if template is None:
            return QuadratureSpec(self.lower, self.upper)
        return replace(template, lower=self.lower, upper=self.upper)

    def checked(self, spec: QuadratureSpec | None = None) -> "DensitySpec":
        """Verify unit mass by quadrature; returns the spec itself."""
        total = integrate(lambda x: _values(self, x), self.quadrature_spec(spec))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise InvalidDistribution(
                f"density mass is {total!r}, outside 1 +/- {_NORMALIZATION_TOL}")
        return self


def _values(f: DensitySpec, x: np.ndarray) -> np.ndarray:
    # negative round-off values of a pdf are clamped to zero; NaN is an error
    v = np.asarray(f.pdf(x), dtype=float)
    if np.isnan(v).any():
        raise NonFinite("density returned NaN")
    return np.where(v > 0.0, v, 0.0)


def _power(c: float) -> Callable[[np.ndarray], np.ndarray]:
    """Integrand term v^c of density values v, with 0^c = 0."""
    return lambda v: np.where(v > 0.0, v ** c, 0.0)


def _shannon(v: np.ndarray) -> np.ndarray:
    """Integrand term -v ln v of density values v, with 0 ln 0 = 0."""
    return np.where(v > 0.0, -v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)


def uniform_density(lower: float = 0.0, upper: float = 1.0) -> DensitySpec:
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise InvalidDistribution("uniform support must be a finite interval")
    height = 1.0 / (upper - lower)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lower) & (x <= upper), height, 0.0)

    return DensitySpec(pdf, lower, upper)


def exponential_density(rate: float = 1.0) -> DensitySpec:
    if not (rate > 0 and math.isfinite(rate)):
        raise InvalidDistribution("exponential rate must be positive")

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, rate * np.exp(-rate * x), 0.0)

    return DensitySpec(pdf, 0.0, math.inf)


def gaussian_density(mean: float = 0.0, sd: float = 1.0) -> DensitySpec:
    if not (sd > 0 and math.isfinite(sd) and math.isfinite(mean)):
        raise InvalidDistribution("gaussian needs finite mean and positive sd")
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def pdf(x):
        x = np.asarray(x, dtype=float)
        z = (x - mean) / sd
        return norm * np.exp(-0.5 * z * z)

    return DensitySpec(pdf, -math.inf, math.inf)


def density_power_integral(f: DensitySpec, exponent: float,
                           spec: QuadratureSpec | None = None) -> float:
    """integral of f(x)^exponent over the support, with 0^exponent = 0."""
    if not exponent > 0:
        raise DomainError("power integral needs a positive exponent")
    term = _power(exponent)
    return integrate(lambda x: term(_values(f, x)), f.quadrature_spec(spec))


def continuous_entropy(f: DensitySpec, family: EntropyFamily, order: AlphaOrder,
                       spec: QuadratureSpec | None = None) -> float:
    """Entropy of the density under the chosen family and order.

    Same order-1 dispatch as the discrete case: at alpha exactly 1 each
    family returns its true limit, the Shannon integral times
    `shannon_limit_constant` (1/ln 2 for havrda_charvat, 1 otherwise).
    """
    validate_order(family, order)
    return _from_statistic(
        family, order,
        lambda: integrate(lambda x: _shannon(_values(f, x)), f.quadrature_spec(spec)),
        lambda c: density_power_integral(f, c, spec))


def _joint(f: DensitySpec, g: DensitySpec, spec: QuadratureSpec | None,
           term: Callable[[np.ndarray], np.ndarray]) -> float:
    """Iterated integral of term(f(x) g(y)): the outer quadrature over x runs
    one inner adaptive quadrature over y at each of its nodes."""
    inner_spec = g.quadrature_spec(spec)

    def inner(fx: float) -> float:
        if fx <= 0.0:
            return 0.0
        return integrate(lambda y: term(fx * _values(g, y)), inner_spec)

    def outer(x):
        fx = _values(f, x)
        return np.array([inner(float(v)) for v in fx.ravel()]).reshape(fx.shape)

    return integrate(outer, f.quadrature_spec(spec))


def composition_residual_continuous(f: DensitySpec, g: DensitySpec,
                                    family: EntropyFamily, order: AlphaOrder,
                                    spec: QuadratureSpec | None = None) -> float:
    """F(fg) - [F(f) + F(g) + a(alpha) F(f) F(g)] for the independent joint
    density f(x) g(y), the joint term computed by iterated 2D quadrature.

    Exact algebraically; the returned residual is quadrature-limited
    (order 1e-6 is the working contract for well-behaved densities).
    """
    validate_order(family, order)
    value_f = continuous_entropy(f, family, order, spec)
    value_g = continuous_entropy(g, family, order, spec)
    joint = _from_statistic(family, order,
                            lambda: _joint(f, g, spec, _shannon),
                            lambda c: _joint(f, g, spec, _power(c)))
    coef = composition_coefficient(family, order)
    return joint - (value_f + value_g + coef * value_f * value_g)
