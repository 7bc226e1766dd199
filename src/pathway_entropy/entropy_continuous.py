"""Continuous analogues of the entropy families over densities on an interval.

A density is a callable plus its declared support.  The five order-alpha
measures replace the discrete power sum with the integral of f^alpha (or
f^(2-alpha) for the mathai forms); the Shannon measure is -A * integral f ln f.
Closed forms come first: when a spec states these two statistics, as every
bundled density does, the measures read them; otherwise they are evaluated by
the adaptive quadrature in `pathway_entropy.quadrature`, and a `spec`
argument sets the tolerances of that quadrature only.
`density_power_integral`, `DensitySpec.checked`, the `divergence` forms and
the joint side of the composition residual always integrate, so they
cross-check the closed forms.  Every integrand is a function of ln f, read
as `DensitySpec` describes.

The product-composition law carries over verbatim: for the independent joint
density f(x) g(y) the joint measure equals F(f) + F(g) + a(alpha) F(f) F(g).
`composition_residual_continuous` evaluates the joint side by genuinely
iterated two-dimensional quadrature rather than through the separable
shortcut, so the residual really does compare two independently computed
routes.  Each outer sweep runs one vector-valued inner pass over y, with one
row per outer node x, so the inner integrals share panels while each meets
its own tolerance.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
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
from .quadrature import QuadratureSpec, _evaluate, _spec_over, integrate

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
_LOWEST = -sys.float_info.max
_LOG_MAX = math.log(sys.float_info.max)   # the largest exponent exp keeps finite


@dataclass(frozen=True)
class DensitySpec:
    """Density callable with declared support [lower, upper].

    Endpoints may be infinite.  `checked()` verifies unit mass by quadrature;
    the bundled constructors below are normalized in closed form.  Every
    measure reads the density as ln f, in one place: `log_pdf` when given,
    else the log of `pdf`, where zero, negative round-off and underflowed
    values read as -inf and add nothing.  A NaN raises NonFinite.  A
    `log_pdf` (the bundled densities supply one) stays finite where f
    underflows, so its tail still counts in integrands such as f q^p.  The
    order-alpha measures of a density with zero mass raise DomainError.
    `pdf` and `log_pdf` may be vectorized or scalar-only: each node batch
    probes them on the array, then calls a scalar-only one once per node.

    `power_integral(c)`, the integral of f^c, and `shannon()`, -integral
    f ln f, state those statistics in closed form when given (the bundled
    densities supply both).  `continuous_entropy` and the 1-D sides of
    `composition_residual_continuous` call them in place of the quadrature;
    a spec without them, such as any user density, is integrated.
    """

    pdf: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    log_pdf: Callable[[np.ndarray], np.ndarray] | None = field(default=None, kw_only=True)
    power_integral: Callable[[float], float] | None = field(default=None, kw_only=True)
    shannon: Callable[[], float] | None = field(default=None, kw_only=True)

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
        return _spec_over(self.lower, self.upper, template)

    def checked(self, spec: QuadratureSpec | None = None) -> "DensitySpec":
        """Verify unit mass by quadrature; returns the spec itself."""
        total = integrate(lambda x: np.exp(_log_values(self, x)), self.quadrature_spec(spec))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise InvalidDistribution(
                f"density mass is {total!r}, outside 1 +/- {_NORMALIZATION_TOL}")
        return self


def _log_values(f: DensitySpec, x: np.ndarray) -> np.ndarray:
    """ln f at the nodes x: the only call of a density's pdf or log_pdf.
    Without a log_pdf, pdf values that are not positive read as -inf;
    NaN raises."""
    if f.log_pdf is not None:
        logs = _evaluate(f.log_pdf, x)
    else:
        v = _evaluate(f.pdf, x)
        # "not v <= 0" lets NaN through to the check below
        logs = np.log(v, out=np.full(v.shape, -math.inf), where=~(v <= 0.0))
    if np.isnan(logs).any():
        raise NonFinite("density returned NaN")
    return logs


def _power(c: float) -> Callable[[np.ndarray], np.ndarray]:
    """Integrand term f^c = exp(c ln f) of the logs ln f.  A term past the
    float range is inf, which `integrate` raises as NonFinite."""
    def term(logs):
        with np.errstate(over="ignore"):
            return np.exp(c * logs)
    return term


def _shannon(logs: np.ndarray) -> np.ndarray:
    """Integrand term -f ln f of the logs ln f: -inf steps up to the lowest
    float, where exp is already 0, so 0 ln 0 = 0.  A term past the float
    range is -inf, which `integrate` raises as NonFinite."""
    with np.errstate(over="ignore"):
        return -np.exp(logs) * np.maximum(logs, _LOWEST)


def _expected_power(f: DensitySpec, q: DensitySpec, p: float,
                    spec: QuadratureSpec | None = None) -> float:
    """E_f[q^p], the integral of exp(ln f + p ln q) over f's support.  A q
    that is zero where f's value is a positive float raises DomainError; where
    f has underflowed too, the term is 0.  A term past the float range raises
    NonFinite: E_f[q^p] diverges."""
    def integrand(x):
        lf = _log_values(f, x)
        lq = lf if q is f else _log_values(q, x)
        zero = lq == -math.inf
        if (np.exp(np.minimum(lf[zero], 0.0)) > 0.0).any():
            raise DomainError("assigned density is zero where f has mass")
        e = lf + p * np.where(zero, 0.0, lq)
        e[zero] = -math.inf
        if (e > _LOG_MAX).any():
            raise NonFinite(f"E_f[q^p] diverges at p = {p!r}: f q^p overflows "
                            f"near x={float(x[np.argmax(e)])!r}")
        return np.exp(e)

    return integrate(integrand, f.quadrature_spec(spec))


def _exp_in_float_range(log_value: float, what: str) -> float:
    """exp(log_value) from a closed-form log; NonFinite naming `what`, never
    OverflowError, when it is 0, inf or nan."""
    value = math.exp(log_value) if log_value <= _LOG_MAX else math.inf
    if not 0.0 < value < math.inf:
        raise NonFinite(f"{what} exp({log_value!r}) is outside the float range")
    return value


def uniform_density(lower: float = 0.0, upper: float = 1.0) -> DensitySpec:
    """Uniform on [lower, upper]: integral f^c = (U-L)^(1-c), Shannon ln(U-L)."""
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper):
        raise InvalidDistribution("uniform support must be a finite interval")
    log_height = -math.log(upper - lower)

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lower) & (x <= upper), log_height, -math.inf)

    return _from_log_pdf(log_pdf, lower, upper,
                         lambda c: _exp_in_float_range((c - 1.0) * log_height,
                                                       f"integral of f^{c!r} ="),
                         lambda: -log_height)


def exponential_density(rate: float = 1.0) -> DensitySpec:
    """rate * exp(-rate x) on [0, inf): integral f^c = rate^(c-1)/c, Shannon
    1 - ln rate."""
    if not (rate > 0 and math.isfinite(rate)):
        raise InvalidDistribution("exponential rate must be positive")
    log_rate = math.log(rate)

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, log_rate - rate * x, -math.inf)

    return _from_log_pdf(log_pdf, 0.0, math.inf,
                         lambda c: _exp_in_float_range((c - 1.0) * log_rate - math.log(c),
                                                       f"integral of f^{c!r} ="),
                         lambda: 1.0 - log_rate)


def gaussian_density(mean: float = 0.0, sd: float = 1.0) -> DensitySpec:
    """Normal(mean, sd^2): integral f^c = (2 pi sd^2)^((1-c)/2) / sqrt(c),
    Shannon ln(2 pi e sd^2)/2."""
    if not (sd > 0 and math.isfinite(sd) and math.isfinite(mean)):
        raise InvalidDistribution("gaussian needs finite mean and positive sd")
    log_norm = -math.log(sd * math.sqrt(2.0 * math.pi))

    def log_pdf(x):
        z = (np.asarray(x, dtype=float) - mean) / sd
        return log_norm - 0.5 * z * z

    return _from_log_pdf(log_pdf, -math.inf, math.inf,
                         lambda c: _exp_in_float_range((c - 1.0) * log_norm - 0.5 * math.log(c),
                                                       f"integral of f^{c!r} ="),
                         lambda: 0.5 - log_norm)


def _from_log_pdf(log_pdf: Callable, lower: float, upper: float,
                  power_integral: Callable[[float], float],
                  shannon: Callable[[], float]) -> DensitySpec:
    """The density stated once, in log form, with its two statistics in
    closed form; its pdf is the exp of the log form."""
    return DensitySpec(lambda x: np.exp(log_pdf(x)), lower, upper, log_pdf=log_pdf,
                       power_integral=power_integral, shannon=shannon)


def density_power_integral(f: DensitySpec, exponent: float,
                           spec: QuadratureSpec | None = None) -> float:
    """integral of f(x)^exponent over the support, with 0^exponent = 0, by
    quadrature even where the spec states it in closed form: the cross-check."""
    if not exponent > 0:
        raise DomainError("power integral needs a positive exponent")
    term = _power(exponent)
    return integrate(lambda x: term(_log_values(f, x)), f.quadrature_spec(spec))


def continuous_entropy(f: DensitySpec, family: EntropyFamily, order: AlphaOrder,
                       spec: QuadratureSpec | None = None) -> float:
    """Entropy of the density under the chosen family and order.

    Same order-1 dispatch as the discrete case: at alpha exactly 1 each
    family returns its true limit, the Shannon integral times
    `shannon_limit_constant` (1/ln 2 for havrda_charvat, 1 otherwise).
    The statistic comes from the spec's closed form when it states one,
    else by quadrature; `spec` sets the tolerances of the quadrature only.
    """
    validate_order(family, order)
    return _from_statistic(
        family, order,
        f.shannon or (lambda: integrate(lambda x: _shannon(_log_values(f, x)),
                                        f.quadrature_spec(spec))),
        f.power_integral or (lambda c: density_power_integral(f, c, spec)))


def _joint(f: DensitySpec, g: DensitySpec, spec: QuadratureSpec | None,
           term: Callable[[np.ndarray], np.ndarray]) -> float:
    """Iterated integral of term(ln f(x) + ln g(y)): each outer sweep's
    batch of nodes x runs one vector-valued inner quadrature over y, one row
    per node where f has mass, so the rows share panels while each meets its
    own tolerance.  Nodes where f is zero contribute 0 without an inner pass.
    """
    inner_spec = g.quadrature_spec(spec)

    def outer(x):
        lf = _log_values(f, x)
        out = np.zeros(lf.shape)
        live = lf > -math.inf
        if live.any():
            rows = lf[live]
            out[live] = integrate(
                lambda y: term(np.add.outer(rows, _log_values(g, y))), inner_spec)
        return out

    return integrate(outer, f.quadrature_spec(spec))


def composition_residual_continuous(f: DensitySpec, g: DensitySpec,
                                    family: EntropyFamily, order: AlphaOrder,
                                    spec: QuadratureSpec | None = None) -> float:
    """F(fg) - [F(f) + F(g) + a(alpha) F(f) F(g)] for the independent joint
    density f(x) g(y), the joint term computed by iterated 2D quadrature and
    F(f), F(g) by `continuous_entropy`, from closed forms where stated.

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
