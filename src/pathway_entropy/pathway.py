"""Scalar pathway density family with power, stretch, scale and tail knobs.

The kernel on x >= 0 is

    g(x) = x^(gamma-1) * [1 - s(1-alpha) x^delta]^(beta/(1-alpha))

with gamma, delta, s, beta > 0.  The tail parameter alpha moves the family
through three regimes without changing the other knobs:

    alpha < 1   finite support [0, (s(1-alpha))^(-1/delta)], beta-type kernel
    alpha = 1   half-line stretched exponential x^(gamma-1) exp(-beta s x^delta)
    alpha > 1   half-line power tail [1 + s(alpha-1) x^delta]^(-beta/(alpha-1))

The alpha = 1 branch is selected by exact parameter equality and equals the
two-sided limit of the others, so density curves vary continuously in alpha.

Every distribution function comes from the substitution t = s|1-alpha| x^delta,
which turns the kernel integral into a Beta (alpha != 1) or Gamma (alpha = 1)
integral with shapes r = gamma/delta and q:

    alpha < 1   t ~ Beta(r, beta/(1-alpha) + 1)
    alpha = 1   beta*s*x^delta ~ Gamma(r)
    alpha > 1   t ~ BetaPrime(r, beta/(alpha-1) - r), i.e. t/(1+t) ~ Beta(r, q)

so the constant is a Beta or Gamma function, `cdf` is the regularized
incomplete Beta or Gamma function, `quantile` is its exact inverse, and
`sample` draws t with the generator's Beta and Gamma variates (Devroye,
Non-Uniform Random Variate Generation, 1986, ch. IX) and maps it back to x.
`normalizing_constant_quadrature` recomputes the constant by adaptive
quadrature so the two routes can be checked against each other.
For alpha > 1 the kernel decays like x^(gamma - 1 - delta*beta/(alpha-1)),
hence integrability requires beta/(alpha-1) - gamma/delta > 0; violations
raise NotNormalizable instead of silently returning an unnormalized kernel.

The kernel is stated once, as `log_kernel` (log1p for the bracket), so large
delta or extreme x never produce inf * 0.  `density` is exp(ln c + ln g), the
log density `as_density_spec` hands the continuous measures: its values stay
finite where c itself leaves the float range.

The named special cases (`special_case`) are fixed points of the family,
listed in one table with their free arguments, defaults and requirements.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy_continuous import _LOG_MAX, DensitySpec, _from_log_pdf
from .errors import DomainError, NonFinite, NotNormalizable, UnknownName
from .quadrature import QuadratureSpec, _spec_over, integrate

__all__ = [
    "PathwayParams",
    "SupportInterval",
    "support",
    "is_normalizable",
    "normalizing_constant",
    "normalizing_constant_quadrature",
    "log_kernel",
    "kernel",
    "kernel_derivative",
    "density",
    "cdf",
    "quantile",
    "sample",
    "special_case",
    "SPECIAL_CASE_NAMES",
    "as_density_spec",
]


@dataclass(frozen=True)
class PathwayParams:
    alpha: float
    gamma: float = 1.0
    delta: float = 1.0
    s: float = 1.0
    beta_exp: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma", "delta", "s", "beta_exp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        for name in ("gamma", "delta", "s", "beta_exp"):
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SupportInterval:
    lower: float
    upper: float


def support(params: PathwayParams) -> SupportInterval:
    """[0, (s(1-alpha))^(-1/delta)] below alpha = 1, [0, inf) at and above."""
    if params.alpha < 1.0:
        return SupportInterval(0.0, _substitution(params)[2] ** (-1.0 / params.delta))
    return SupportInterval(0.0, math.inf)


def is_normalizable(params: PathwayParams) -> bool:
    """Kernel integrability over the support.

    Automatic for alpha <= 1; for alpha > 1 the power tail must decay faster
    than x^-1, i.e. the beta-prime shape q = beta/(alpha-1) - gamma/delta of
    `_substitution` is positive.
    """
    return params.alpha <= 1.0 or _substitution(params)[1] > 0.0


def _require_normalizable(params: PathwayParams) -> None:
    if not is_normalizable(params):
        raise NotNormalizable(
            "kernel is not integrable: need beta_exp/(alpha-1) > gamma/delta "
            f"for alpha > 1, got {params}")


def _substitution(params: PathwayParams) -> tuple[float, float | None, float]:
    """(r, q, scale) of t = scale * x^delta: t is Beta(r, q) below order 1,
    Gamma(r) at order 1 (q is None there) and beta-prime(r, q) above it."""
    a = params.alpha
    b = params.beta_exp
    s = params.s
    r = params.gamma / params.delta
    if a < 1.0:
        return r, b / (1.0 - a) + 1.0, s * (1.0 - a)
    if a > 1.0:
        return r, b / (a - 1.0) - r, s * (a - 1.0)
    return r, None, b * s


def _x_of_t(params: PathwayParams, scale: float, t):
    # scale^(-1/delta) is the support edge below order 1, and t <= 1 there,
    # so the product never lands past the edge
    return scale ** (-1.0 / params.delta) * t ** (1.0 / params.delta)


def normalizing_constant(params: PathwayParams) -> float:
    """Closed-form c with integral(c * kernel) = 1, computed in log space.
    Raises NonFinite when c lies outside the float range."""
    log_c = _log_constant(params)
    return _in_float_range(math.exp(log_c) if log_c <= _LOG_MAX else math.inf,
                           f"exp({log_c!r})")


def _in_float_range(c: float, formula: str) -> float:
    if not 0.0 < c < math.inf:
        raise NonFinite(f"normalizing constant {formula} is outside the float range")
    return c


def _log_constant(params: PathwayParams) -> float:
    """ln c = ln delta + r ln scale - ln B(r, q), or - ln Gamma(r) at order 1."""
    _require_normalizable(params)
    r, q, scale = _substitution(params)
    log_shape = math.lgamma(r) if q is None else _log_beta(r, q)
    return math.log(params.delta) + r * math.log(scale) - log_shape


def _log_beta(p: float, q: float) -> float:
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def normalizing_constant_quadrature(params: PathwayParams,
                                    spec: QuadratureSpec | None = None) -> float:
    """c recomputed as 1 / integral(kernel): the cross-check route.
    Raises NonFinite when c lies outside the float range."""
    _require_normalizable(params)
    interval = support(params)
    try:
        integral = integrate(functools.partial(kernel, params),
                             _spec_over(interval.lower, interval.upper, spec))
    except NonFinite as exc:   # the kernel or its integral overflows: c underflows
        raise NonFinite(f"normalizing constant 1/integral(kernel) is outside "
                        f"the float range: {exc}") from exc
    return _in_float_range(1.0 / integral if integral > 0.0 else math.inf,
                           f"1/{integral!r}")


def log_kernel(params: PathwayParams, x):
    """log g(x), vectorized; -inf where the kernel vanishes (including
    everywhere outside the support)."""
    a = params.alpha
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= support(params).upper)
    xi = np.where(inside, x, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = (params.gamma - 1.0) * np.log(xi)   # -+inf at x = 0
        if params.gamma == 1.0:   # x^0 is 1 at the origin, not 0 * -inf
            power = np.where(xi == 0.0, 0.0, power)
        if a == 1.0:
            bracket = -params.beta_exp * params.s * xi ** params.delta
        else:
            t = params.s * (1.0 - a) * xi ** params.delta
            bracket = (params.beta_exp / (1.0 - a)) * np.log1p(-np.minimum(t, 1.0))
    out = np.where(inside, power + bracket, -math.inf)
    return out if out.ndim else float(out)


def kernel(params: PathwayParams, x):
    """Unnormalized kernel g(x); 0 outside the support."""
    return _exp(log_kernel(params, x))


def _exp(log_values):
    """exp of a log array, inf past the float range; a float for a scalar."""
    with np.errstate(over="ignore"):
        return np.exp(log_values) if np.ndim(log_values) else float(np.exp(log_values))


def kernel_derivative(params: PathwayParams, x):
    """Analytic dg/dx = g(x)/x [(gamma-1) u - s beta delta x^delta] / u with
    u = 1 - s(1-alpha) x^delta, exactly 1 at alpha = 1; g/x from the log."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("kernel_derivative needs x > 0")
    xd = x ** params.delta
    u = 1.0 - params.s * (1.0 - params.alpha) * xd
    if np.any(u <= 0.0):
        raise DomainError("kernel_derivative needs x interior to the support")
    slope = (params.gamma - 1.0) * u - params.s * params.beta_exp * params.delta * xd
    return _exp(log_kernel(params, x) - np.log(x)) * (slope / u)


def density(params: PathwayParams, x):
    """Normalized density exp(ln c + ln g(x)); 0 outside the support."""
    return _exp(_log_density(params)(x))


def _log_density(params: PathwayParams):
    """x -> ln f(x) = ln c + ln g(x): the one statement of the density."""
    log_c = _log_constant(params)
    return lambda x: log_c + log_kernel(params, x)


@functools.cache
def _special():
    """scipy.special, imported on the first `cdf` or `quantile` call: it is
    most of the package's import time and nothing else here needs it."""
    import scipy.special
    return scipy.special


def cdf(params: PathwayParams, x: float) -> float:
    """P(X <= x): the regularized incomplete Beta or Gamma function at the
    substituted point t = s|1-alpha| x^delta."""
    _require_normalizable(params)
    x = float(x)
    if math.isnan(x):
        raise DomainError("cdf needs a number, got nan")
    if x <= 0.0:
        return 0.0
    if x >= support(params).upper:
        return 1.0
    r, q, scale = _substitution(params)
    t = scale * x ** params.delta
    sp = _special()
    if q is None:
        return float(sp.gammainc(r, t))
    if params.alpha < 1.0:
        return float(sp.betainc(r, q, min(t, 1.0)))
    if t <= 1.0:
        return float(sp.betainc(r, q, t / (1.0 + t)))
    # beyond t = 1 the upper tail comes from 1/(1+t), which keeps its digits
    # as t grows where t/(1+t) rounds to 1
    return float(1.0 - sp.betainc(q, r, 1.0 / (1.0 + t)))


def quantile(params: PathwayParams, u: float) -> float:
    """Exact inverse of `cdf` through the inverse incomplete Beta or Gamma
    function; exact endpoints at u = 0 and 1."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"quantile level must lie in [0, 1], got {u}")
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return support(params).upper
    _require_normalizable(params)
    r, q, scale = _substitution(params)
    sp = _special()
    if q is None:
        t = sp.gammaincinv(r, u)
    elif params.alpha < 1.0:
        t = sp.betaincinv(r, q, u)
    elif u <= 0.5:
        w = sp.betaincinv(r, q, u)
        t = w / (1.0 - w)
    else:
        # 1 - w from the complementary inverse keeps t = w/(1-w) finite and
        # accurate far out in the power tail
        v = sp.betaincinv(q, r, 1.0 - u)
        t = (1.0 - v) / v
    return float(_x_of_t(params, scale, t))


def sample(params: PathwayParams, n: int, seed: int) -> np.ndarray:
    """n draws from a seeded generator; deterministic per seed.

    The substituted t is drawn directly, then mapped back to x: Beta(r, q)
    variates below order 1, Gamma(r) at order 1, and the beta-prime ratio
    Gamma(r)/Gamma(q) above it, which stays exact deep in the power tail.
    These transforms are used instead of pushing uniforms through the exact
    inverse because, on general shapes, the inverse incomplete Beta or Gamma
    function costs ten to twenty times as much per draw.
    """
    if n < 0:
        raise DomainError("sample count must be non-negative")
    _require_normalizable(params)
    r, q, scale = _substitution(params)
    rng = np.random.default_rng(seed)
    if q is None:
        t = rng.standard_gamma(r, n)
    elif params.alpha < 1.0:
        t = rng.beta(r, q, n)
    else:
        t = rng.standard_gamma(r, n) / rng.standard_gamma(q, n)
    return _x_of_t(params, scale, t)


# Each named point: its free arguments with their defaults, the builder of
# its PathwayParams(alpha, gamma, delta, s) from them, then requirements
# (test on the arguments, message that may quote them) checked in order.
_SPECIAL_CASES = {
    "tsallis_q_exponential": ({"alpha": 1.5}, PathwayParams),
    "type1_beta": ({"alpha": 0.5, "gamma": 1.0, "delta": 1.0, "s": 1.0}, PathwayParams,
                   (lambda a: a["alpha"] < 1.0, "requires alpha < 1")),
    "type2_beta": ({"alpha": 1.5, "gamma": 1.0, "delta": 1.0, "s": 1.0}, PathwayParams,
                   (lambda a: a["alpha"] > 1.0, "requires alpha > 1")),
    "stretched_exponential": ({"delta": 1.0, "s": 1.0}, functools.partial(PathwayParams, 1.0)),
    "maxwell_boltzmann": ({"s": 1.0}, lambda s: PathwayParams(1.0, 3.0, 2.0, s)),
    "gaussian_half": ({"s": 1.0}, lambda s: PathwayParams(1.0, 1.0, 2.0, s)),
    "weibull": ({"shape": 2.0, "s": 1.0}, lambda shape, s: PathwayParams(1.0, shape, shape, s),
                (lambda a: a["shape"] > 0, "requires shape > 0")),
    "wigner": ({"q": 2.0, "beta_scale": 1.0},
               lambda q, beta_scale: PathwayParams(q, 1.0, 2.0, beta_scale),
               (lambda a: 1.0 < a["q"] < 3.0, "requires 1 < q < 3, got {q}"),
               (lambda a: a["beta_scale"] > 0, "requires beta_scale > 0")),
}
SPECIAL_CASE_NAMES = tuple(_SPECIAL_CASES)


def special_case(name: str, **kwargs) -> PathwayParams:
    """Named parameter points of the family.

    tsallis_q_exponential(alpha)            [1 + (alpha-1) x]^(-1/(alpha-1))
    type1_beta(alpha, gamma, delta, s)      finite support, alpha < 1
    type2_beta(alpha, gamma, delta, s)      power tail, alpha > 1
    stretched_exponential(delta, s)         exp(-s x^delta)
    maxwell_boltzmann(s)                    x^2 exp(-s x^2)
    gaussian_half(s)                        exp(-s x^2) on the half-line
    weibull(shape, s)                       x^(k-1) exp(-s x^k)
    wigner(q, beta_scale)                   [1 + beta_scale (q-1) x^2]^(-1/(q-1)),
                                            1 < q < 3 (the scale rides the s slot)
    """
    if name not in SPECIAL_CASE_NAMES:
        raise UnknownName(f"unknown special case {name!r}; "
                          f"known: {', '.join(SPECIAL_CASE_NAMES)}")
    defaults, build, *requirements = _SPECIAL_CASES[name]
    extra = set(kwargs) - set(defaults)
    if extra:
        raise DomainError(f"{name} got unexpected arguments {sorted(extra)}")
    got = {**defaults, **kwargs}
    for holds, message in requirements:
        if not holds(got):
            raise DomainError(f"{name} {message.format(**got)}")
    return build(**got)


def as_density_spec(params: PathwayParams) -> DensitySpec:
    """Bridge into the continuous-entropy interface: ln f = ln c + ln g stays
    finite where the kernel is positive, even if c leaves the float range."""
    interval = support(params)
    return _from_log_pdf(_log_density(params), interval.lower, interval.upper)
