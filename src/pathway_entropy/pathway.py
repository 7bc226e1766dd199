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

Kernel evaluation runs in log space (log1p for the bracket) so that large
delta or extreme x never produce inf * 0 intermediates.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entropy_continuous import DensitySpec
from .errors import DomainError, NotNormalizable, UnknownName
from .quadrature import QuadratureSpec, integrate

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
        edge = (params.s * (1.0 - params.alpha)) ** (-1.0 / params.delta)
        return SupportInterval(0.0, edge)
    return SupportInterval(0.0, math.inf)


def is_normalizable(params: PathwayParams) -> bool:
    """Kernel integrability over the support.

    Automatic for alpha <= 1; for alpha > 1 the power tail must decay faster
    than x^-1, i.e. beta/(alpha-1) - gamma/delta > 0.
    """
    if params.alpha <= 1.0:
        return True
    tail = params.beta_exp / (params.alpha - 1.0) - params.gamma / params.delta
    return tail > 0.0


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
    """Closed-form c with integral(c * kernel) = 1, computed in log space."""
    _require_normalizable(params)
    r, q, scale = _substitution(params)
    log_shape = math.lgamma(r) if q is None else _log_beta(r, q)
    log_c = math.log(params.delta) + r * math.log(scale) - log_shape
    return math.exp(log_c)


def _log_beta(p: float, q: float) -> float:
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def normalizing_constant_quadrature(params: PathwayParams,
                                    spec: QuadratureSpec | None = None) -> float:
    """c recomputed as 1 / integral(kernel): the cross-check route."""
    _require_normalizable(params)
    interval = support(params)
    unnormalized = DensitySpec(lambda x: kernel(params, x), interval.lower, interval.upper)
    return 1.0 / integrate(unnormalized.pdf, unnormalized.quadrature_spec(spec))


def log_kernel(params: PathwayParams, x):
    """log g(x), vectorized; -inf where the kernel vanishes (including
    everywhere outside the support)."""
    a = params.alpha
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.full(x.shape, -math.inf)
    inside = (x >= 0.0) & (x <= support(params).upper)
    xi = np.where(inside, x, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(xi > 0.0,
                         (params.gamma - 1.0) * np.log(np.where(xi > 0.0, xi, 1.0)),
                         (0.0 if params.gamma == 1.0 else
                          (-math.inf if params.gamma > 1.0 else math.inf)))
        if a == 1.0:
            bracket = -params.beta_exp * params.s * xi ** params.delta
        else:
            t = params.s * (1.0 - a) * xi ** params.delta
            bracket = (params.beta_exp / (1.0 - a)) * np.log1p(-np.minimum(t, 1.0))
    out[inside] = (power + bracket)[inside]
    return float(out[0]) if scalar else out


def kernel(params: PathwayParams, x):
    """Unnormalized kernel g(x); 0 outside the support."""
    lg = log_kernel(params, x)
    with np.errstate(over="ignore"):
        return np.exp(lg) if np.ndim(lg) else float(np.exp(lg))


def kernel_derivative(params: PathwayParams, x):
    """Analytic dg/dx.

    g'(x) = x^(gamma-2) u^(m-1) [ (gamma-1) u - s beta delta x^delta ]
    with u = 1 - s(1-alpha) x^delta and m = beta/(1-alpha); at alpha = 1 the
    bracket factor u^(m-1) becomes exp(-beta s x^delta) with u = 1.
    """
    a = params.alpha
    g = params.gamma
    d = params.delta
    s = params.s
    b = params.beta_exp
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x <= 0.0):
        raise DomainError("kernel_derivative needs x > 0")
    if a == 1.0:
        u = np.ones_like(x)
        tail = np.exp(-b * s * x ** d)
    else:
        u = 1.0 - s * (1.0 - a) * x ** d
        if np.any(u <= 0.0):
            raise DomainError("kernel_derivative needs x interior to the support")
        tail = u ** (b / (1.0 - a) - 1.0)
    value = x ** (g - 2.0) * tail * ((g - 1.0) * u - s * b * d * x ** d)
    return float(value[0]) if scalar else value


def density(params: PathwayParams, x):
    """Normalized density c * g(x); 0 outside the support."""
    c = normalizing_constant(params)
    value = kernel(params, x)
    return c * value


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


SPECIAL_CASE_NAMES = (
    "tsallis_q_exponential",
    "type1_beta",
    "type2_beta",
    "stretched_exponential",
    "maxwell_boltzmann",
    "gaussian_half",
    "weibull",
    "wigner",
)


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
    def take(allowed: dict) -> dict:
        extra = set(kwargs) - set(allowed)
        if extra:
            raise DomainError(f"{name} got unexpected arguments {sorted(extra)}")
        merged = dict(allowed)
        merged.update(kwargs)
        return merged

    if name == "tsallis_q_exponential":
        got = take({"alpha": 1.5})
        return PathwayParams(alpha=got["alpha"], gamma=1.0, delta=1.0, s=1.0)
    if name == "type1_beta":
        got = take({"alpha": 0.5, "gamma": 1.0, "delta": 1.0, "s": 1.0})
        if not got["alpha"] < 1.0:
            raise DomainError("type1_beta requires alpha < 1")
        return PathwayParams(**got)
    if name == "type2_beta":
        got = take({"alpha": 1.5, "gamma": 1.0, "delta": 1.0, "s": 1.0})
        if not got["alpha"] > 1.0:
            raise DomainError("type2_beta requires alpha > 1")
        return PathwayParams(**got)
    if name == "stretched_exponential":
        got = take({"delta": 1.0, "s": 1.0})
        return PathwayParams(alpha=1.0, gamma=1.0, **got)
    if name == "maxwell_boltzmann":
        got = take({"s": 1.0})
        return PathwayParams(alpha=1.0, gamma=3.0, delta=2.0, s=got["s"])
    if name == "gaussian_half":
        got = take({"s": 1.0})
        return PathwayParams(alpha=1.0, gamma=1.0, delta=2.0, s=got["s"])
    if name == "weibull":
        got = take({"shape": 2.0, "s": 1.0})
        if not got["shape"] > 0:
            raise DomainError("weibull requires shape > 0")
        return PathwayParams(alpha=1.0, gamma=got["shape"], delta=got["shape"],
                             s=got["s"])
    if name == "wigner":
        got = take({"q": 2.0, "beta_scale": 1.0})
        if not 1.0 < got["q"] < 3.0:
            raise DomainError(f"wigner requires 1 < q < 3, got {got['q']}")
        if not got["beta_scale"] > 0:
            raise DomainError("wigner requires beta_scale > 0")
        return PathwayParams(alpha=got["q"], gamma=1.0, delta=2.0,
                             s=got["beta_scale"])
    raise UnknownName(f"unknown special case {name!r}; "
                      f"known: {', '.join(SPECIAL_CASE_NAMES)}")


def as_density_spec(params: PathwayParams) -> DensitySpec:
    """Bridge into the continuous-entropy interface."""
    c = normalizing_constant(params)
    interval = support(params)

    def pdf(x):
        return c * np.exp(log_kernel(params, np.asarray(x, dtype=float)))

    return DensitySpec(pdf, interval.lower, interval.upper)
