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

Every distribution function comes from the substitution t = s|1-alpha| x^delta
(t = beta s x^delta at alpha = 1): with shapes r = gamma/delta and q, t is

    alpha < 1   Beta(r, q),         q = beta/(1-alpha) + 1
    alpha = 1   Gamma(r),           q = inf
    alpha > 1   beta-prime(r, q),   q = beta/(alpha-1) - r, i.e. t/(1+t) ~ Beta(r, q)

The `_Law` table is the one place where each law is stated, one row each: its
edge in t, the kernel's bracket in t, its Beta or Gamma normalizer, its log
moments E[ln t] and E[bracket log], the regularized incomplete function for
`cdf`, its exact inverse for `quantile`, and the generator's variates for
`sample` (Devroye, Non-Uniform Random Variate Generation, 1986, ch. IX).
`_substitution` picks the row; the functions that read it do not test the
regime.  `normalizing_constant_quadrature` recomputes the constant by
quadrature as a cross-check.  Above order 1 the kernel decays like
x^(gamma-1-delta*beta/(alpha-1)), so it is integrable only where q > 0;
elsewhere NotNormalizable is raised, never an unnormalized kernel.

The kernel is stated once, as `log_kernel` (log1p for the bracket), so large
delta or extreme x never produce inf * 0.  `density` is exp(ln c + ln g), the
log density `as_density_spec` hands the continuous measures: its values stay
finite where c itself leaves the float range.

The spec also carries the two continuous statistics in closed form, so the
entropies skip quadrature.  f^p is c^p times the kernel with gamma' =
p(gamma-1)+1 and beta' = p beta, so the integral of f^p is exp(p ln c -
ln c'), c' that kernel's constant; it diverges where gamma' <= 0 (the head)
or q' <= 0 (the power tail).  The Shannon entropy is -ln c - (gamma-1)
E[ln x] - E[bracket log] with E[ln x] = (E[ln t] - ln scale)/delta, from the
log moments of the row's law in the digamma function psi:

    alpha < 1   E[ln t] = psi(r) - psi(r+q),   E[ln(1-t)] = psi(q) - psi(r+q)
    alpha = 1   E[ln t] = psi(r),              E[t] = r
    alpha > 1   E[ln t] = psi(r) - psi(q),     E[ln(1+t)] = psi(r+q) - psi(q)

The named special cases (`special_case`) are fixed points of the family,
listed in one table with their free arguments, defaults and requirements.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .entropy_continuous import DensitySpec, _exp_in_float_range, _from_log_pdf
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


class _Law(NamedTuple):
    """The law of t in one regime; sp is scipy.special, rng a numpy Generator."""
    edge: float             # the support's upper end in t
    log_bracket: Callable   # (t, beta, |1-alpha|) -> ln of the bracket, weighted
    log_norm: Callable      # (r, q) -> ln of the Beta or Gamma normalizer
    log_moments: Callable   # (r, q, beta, |1-alpha|) -> E[ln t], E[log_bracket]
    cdf: Callable           # (sp, r, q, t) -> P(T <= t)
    ppf: Callable           # (sp, r, q, u) -> the t with P(T <= t) = u
    draw: Callable          # (rng, r, q, n) -> n variates of t


def _beta_prime_cdf(sp, r: float, q: float, t: float) -> float:
    if t <= 1.0:
        return sp.betainc(r, q, t / (1.0 + t))
    # beyond t = 1 the upper tail comes from 1/(1+t), which keeps its digits
    # as t grows where t/(1+t) rounds to 1
    return 1.0 - sp.betainc(q, r, 1.0 / (1.0 + t))


def _beta_ppf(sp, r: float, q: float, u: float) -> float:
    # Far down the lower tail betaincinv returns nan (at r, q, u = 3.2368,
    # 3.1822, 1e-300) or the smallest normal float (at 0.5, 2, 1e-200); there
    # I_w(r, q) = w^r / (r B(r, q)) * (1 + O(w)) is inverted in logs instead.
    w = float(sp.betaincinv(r, q, u))
    if w > sys.float_info.min:
        return w
    return math.exp((math.log(u) + math.log(r) + _BETA.log_norm(r, q)) / r)


def _beta_prime_ppf(sp, r: float, q: float, u: float) -> float:
    # t = w/(1-w) with w ~ Beta(r, q).  Past w = 1/2, 1 - w from the
    # complementary inverse keeps t accurate far out in the power tail, where w
    # itself rounds to 1.  Below u = 2^-8 the direct inverse stays, since 1 - u
    # would lose more than 2^-45 of u's relative precision.  A t past the float
    # range is inf.
    if u <= 0.5:
        w = _beta_ppf(sp, r, q, u)
        if not w > 0.5 or u < 2.0 ** -8:
            return w / (1.0 - w) if w < 1.0 else math.inf
    v = float(sp.betaincinv(q, r, 1.0 - u))
    return (1.0 - v) / v if v > 0.0 else math.inf


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence psi(x) = psi(x+1) - 1/x up to x >= 10,
    then the asymptotic series in the Bernoulli numbers (Abramowitz & Stegun
    6.3.18), all terms summed by `math.fsum`."""
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    w = 1.0 / (x * x)
    tail = w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w * (
        1 / 132 - w * (691 / 32760 - w / 12))))))
    terms += [math.log(x), -0.5 / x, -tail]
    return math.fsum(terms)


_BETA = _Law(
    1.0, lambda t, beta, gap: beta / gap * np.log1p(-np.minimum(t, 1.0)),
    lambda r, q: math.lgamma(r) + math.lgamma(q) - math.lgamma(r + q),
    lambda r, q, beta, gap: (_digamma(r) - _digamma(r + q),
                             beta / gap * (_digamma(q) - _digamma(r + q))),
    lambda sp, r, q, t: sp.betainc(r, q, min(t, 1.0)),
    _beta_ppf,
    lambda rng, r, q, n: rng.beta(r, q, n))
_GAMMA = _Law(
    math.inf, lambda t, beta, gap: -t,
    lambda r, q: math.lgamma(r),
    lambda r, q, beta, gap: (_digamma(r), -r),
    lambda sp, r, q, t: sp.gammainc(r, t),
    lambda sp, r, q, u: sp.gammaincinv(r, u),
    lambda rng, r, q, n: rng.standard_gamma(r, n))
# t/(1+t) is Beta(r, q), so the normalizer is B(r, q) as in the Beta row
_BETA_PRIME = _Law(
    math.inf, lambda t, beta, gap: -(beta / gap) * np.log1p(t),
    _BETA.log_norm,
    lambda r, q, beta, gap: (_digamma(r) - _digamma(q),
                             -(beta / gap) * (_digamma(r + q) - _digamma(q))),
    _beta_prime_cdf, _beta_prime_ppf,
    lambda rng, r, q, n: rng.standard_gamma(r, n) / rng.standard_gamma(q, n))


def support(params: PathwayParams) -> SupportInterval:
    """[0, (s(1-alpha))^(-1/delta)] below alpha = 1, [0, inf) at and above."""
    law, _, _, scale = _substitution(params)
    return SupportInterval(0.0, _upper(params, law, scale))


def _upper(params: PathwayParams, law: _Law, scale: float) -> float:
    # an infinite edge stays infinite, and so does a finite one past the float
    # range: inf is its float rounding, and every float x >= 0 lies inside it
    try:
        return _x_of_t(params, scale, law.edge) if law.edge < math.inf else math.inf
    except NonFinite:
        return math.inf


def is_normalizable(params: PathwayParams) -> bool:
    """True when the shape q of `_substitution` is positive: always at and
    below order 1, and above it when the power tail decays faster than x^-1."""
    return _substitution(params)[2] > 0.0


def _require_normalizable(params: PathwayParams) -> tuple[_Law, float, float, float]:
    """`_substitution` of normalizable params; NotNormalizable otherwise."""
    law, r, q, scale = _substitution(params)
    if not q > 0.0:
        raise NotNormalizable(
            "kernel is not integrable: need beta_exp/(alpha-1) > gamma/delta "
            f"for alpha > 1, got {params}")
    return law, r, q, scale


def _substitution(params: PathwayParams) -> tuple[_Law, float, float, float]:
    """(law, r, q, scale) of t = scale * x^delta: the row choice; q = inf at order 1."""
    a = params.alpha
    r = params.gamma / params.delta
    if a < 1.0:
        return _BETA, r, params.beta_exp / (1.0 - a) + 1.0, params.s * (1.0 - a)
    if a > 1.0:
        return _BETA_PRIME, r, params.beta_exp / (a - 1.0) - r, params.s * (a - 1.0)
    return _GAMMA, r, math.inf, params.beta_exp * params.s


def _x_of_t(params: PathwayParams, scale: float, t):
    """x = (t/scale)^(1/delta) of a float t >= 0, or of an array of them, mapped
    in place under an errstate that lets powers overflow; NonFinite where x is
    inf or nan."""
    power = 1.0 / params.delta
    try:
        # the product form keeps x within the edge x(t = 1) = scale^(-1/delta) for t <= 1
        factor = scale ** -power
        t **= power
        t *= factor
        x = t
    except OverflowError:
        # a factor is past the float range, where the quotient can still be inside it
        try:
            x = (t / scale) ** power
        except OverflowError:
            x = math.inf
    if not (x.max(initial=0.0) if isinstance(x, np.ndarray) else x) < math.inf:
        raise NonFinite(f"x = (t/{scale!r})^(1/{params.delta!r}) is not a finite float")
    return x


def normalizing_constant(params: PathwayParams) -> float:
    """Closed-form c with integral(c * kernel) = 1, computed in log space.
    Raises NonFinite when c lies outside the float range."""
    return _exp_in_float_range(_log_constant(params), "normalizing constant")


def _log_constant(params: PathwayParams) -> float:
    """ln c = ln delta + r ln scale - ln B(r, q), or - ln Gamma(r) at order 1."""
    law, r, q, scale = _require_normalizable(params)
    return math.log(params.delta) + r * math.log(scale) - law.log_norm(r, q)


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
    c = 1.0 / integral if integral > 0.0 else math.inf
    if not 0.0 < c < math.inf:
        raise NonFinite(f"normalizing constant 1/{integral!r} is outside the float range")
    return c


def log_kernel(params: PathwayParams, x):
    """log g(x) = (gamma-1) ln x + the law's bracket log at t = scale x^delta,
    vectorized; -inf where the kernel vanishes, everywhere outside the support too.
    At x = inf it is the limit as x grows."""
    law, _, q, scale = _substitution(params)
    x = np.asarray(x, dtype=float)
    # x = inf counts as outside: -inf is its limit wherever the kernel decays
    inside = (x >= 0.0) & (x <= min(_upper(params, law, scale), sys.float_info.max))
    xi = np.where(inside, x, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = (params.gamma - 1.0) * np.log(xi)   # -+inf at x = 0
        if params.gamma == 1.0:   # x^0 is 1 at the origin, not 0 * -inf
            power = np.where(xi == 0.0, 0.0, power)
        t = scale * xi ** params.delta
        bracket = law.log_bracket(t, params.beta_exp, abs(1.0 - params.alpha))
    out = np.where(inside, power + bracket, -math.inf)
    # Above order 1, g behaves like x^(-1 - delta q) as x grows.  A kernel that
    # does not decay (delta q <= -1, never normalizable) rises without bound,
    # or at delta q = -1 tends to scale^(-beta/(alpha-1)).
    tail = params.delta * q
    if tail <= -1.0:
        limit = -params.beta_exp / (params.alpha - 1.0) * math.log(scale)
        out = np.where(x == math.inf, limit if tail == -1.0 else math.inf, out)
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
    """P(X <= x): the law's regularized incomplete function at t = scale x^delta."""
    law, r, q, scale = _require_normalizable(params)
    x = float(x)
    if math.isnan(x):
        raise DomainError("cdf needs a number, got nan")
    if x <= 0.0:
        return 0.0
    if x >= _upper(params, law, scale):
        return 1.0
    return float(law.cdf(_special(), r, q, scale * x ** params.delta))


def quantile(params: PathwayParams, u: float) -> float:
    """Exact inverse of `cdf` through the inverse incomplete Beta or Gamma
    function, exact at u = 0 and 1, where non-normalizable params raise too."""
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"quantile level must lie in [0, 1], got {u}")
    law, r, q, scale = _require_normalizable(params)
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return _upper(params, law, scale)
    # a Python float t: a power past the float range raises, where numpy warns
    return _x_of_t(params, scale, float(law.ppf(_special(), r, q, u)))


def sample(params: PathwayParams, n: int, seed: int) -> np.ndarray:
    """n draws from a seeded generator; deterministic per seed.

    t is drawn from its law (the beta-prime ratio Gamma(r)/Gamma(q) stays
    exact deep in the power tail) and mapped back to x, at a tenth to a
    twentieth of the cost of the exact inverse on general shapes.
    """
    if n < 0:
        raise DomainError("sample count must be non-negative")
    law, r, q, scale = _require_normalizable(params)
    # a draw of t or x past the float range comes out inf, which `_x_of_t` raises
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _x_of_t(params, scale, law.draw(np.random.default_rng(seed), r, q, n))


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
    finite where the kernel is positive, even if c leaves the float range.
    Its power integral and Shannon entropy are the closed forms below."""
    interval = support(params)
    return _from_log_pdf(_log_density(params), interval.lower, interval.upper,
                         functools.partial(_power_integral, params),
                         functools.partial(_shannon_entropy, params))


def _power_integral(params: PathwayParams, p: float) -> float:
    """integral of f^p = exp(p ln c - ln c'), c' the constant of the kernel
    g^p: NonFinite where that kernel is not integrable, or where the value
    lies outside the float range."""
    gamma = p * (params.gamma - 1.0) + 1.0
    if not gamma > 0.0:
        raise NonFinite(f"integral of f^{p!r} diverges at the head: "
                        f"p(gamma-1)+1 = {gamma!r} <= 0")
    beta = p * params.beta_exp
    if beta == 0.0 and params.alpha < 1.0:
        # below order 1 beta' enters only as q' = beta'/(1-alpha) + 1, which
        # rounds to 1 for every beta' under 2^-53 (1-alpha): the smallest
        # float in place of an underflowed p beta gives the limit exactly
        beta = math.ulp(0.0)
    if not (gamma < math.inf and 0.0 < beta < math.inf):
        raise NonFinite(f"integral of f^{p!r} is outside the float range: the kernel g^p "
                        f"needs gamma' = {gamma!r}, beta' = {beta!r}")
    prime = PathwayParams(params.alpha, gamma, params.delta, params.s, beta)
    q = _substitution(prime)[2]
    if not q > 0.0:
        raise NonFinite(f"integral of f^{p!r} diverges in the power tail: q' = {q!r} <= 0")
    try:
        log_prime = _log_constant(prime)
    except OverflowError as exc:   # math.lgamma of a shape above 2.5e305
        raise NonFinite(f"integral of f^{p!r} is outside the float range: ln Gamma "
                        f"overflows for the kernel g^p, {prime}") from exc
    return _exp_in_float_range(p * _log_constant(params) - log_prime,
                               f"integral of f^{p!r} =")


def _shannon_entropy(params: PathwayParams) -> float:
    """-E[ln f] = -ln c - (gamma-1) (E[ln t] - ln scale)/delta - E[bracket log]."""
    law, r, q, scale = _require_normalizable(params)
    log_t, log_bracket = law.log_moments(r, q, params.beta_exp, abs(1.0 - params.alpha))
    value = (-_log_constant(params)
             - (params.gamma - 1.0) * (log_t - math.log(scale)) / params.delta - log_bracket)
    if not math.isfinite(value):
        raise NonFinite(f"Shannon entropy {value!r} is outside the float range")
    return value

