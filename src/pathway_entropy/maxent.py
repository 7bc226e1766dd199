"""Constrained maximum-entropy densities on a grid.

`solve` maximizes the continuous mathai-form entropy, (integral of
f^(2-alpha) minus 1)/(alpha - 1), over densities supported on the grid
span, subject to fixed power moments.  The optimizer never walks nodal
values directly: stationarity forces every maximizer into the family

    f(x) = [(lam_1 + sum_j lam_{j+1} x**e_j) / (2 - alpha)]**(1/(1-alpha))

so the solver root-finds the multipliers against the constraints with a
damped Newton iteration and an analytic Jacobian.  Constraint integrals are
evaluated by adaptive quadrature over the span, not by grid sums: a
trapezoid sum carries an O(h^2) discretization bias that would drag the
fitted multipliers away from the continuous optimum and spoil round-trips
against closed-form densities.  Nodal trapezoid sums of a returned solution
therefore normalize to 1 + O(h^2) while the underlying continuous density
normalizes to quadrature precision.

For alpha < 1 the family exponent 1/(1-alpha) is positive and the bracket
clamps at zero, which is where compact support comes from.  For alpha > 1
the exponent is negative and the bracket must stay positive on the whole
span.  `solve_escort` handles the variant that maximizes the integral of
f^alpha while the mean of x**delta under the normalized f^alpha weight is
held fixed; its maximizers land in the family

    f(x) = lam1 * (1 + lam3 * x**delta)**(1/(1-alpha))

which is the plain stationarity family in disguise (expand f^(1-alpha)),
so both variants share one residual check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .entropy_discrete import MATHAI_M, AlphaOrder, validate_order
from .errors import (
    DomainError,
    Infeasible,
    InvalidOrder,
    NonConvergence,
    NonFinite,
)
from .quadrature import QuadratureSpec, find_root, integrate

__all__ = [
    "MaxEntVariant",
    "MomentConstraint",
    "MaxEntProblem",
    "MaxEntSolution",
    "trapezoid_weights",
    "stationary_density",
    "discrete_objective",
    "euler_residual",
    "solve",
    "solve_escort",
]

# Newton stops once every constraint integral sits within this of its
# target; the quadrature tolerances below must be tighter than this.
_NEWTON_TOL = 1e-10
_MAX_NEWTON = 80
_QUAD_REL = 1e-12
_QUAD_ABS = 1e-14
# Positive floor for brackets raised to negative powers (alpha > 1).
_POS_FLOOR = 1e-300


class MaxEntVariant(Enum):
    PLAIN = "plain"
    ESCORT = "escort"


@dataclass(frozen=True)
class MomentConstraint:
    """Fixed expectation: integral of x**exponent times the density."""

    exponent: float
    target: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.exponent) and math.isfinite(self.target)):
            raise DomainError("constraint exponent and target must be finite")
        if self.exponent == 0.0:
            raise DomainError(
                "exponent 0 is the normalization constraint, which is always imposed"
            )


@dataclass(frozen=True, eq=False)
class MaxEntProblem:
    """A grid, an order, and the moments the density must honor.

    The grid fixes both the optimization domain (its span) and where the
    solution density is tabulated.  Normalization is implicit; `constraints`
    lists only the extra power moments.
    """

    grid: np.ndarray
    order: AlphaOrder
    constraints: tuple[MomentConstraint, ...] = ()
    variant: MaxEntVariant = MaxEntVariant.PLAIN

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 3:
            raise DomainError("grid must be a one-dimensional vector of >= 3 points")
        if not np.all(np.isfinite(grid)):
            raise DomainError("grid points must be finite")
        if not np.all(np.diff(grid) > 0.0):
            raise DomainError("grid points must be strictly increasing")
        if grid[0] < 0.0:
            raise DomainError("grid must lie on the nonnegative half line")
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        validate_order(MATHAI_M, self.order)
        if self.order.alpha == 1.0:
            raise InvalidOrder("order 1 has no power-form stationary family")
        constraints = tuple(self.constraints)
        for con in constraints:
            if not isinstance(con, MomentConstraint):
                raise DomainError("constraints must be MomentConstraint instances")
            if con.exponent < 0.0 and grid[0] == 0.0:
                raise DomainError(
                    "negative moment exponents need a grid bounded away from zero"
                )
        object.__setattr__(self, "constraints", constraints)
        if not isinstance(self.variant, MaxEntVariant):
            raise DomainError("variant must be a MaxEntVariant")

    @property
    def span(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    @property
    def exponents(self) -> tuple[float, ...]:
        return tuple(con.exponent for con in self.constraints)

    @property
    def targets(self) -> tuple[float, ...]:
        return tuple(con.target for con in self.constraints)


@dataclass(frozen=True, eq=False)
class MaxEntSolution:
    """Fitted density values over the problem grid plus the multipliers.

    `multipliers` starts with the normalization multiplier, then one entry
    per constraint in problem order; escort solutions instead store the
    leading scale and the fitted bracket coefficient.  `objective` is the
    trapezoid-discretized functional value over the stored grid (the plain
    entropy objective, or the integral of f^alpha for escort solutions).
    """

    density_values: np.ndarray
    multipliers: np.ndarray
    objective: float
    euler_residual: float

    def __post_init__(self) -> None:
        dens = np.asarray(self.density_values, dtype=float).copy()
        mult = np.asarray(self.multipliers, dtype=float).copy()
        if dens.ndim != 1 or not np.all(np.isfinite(dens)):
            raise DomainError("density values must be a finite vector")
        if np.any(dens < 0.0):
            raise DomainError("density values must be nonnegative")
        if mult.ndim != 1 or not np.all(np.isfinite(mult)):
            raise DomainError("multipliers must be a finite vector")
        dens.flags.writeable = False
        mult.flags.writeable = False
        object.__setattr__(self, "density_values", dens)
        object.__setattr__(self, "multipliers", mult)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Cell widths whose dot product with nodal values is the trapezoid rule."""
    g = np.asarray(grid, dtype=float)
    w = np.empty_like(g)
    w[0] = (g[1] - g[0]) / 2.0
    w[-1] = (g[-1] - g[-2]) / 2.0
    w[1:-1] = (g[2:] - g[:-2]) / 2.0
    return w


def _bracket(lam: np.ndarray, exponents: Sequence[float], x: np.ndarray) -> np.ndarray:
    # Runs on every quadrature batch: fill and in-place adds spare the
    # temporaries that would double its cost.
    x = np.asarray(x, dtype=float)
    acc = np.empty(x.shape)
    acc.fill(lam[0])
    for coeff, expo in zip(lam[1:].tolist(), exponents):
        acc += coeff * np.power(x, expo)
    return acc


def _clipped_power(b: np.ndarray, power: float, vanish: bool) -> np.ndarray:
    # With `vanish` the result is 0 wherever the bracket is not positive
    # (compact support), and the power runs only on the rest; a NaN bracket
    # is not zeroed, so the integrator still sees it.  Otherwise the bracket
    # is floored just above zero so a negative power stays finite.
    if vanish:
        return np.power(b, power, out=np.zeros(b.shape), where=~(b <= 0.0))
    return np.power(np.clip(b, _POS_FLOOR, None), power)


def _family_power(alpha: float, lam: np.ndarray, exponents: Sequence[float],
                  x: np.ndarray, power: float) -> np.ndarray:
    # f itself at power 1/(1-alpha); f^alpha at alpha/(1-alpha), which stays
    # integrable at a support edge for every admissible order.  Below order 1
    # both vanish past the edge: f^alpha is the derivative weight of the
    # clipped family, which is 0 there for every power.
    return _clipped_power(_bracket(lam, exponents, x) / (2.0 - alpha), power,
                          alpha < 1.0)


def stationary_density(order: AlphaOrder, multipliers: Sequence[float],
                       exponents: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized callable for the stationary family at fixed multipliers.

    `multipliers` holds the normalization multiplier first, then one entry
    per exponent, matching the layout of plain `MaxEntSolution.multipliers`.
    """
    lam = np.asarray(multipliers, dtype=float)
    exps = tuple(float(e) for e in exponents)
    if lam.ndim != 1 or lam.size != len(exps) + 1:
        raise DomainError("need one multiplier per exponent plus the leading one")
    alpha = order.alpha

    def f(x: np.ndarray) -> np.ndarray:
        return _family_power(alpha, lam, exps, x, 1.0 / (1.0 - alpha))

    return f


def _moment(shape: Callable[[np.ndarray], np.ndarray], expo: float,
            lower: float, upper: float) -> float:
    def integrand(x: np.ndarray) -> np.ndarray:
        return np.power(np.asarray(x, dtype=float), expo) * shape(x)

    # expo 0 skips the power, which is exactly 1 but costs a third of a call
    spec = QuadratureSpec(lower, upper, rel_tol=_QUAD_REL, abs_tol=_QUAD_ABS)
    return integrate(shape if expo == 0.0 else integrand, spec)


def _guard_positive(alpha: float, lam: np.ndarray, exponents: Sequence[float],
                    grid: np.ndarray) -> None:
    # For alpha > 1 the family blows up where the bracket crosses zero, so a
    # Newton candidate whose bracket dips nonpositive anywhere on the span is
    # rejected before any integral is attempted.
    if alpha < 1.0:
        return
    probe = np.union1d(grid, (grid[:-1] + grid[1:]) / 2.0)
    if np.min(_bracket(lam, exponents, probe)) <= 0.0:
        raise NonFinite("stationary-family bracket lost positivity on the span")


def _constraint_gaps(f: Callable[[np.ndarray], np.ndarray], exponents: Sequence[float],
                     targets: Sequence[float], lower: float, upper: float) -> np.ndarray:
    gaps = np.array([_moment(f, 0.0, lower, upper) - 1.0]
                    + [_moment(f, e, lower, upper) - t
                       for e, t in zip(exponents, targets)])
    if not np.all(np.isfinite(gaps)):
        raise NonFinite("constraint integral did not come out finite")
    return gaps


def _jacobian(alpha: float, lam: np.ndarray, exponents: Sequence[float],
              lower: float, upper: float) -> np.ndarray:
    # d(moment_j)/d(lam_k) = integral of x^(e_j + e_k) f^alpha
    #                        / ((1 - alpha) (2 - alpha)); symmetric.
    all_exps = (0.0,) + tuple(exponents)
    coeff = 1.0 / ((1.0 - alpha) * (2.0 - alpha))

    def f_alpha(x: np.ndarray) -> np.ndarray:
        return _family_power(alpha, lam, exponents, x, alpha / (1.0 - alpha))

    n = len(all_exps)
    jac = np.empty((n, n))
    for j in range(n):
        for k in range(j, n):
            val = _moment(f_alpha, all_exps[j] + all_exps[k], lower, upper)
            jac[j, k] = jac[k, j] = coeff * val
    return jac


def _check_attainable(exponent: float, target: float, lower: float,
                      upper: float) -> None:
    ends = (np.power(lower, exponent) if lower > 0.0 or exponent > 0.0 else np.inf,
            np.power(upper, exponent))
    lo, hi = min(ends), max(ends)
    if not lo < target < hi:
        raise Infeasible(
            f"target {target!r} for exponent {exponent!r} lies outside the "
            f"open range ({lo!r}, {hi!r}) spanned by the grid"
        )


def _newton(problem: MaxEntProblem, lam0: np.ndarray) -> np.ndarray:
    alpha = problem.order.alpha
    lower, upper = problem.span
    exponents = problem.exponents
    targets = problem.targets

    def gaps_of(lam: np.ndarray) -> np.ndarray:
        _guard_positive(alpha, lam, exponents, problem.grid)
        return _constraint_gaps(stationary_density(problem.order, lam, exponents),
                                exponents, targets, lower, upper)

    lam = lam0
    gaps = gaps_of(lam)
    for _ in range(_MAX_NEWTON):
        if np.max(np.abs(gaps)) <= _NEWTON_TOL:
            return lam
        jac = _jacobian(alpha, lam, exponents, lower, upper)
        try:
            step = np.linalg.solve(jac, -gaps)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence("singular Jacobian in multiplier iteration") from exc
        scale = 1.0
        while True:
            try:
                cand = lam + scale * step
                cand_gaps = gaps_of(cand)
            except NonFinite:
                cand_gaps = None
            if cand_gaps is not None and (
                    np.linalg.norm(cand_gaps) < np.linalg.norm(gaps)
                    or np.max(np.abs(cand_gaps)) <= _NEWTON_TOL):
                lam, gaps = cand, cand_gaps
                break
            scale /= 2.0
            if scale < 2.0 ** -14:
                raise NonConvergence("multiplier line search stalled")
    if np.max(np.abs(gaps)) <= _NEWTON_TOL:
        return lam
    raise NonConvergence("multiplier iteration exhausted its budget")


def discrete_objective(density_values: np.ndarray, problem: MaxEntProblem) -> float:
    """Trapezoid discretization of the plain entropy objective on the grid."""
    alpha = problem.order.alpha
    dens = np.asarray(density_values, dtype=float)
    if dens.shape != problem.grid.shape:
        raise DomainError("density values must match the problem grid")
    weights = trapezoid_weights(problem.grid)
    power = float(np.sum(np.power(dens, 2.0 - alpha) * weights))
    return (power - 1.0) / (alpha - 1.0)


def _residual(alpha: float, grid: np.ndarray, density: np.ndarray,
              lam: np.ndarray, exponents: Sequence[float]) -> float:
    mask = density > 0.0
    if int(np.count_nonzero(mask)) < 2:
        raise DomainError("density must be positive on at least two grid points")
    x = grid[mask]
    lead = (2.0 - alpha) * np.power(density[mask], 1.0 - alpha)
    terms = [np.full(x.shape, lam[0])]
    terms += [coeff * np.power(x, expo) for coeff, expo in zip(lam[1:], exponents)]
    terms = np.stack(terms)
    gap = lead - terms.sum(axis=0)
    scale = max(float(np.max(np.abs(lead))), float(np.max(np.abs(terms))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(gap)) / scale)


def euler_residual(density_values: np.ndarray, problem: MaxEntProblem,
                   multipliers: np.ndarray) -> float:
    """Max-abs stationarity violation, scaled by the largest term magnitude.

    Checks (2 - alpha) f^(1 - alpha) against the multiplier combination of
    the constraint weights at every grid point where the density is
    positive.  Escort solutions carry transformed multipliers and are
    checked inside `solve_escort`, so only plain problems are accepted here.
    """
    if problem.variant is not MaxEntVariant.PLAIN:
        raise DomainError("euler_residual checks plain problems; escort "
                          "solutions are validated by solve_escort")
    dens = np.asarray(density_values, dtype=float)
    lam = np.asarray(multipliers, dtype=float)
    if dens.shape != problem.grid.shape:
        raise DomainError("density values must match the problem grid")
    if lam.ndim != 1 or lam.size != len(problem.constraints) + 1:
        raise DomainError("need one multiplier per constraint plus the leading one")
    return _residual(problem.order.alpha, problem.grid, dens, lam,
                     problem.exponents)


def solve(problem: MaxEntProblem) -> MaxEntSolution:
    """Maximize the entropy objective subject to the problem's moments.

    Returns the stationary-family density tabulated on the grid.  Raises
    Infeasible when a target cannot be met by any density on the span and
    NonConvergence when the multiplier iteration fails.
    """
    if problem.variant is not MaxEntVariant.PLAIN:
        raise DomainError("solve handles plain problems; use solve_escort")
    alpha = problem.order.alpha
    lower, upper = problem.span
    for con in problem.constraints:
        _check_attainable(con.exponent, con.target, lower, upper)

    # Start from the uniform density on the span (the unconstrained
    # maximizer), retrying from rescaled multipliers if Newton stalls.
    lam_uniform = (2.0 - alpha) * (1.0 / (upper - lower)) ** (1.0 - alpha)
    lam0 = np.zeros(len(problem.constraints) + 1)
    lam0[0] = lam_uniform
    last: NonConvergence | None = None
    for factor in (1.0, 0.5, 2.0, 0.1, 10.0):
        try:
            lam = _newton(problem, lam0 * factor)
            break
        except NonConvergence as exc:
            last = exc
    else:
        raise last if last is not None else NonConvergence("no multiplier fit")

    dens = stationary_density(problem.order, lam, problem.exponents)(problem.grid)
    return MaxEntSolution(
        density_values=dens,
        multipliers=lam,
        objective=discrete_objective(dens, problem),
        euler_residual=_residual(alpha, problem.grid, dens, lam,
                                 problem.exponents),
    )


def _escort_shape(alpha: float, lam3: float, delta: float,
                  power: float) -> Callable[[np.ndarray], np.ndarray]:
    # (1 + lam3 x**delta)**power.  Here f^alpha is the weight itself, not a
    # derivative, so past a support edge it is 0 only at a positive power:
    # f^0 is 1 and a negative power keeps the floored bracket.
    lam = np.array([1.0, lam3])
    vanish = alpha < 1.0 and power > 0.0

    def shape(x: np.ndarray) -> np.ndarray:
        return _clipped_power(_bracket(lam, (delta,), x), power, vanish)

    return shape


def _escort_mean(alpha: float, lam3: float, delta: float, lower: float,
                 upper: float) -> float:
    weight = _escort_shape(alpha, lam3, delta, alpha / (1.0 - alpha))
    num = _moment(weight, delta, lower, upper)
    den = _moment(weight, 0.0, lower, upper)
    if den <= 0.0 or not (math.isfinite(num) and math.isfinite(den)):
        raise NonFinite("escort weight carried no mass on the span")
    return num / den


def solve_escort(problem: MaxEntProblem, delta: float = 1.0, *,
                 lambda3: float | None = None) -> MaxEntSolution:
    """Fit the escort-constrained maximizer on the problem grid.

    The fitted density is lam1 * (1 + lam3 * x**delta)**(1/(1-alpha)) with
    lam1 set by normalization and lam3 chosen so the mean of x**delta under
    the normalized f^alpha weight hits the single constraint's target.
    Passing `lambda3` freezes the bracket coefficient instead, in which case
    the problem needs no constraint; `multipliers` on the result holds
    (lam1, lam3).
    """
    if problem.variant is not MaxEntVariant.ESCORT:
        raise DomainError("solve_escort needs a problem with the escort variant")
    if not math.isfinite(delta) or delta <= 0.0:
        raise DomainError("escort weight exponent must be positive and finite")
    if problem.grid.size < 4:
        raise Infeasible("degenerate grid: the escort fit needs at least two "
                         "interior points")
    alpha = problem.order.alpha
    lower, upper = problem.span

    if lambda3 is None:
        if len(problem.constraints) != 1:
            raise DomainError("escort solve expects exactly one moment constraint")
        con = problem.constraints[0]
        if con.exponent != delta:
            raise DomainError("constraint exponent must equal the escort "
                              "weight exponent")
        _check_attainable(delta, con.target, lower, upper)
        lam3 = _fit_lambda3(alpha, delta, con.target, lower, upper)
    else:
        if not math.isfinite(lambda3):
            raise DomainError("lambda3 must be finite")
        if alpha > 1.0 and 1.0 + lambda3 * upper ** delta <= 0.0:
            raise DomainError("frozen lambda3 makes the bracket nonpositive "
                              "on the span")
        lam3 = float(lambda3)

    shape = _escort_shape(alpha, lam3, delta, 1.0 / (1.0 - alpha))
    mass = _moment(shape, 0.0, lower, upper)
    if mass <= 0.0 or not math.isfinite(mass):
        raise Infeasible("escort family carries no normalizable mass on the span")
    lam1 = 1.0 / mass
    dens = lam1 * shape(problem.grid)

    # Same stationarity identity as the plain family once f^(1-alpha) is
    # expanded, so the shared residual applies with transformed multipliers.
    lead = (2.0 - alpha) * lam1 ** (1.0 - alpha)
    resid = _residual(alpha, problem.grid, dens,
                      np.array([lead, lead * lam3]), (delta,))

    weights = trapezoid_weights(problem.grid)
    escort_objective = float(np.sum(np.power(dens, alpha) * weights))
    return MaxEntSolution(
        density_values=dens,
        multipliers=np.array([lam1, lam3]),
        objective=escort_objective,
        euler_residual=resid,
    )


def _fit_lambda3(alpha: float, delta: float, target: float, lower: float,
                 upper: float) -> float:
    def gap(lam3: float) -> float:
        return _escort_mean(alpha, lam3, delta, lower, upper) - target

    # Under the weight (1 + lam3 x**delta)**p, p = alpha/(1-alpha), the escort
    # mean of x**delta has derivative p * Cov(x**delta, x**delta/(1 + lam3
    # x**delta)).  Both rise with x**delta, so by Chebyshev's sum inequality
    # the covariance is >= 0 and the mean moves only in the direction of p:
    # one geometric ladder, up or down, brackets every reachable target.  The
    # bracket must stay positive on the span when alpha > 1, which bounds
    # lam3 below.
    g_here, l_here = gap(0.0), 0.0
    if g_here == 0.0:
        return 0.0
    if (g_here < 0.0) == (0.0 < alpha < 1.0):
        ladder = [2.0 ** k for k in range(-20, 62)]
    elif alpha > 1.0:
        floor = -1.0 / upper ** delta
        ladder = [floor + (0.0 - floor) * 0.5 ** k for k in range(1, 50)]
    else:
        ladder = [-(2.0 ** k) for k in range(-20, 60)]
    for cand in ladder:
        try:
            g_cand = gap(cand)
        except (NonFinite, NonConvergence):
            # Off the end of the usable coefficient range: integrals diverge
            # (or overflow) there, so stop expanding.
            break
        if g_cand == 0.0:
            return cand
        if (g_cand < 0.0) != (g_here < 0.0):
            return find_root(gap, sorted((l_here, cand)), tol=1e-13)
        g_here, l_here = g_cand, cand
    raise Infeasible("no bracket coefficient reaches the escort target on "
                     "this span")
