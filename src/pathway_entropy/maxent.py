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

Every constraint integral is taken in u on [0, 1], with x = lower + w u**3
and w = upper - lower.  The rows x**e f have a singular slope at x = 0 for
a fractional e, which adaptive bisection can reach only one corner panel
per sweep; in u they go like u**(3e + 2), which the first Kronrod panels
resolve, so an integral converges in about one sweep.

Each Newton candidate costs one vector-valued quadrature pass: the bracket
is evaluated once per node, and the rows x**e_j f (the constraint gaps) and
x**(e_j + e_k) f^alpha (the Jacobian) share the panels.  The Jacobian of the
accepted candidate drives the next step, so there is no separate Jacobian
pass; the escort fit likewise takes its mean and the mean's slope from one
pass.  What does not depend on the multipliers is formed once a fit, in
the one object that takes all of the fit's integrals: its table maps each
distinct batch of nodes u, per span, to the powers x**e of the fit's rows
(y = x**delta for the escort fit) and to 3 w u**2.  Every Newton
candidate, escort-mean pass and the escort mass pass reads it.  Nearly
every pass converges in its first sweep, on the same head batch, so most
passes only read it, and what they read is, bit for bit, what forming it
again would give.  Above order 1 the rows x**e at the positivity probe's
points are formed once a fit too.

For alpha < 1 the family exponent 1/(1-alpha) is positive and the bracket
clamps at zero, which is where compact support comes from.  For alpha > 1
the exponent is negative and the bracket must stay positive on the whole
span.  `solve_escort` handles the variant that maximizes the integral of
f^alpha while the mean of x**delta under the normalized f^alpha weight is
held fixed; its maximizers land in the family

    f(x) = lam1 * (1 + lam3 * x**delta)**(1/(1-alpha))

which is the plain stationarity family in disguise (expand f^(1-alpha)),
so both variants share one residual check.  Above order 1 and below order 0
the escort weight f^alpha has a negative exponent, so lam3 stays above
-1/upper**delta, where the bracket is positive on the whole span.  For
0 <= alpha < 1 a negative lam3 ends the support at (-1/lam3)**(1/delta), and
the escort integrals stop at that edge; at order 0 the weight f^0 is a step
there, which only the edge, not bisection, resolves exactly.  At order 0 an
escort target above the mean at lam3 = 0 raises Infeasible after one pass.

lam3 is fitted by safeguarded Newton (rtsafe; Numerical Recipes, 3rd ed.,
9.4) on the escort mean m of y = x**delta under w = b**p, with b = 1 +
lam3 y and p = alpha/(1-alpha).  Its slope is p Cov_w(y, y/b), and both
factors rise with y, so m is monotone in lam3 (rising for 0 <= alpha < 1,
falling otherwise) and the sign of m(0) - target says where the root lies.
Every step stays inside the current sign-change bracket: a Newton step that
leaves it, or fails to halve the last step, gives way to bisection, or to
doubling outward while only one side is known.  The slope comes from the
pass that gives m, in one of two forms:

  lam3 >= 0   b >= 1 on the span, and two more rows give
              m' = p (E_w[y^2/b] - m E_w[y/b])
  lam3 < 0    no more rows: with z = (-1/lam3)**(1/delta), x = z s leaves
              lam3 only in the limits of integration, and
              m' = -(delta m + [x w (y - m)] from lower to upper / D) / (delta lam3)
              with D the integral of w and w taken at the span's ends

The rows y^2 w/b carry b**(p-1), singular where b vanishes: at the support
edge below order 1 and at the floor -1/upper**delta.  A zero of b within
1e-8 of upper leaves them unconverged where the mean's own rows converge,
so they are only formed where b >= 1.
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
from .quadrature import QuadratureSpec, integrate

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
# Every constraint integral is taken in u on [0, 1]; see `_Nodes`.
_U_SPEC = QuadratureSpec(0.0, 1.0, rel_tol=_QUAD_REL, abs_tol=_QUAD_ABS)
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


def _clipped_power(b: np.ndarray, power: float, vanish: bool) -> np.ndarray:
    # With `vanish` the result is 0 wherever the bracket is not positive
    # (compact support), and the power runs only on the rest; a NaN bracket
    # is not zeroed, so the integrator still sees it.  Otherwise the bracket
    # is floored just above zero so a negative power stays finite.  The
    # escort weight f^alpha shares the rule: its bracket stays positive on
    # the span below order 0, so only at order 0 is f^0 cut to 0 past an edge.
    if vanish:
        return np.power(b, power, out=np.zeros(b.shape), where=~(b <= 0.0))
    return np.power(np.maximum(b, _POS_FLOOR), power)


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
        x = np.asarray(x, dtype=float)
        bracket = np.full(x.shape, lam[0])
        for coeff, expo in zip(lam[1:].tolist(), exps):
            bracket += coeff * np.power(x, expo)
        return _clipped_power(bracket / (2.0 - alpha), 1.0 / (1.0 - alpha), alpha < 1.0)

    return f


class _Nodes:
    """One fit's integrals in u on [0, 1], x = lower + w u**3 with w =
    upper - lower; see the module docstring.  A table maps each span and
    distinct batch of nodes u that the fit meets to x**exponent, the powers
    the fit's integrands read, and to dx/du = 3 w u**2, formed on the
    batch's first pass and read by every later one.  The table lives as
    long as the fit."""

    def __init__(self, exponent: float | np.ndarray) -> None:
        self._exponent = exponent
        self._batches: dict = {}

    def integrate(self, integrand: Callable[[np.ndarray], np.ndarray], lower: float,
                  upper: float) -> float | np.ndarray:
        """The integral over [lower, upper] of integrand(x**exponent) dx."""
        width = upper - lower

        def mapped(u: np.ndarray) -> np.ndarray:
            u = np.asarray(u, dtype=float)
            key = (lower, upper, u.tobytes())
            hit = self._batches.get(key)
            if hit is None:
                u2 = u * u
                hit = self._batches[key] = (
                    np.power(lower + width * (u2 * u), self._exponent), 3.0 * width * u2)
            return integrand(hit[0]) * hit[1]

        return integrate(mapped, _U_SPEC)


def _newton_integrand(alpha: float, lam: np.ndarray,
                      weighted: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    # One Newton candidate's integrals as rows over shared nodes, taken at
    # the powers x^row_exps[r] of the fit's node table: row r is that power
    # times f (weighted[r] == 0) or f^alpha (weighted[r] == 1).  The first
    # 1 + m rows have the exponents (0, *e), so the bracket is evaluated once
    # per node from them.  f^alpha, at power alpha/(1-alpha), stays
    # integrable at a support edge for every admissible order; below order 1
    # it vanishes past the edge like f, since it is the derivative weight of
    # the clipped family.
    n = lam.size
    vanish = alpha < 1.0

    def integrand(x_powers: np.ndarray) -> np.ndarray:
        bracket = (lam[0] + lam[1:] @ x_powers[1:n]) / (2.0 - alpha)
        base = np.array((_clipped_power(bracket, 1.0 / (1.0 - alpha), vanish),
                         _clipped_power(bracket, alpha / (1.0 - alpha), vanish)))
        return x_powers * base[weighted]

    return integrand


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
    offsets = np.array((1.0,) + problem.targets)
    n = offsets.size
    upper_tri = np.triu_indices(n)
    # Every candidate's pass has the same rows: the moments x^e_j f for
    # e = (0, *problem.exponents), then the Jacobian's upper triangle, since
    # d(moment_j)/d(lam_k) = integral of x^(e_j + e_k) f^alpha
    #                        / ((1 - alpha) (2 - alpha)); symmetric.
    all_exps = np.array((0.0,) + problem.exponents)
    row_exps = np.concatenate((all_exps, all_exps[upper_tri[0]]
                               + all_exps[upper_tri[1]]))[:, None]
    weighted = np.repeat([0, 1], [n, upper_tri[0].size])
    # jac[j, k] and jac[k, j] are row n + symmetric[j, k] of the pass
    symmetric = np.empty((n, n), dtype=int)
    symmetric[upper_tri] = symmetric.T[upper_tri] = np.arange(upper_tri[0].size)
    nodes = _Nodes(row_exps)
    coeff = 1.0 / ((1.0 - alpha) * (2.0 - alpha))
    # For alpha > 1 the family blows up where the bracket crosses zero, so a
    # candidate whose bracket dips nonpositive at a node or cell midpoint is
    # rejected before any integral is attempted.  The probe's rows x^e, like
    # the table's, are formed once a fit.
    grid = problem.grid
    probe_rows = (np.power(np.union1d(grid, (grid[:-1] + grid[1:]) / 2.0),
                           all_exps[1:, None]) if alpha > 1.0 else None)

    def gaps_and_jacobian(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one integral pass per candidate; the Jacobian of an accepted
        # candidate serves the next step
        if probe_rows is not None and np.min(lam[0] + lam[1:] @ probe_rows) <= 0.0:
            raise NonFinite("stationary-family bracket lost positivity on the span")
        values = nodes.integrate(_newton_integrand(alpha, lam, weighted), lower, upper)
        return values[:n] - offsets, (coeff * values[n:])[symmetric]

    def norm(gaps: np.ndarray) -> float:
        # np.linalg.norm's own sum and root, without its dispatch
        return math.sqrt(gaps.dot(gaps))

    lam = lam0
    gaps, jac = gaps_and_jacobian(lam)
    for _ in range(_MAX_NEWTON):
        if np.abs(gaps).max() <= _NEWTON_TOL:
            return lam
        try:
            step = np.linalg.solve(jac, -gaps)
        except np.linalg.LinAlgError as exc:
            raise NonConvergence("singular Jacobian in multiplier iteration") from exc
        scale = 1.0
        gap_norm = norm(gaps)
        while True:
            try:
                cand = lam + scale * step
                cand_gaps, cand_jac = gaps_and_jacobian(cand)
            except NonFinite:
                cand_gaps = None
            if cand_gaps is not None and (
                    norm(cand_gaps) < gap_norm
                    or np.abs(cand_gaps).max() <= _NEWTON_TOL):
                lam, gaps, jac = cand, cand_gaps, cand_jac
                break
            scale /= 2.0
            if scale < 2.0 ** -14:
                raise NonConvergence("multiplier line search stalled")
    if np.abs(gaps).max() <= _NEWTON_TOL:
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
    NonConvergence, with its own reason, when the one Newton run fails.
    """
    if problem.variant is not MaxEntVariant.PLAIN:
        raise DomainError("solve handles plain problems; use solve_escort")
    alpha = problem.order.alpha
    lower, upper = problem.span
    for con in problem.constraints:
        _check_attainable(con.exponent, con.target, lower, upper)

    # one Newton run, from the uniform density (the unconstrained maximizer)
    lam0 = np.zeros(len(problem.constraints) + 1)
    lam0[0] = (2.0 - alpha) * (1.0 / (upper - lower)) ** (1.0 - alpha)
    lam = _newton(problem, lam0)

    dens = stationary_density(problem.order, lam, problem.exponents)(problem.grid)
    return MaxEntSolution(
        density_values=dens,
        multipliers=lam,
        objective=discrete_objective(dens, problem),
        euler_residual=_residual(alpha, problem.grid, dens, lam,
                                 problem.exponents),
    )


def _escort_top(alpha: float, lam3: float, delta: float, upper: float) -> float:
    # the escort integrals stop at the support edge; see the module docstring
    if alpha < 1.0 and lam3 < 0.0:
        return min(upper, (-1.0 / lam3) ** (1.0 / delta))
    return upper


def _escort_mean(alpha: float, lam3: float, delta: float, lower: float,
                 upper: float, nodes: _Nodes) -> tuple[float, float]:
    # The escort mean m of y = x**delta under the weight w = b**p, with
    # b = 1 + lam3*y and p = alpha/(1-alpha), and its slope dm/dlam3, from
    # one pass over shared nodes; see the module docstring for both forms.
    # w is taken relative to its peak, which is at an end of the span, so no
    # row overflows however far the search takes lam3.  `nodes` is the fit's
    # table of y, of exponent delta.
    power = alpha / (1.0 - alpha)
    ends = np.array((lower, upper))
    ends_delta = np.power(ends, delta)
    b_ends = 1.0 + lam3 * ends_delta
    peak = np.max(b_ends) if power >= 0.0 else max(np.min(b_ends), _POS_FLOOR)

    def weight(y: np.ndarray) -> np.ndarray:
        return _clipped_power((1.0 + lam3 * y) / peak, power, alpha < 1.0)

    def rows(y: np.ndarray) -> np.ndarray:
        w = weight(y)
        if lam3 < 0.0:
            return np.array((y * w, w))
        yw_b = y * w / (1.0 + lam3 * y)
        return np.array((y * w, w, y * yw_b, yw_b))

    top = _escort_top(alpha, lam3, delta, upper)
    sums = nodes.integrate(rows, lower, top).tolist() if top > lower else [0.0, 0.0]
    if sums[1] <= 0.0:
        raise NonFinite("escort weight carried no mass on the span")
    mean = sums[0] / sums[1]
    if lam3 >= 0.0:
        return mean, power * (sums[2] - mean * sums[3]) / sums[1]
    flux = (ends * weight(ends_delta) * (ends_delta - mean)).tolist()
    return mean, -(delta * mean + (flux[0] - flux[1]) / sums[1]) / (delta * lam3)


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
    nodes = _Nodes(delta)

    if lambda3 is None:
        if len(problem.constraints) != 1:
            raise DomainError("escort solve expects exactly one moment constraint")
        con = problem.constraints[0]
        if con.exponent != delta:
            raise DomainError("constraint exponent must equal the escort "
                              "weight exponent")
        _check_attainable(delta, con.target, lower, upper)
        lam3 = _fit_lambda3(alpha, delta, con.target, lower, upper, nodes)
    else:
        if not math.isfinite(lambda3):
            raise DomainError("lambda3 must be finite")
        if not 0.0 <= alpha < 1.0 and 1.0 + lambda3 * upper ** delta <= 0.0:
            raise DomainError("frozen lambda3 makes the bracket nonpositive "
                              "on the span")
        lam3 = float(lambda3)

    def shape(y: np.ndarray) -> np.ndarray:  # of y = x**delta
        return _clipped_power(1.0 + lam3 * y, 1.0 / (1.0 - alpha), alpha < 1.0)

    top = _escort_top(alpha, lam3, delta, upper)
    mass = nodes.integrate(shape, lower, top) if top > lower else 0.0
    if mass <= 0.0:
        raise Infeasible("escort family carries no normalizable mass on the span")
    lam1 = 1.0 / mass
    dens = lam1 * shape(np.power(problem.grid, delta))

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
                 upper: float, nodes: _Nodes) -> float:
    # Safeguarded Newton in lam3; see the module docstring.  The gap's sign
    # at 0 says on which side the root lies, and that side ends at `far`:
    # below the floor -1/upper**delta for p < 0 the weight is infinite on
    # the span, and below -1/lower**delta for 0 <= alpha < 1 the support ends
    # before the span starts; otherwise the search may expand as far as
    # |lam3| * upper**delta = 2**61.  `near` is the last point on the start's
    # side of the root; a point found on the other side replaces `far`, and
    # every later step stays inside the bracket (near, far).
    def gap(lam3: float) -> tuple[float, float]:
        mean, slope = _escort_mean(alpha, lam3, delta, lower, upper, nodes)
        return mean - target, slope

    lam = near = 0.0
    g, slope = gap(lam)
    if g == 0.0:
        return lam
    start_below = g < 0.0
    if start_below and alpha == 0.0:
        # the weight f^0 is 1 wherever the bracket is positive, so no lam3
        # lifts the mean above its value at 0
        raise Infeasible("no bracket coefficient reaches the escort target on "
                         "this span")
    reach = 2.0 ** 61 / upper ** delta
    if start_below == (0.0 <= alpha < 1.0):
        far = math.inf
    elif not 0.0 <= alpha < 1.0:
        far = -1.0 / upper ** delta
    else:
        far = -1.0 / lower ** delta if lower > 0.0 else -math.inf
    bracketed, last = False, math.inf
    for _ in range(_MAX_NEWTON):
        step = -g / slope if slope else math.nan
        if abs(step) <= 1e-13 * max(1.0, abs(lam)):
            return lam + step
        # a Newton step must land inside (near, far) and, once bracketed,
        # halve the last step at least, or it gives way to bisection; while
        # `far` is still open the search doubles outward instead
        cand = lam + step
        if not (min(near, far) < cand < max(near, far) and abs(cand) <= reach
                and not (bracketed and abs(2.0 * step) > abs(last))):
            if bracketed or math.isfinite(far):
                cand = near + 0.5 * (far - near)
                if bracketed and abs(cand - lam) <= 1e-13 * max(1.0, abs(cand)):
                    return cand
            else:
                cand = 2.0 * (lam or math.copysign(upper ** -delta, far))
                if abs(cand) > reach:
                    break
        last = cand - lam
        try:
            g, slope = gap(cand)
        except (NonFinite, NonConvergence):
            if bracketed:
                raise
            # off the end of the usable coefficient range: the integrals
            # diverge (or overflow) there, so stop expanding
            break
        if g == 0.0:
            return cand
        lam = cand
        if (g < 0.0) == start_below:
            near = cand
        else:
            far, bracketed = cand, True
    if bracketed:
        raise NonConvergence("escort coefficient iteration exhausted its budget")
    raise Infeasible("no bracket coefficient reaches the escort target on "
                     "this span")
