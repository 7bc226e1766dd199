"""Round-trip demonstrations for the constrained-entropy solver.

Six exercises, each starting from a density whose maximum-entropy
characterization is known in closed form:

  1. single power-moment constraint, order 0.5 on [0, 2]
  2. two power-moment constraints (exponents 0.5 and 1.5), same interval
  3. escort-averaged first moment, order 1.5 on [0, 50]
  4. escort-averaged moment below order 1 (0.6), the support edge inside the span
  5. the same at order 0, where the escort weight is 1 up to the edge
  6. the same at order 0.5 on a span that starts at 1, not at 0

For each, the matching moment targets are computed from the generating
density by quadrature, the solver runs on those targets alone, and the
report prints recovered multipliers, the worst pointwise density gap,
and the stationarity residual.  The script exits 1 when a gap is above
1e-6, the recovery the README promises, and 0 otherwise.
"""
import numpy as np

from pathway_entropy import (
    AlphaOrder,
    MaxEntProblem,
    MaxEntVariant,
    MomentConstraint,
    PathwayParams,
    QuadratureSpec,
    cdf,
    density,
    integrate,
    support,
    solve,
    solve_escort,
)


GAP_LIMIT = 1e-6


def beta_shape(x):
    # normalized [1 - x/2]^2 on [0, 2]: the order-1/2 solution with mean 1/2
    return 1.5 * (1.0 - 0.5 * x) ** 2


def ramp_shape(x):
    # normalized x [1 - x/2]^2 on [0, 2]
    return 3.0 * x * (1.0 - 0.5 * x) ** 2


def moment(shape, exponent, upper):
    spec = QuadratureSpec(0.0, upper, rel_tol=1e-12, abs_tol=1e-14)
    return integrate(lambda x: shape(x) * x ** exponent, spec)


def report(label, sol, truth, grid):
    gap = float(np.max(np.abs(sol.density_values - truth)))
    mults = ", ".join("%.12g" % m for m in sol.multipliers)
    print(f"{label}")
    print(f"    multipliers      [{mults}]")
    print(f"    max density gap  {gap:.3e}")
    print(f"    euler residual   {sol.euler_residual:.3e}")
    return gap


def escort_below_one(alpha, delta, s, lower):
    # the gamma = 1 pathway kernel is the escort family with lam3 =
    # -s(1 - alpha), whose support ends at an edge inside the span [lower,
    # 1.2 edge]; the target is its escort mean of x^delta, under the weight
    # f^alpha, which vanishes past the edge like f
    params = PathwayParams(alpha=alpha, gamma=1.0, delta=delta, s=s)
    edge = support(params).upper
    grid = np.linspace(lower, 1.2 * edge, 301)
    spec = QuadratureSpec(lower, edge, rel_tol=1e-12, abs_tol=1e-14)
    mass = integrate(lambda x: density(params, x) ** alpha, spec)
    target = integrate(lambda x: x ** delta * density(params, x) ** alpha, spec) / mass
    problem = MaxEntProblem(
        grid=grid, order=AlphaOrder(alpha),
        constraints=(MomentConstraint(delta, target),),
        variant=MaxEntVariant.ESCORT)
    sol = solve_escort(problem, delta)
    truth = density(params, grid) / (1.0 - cdf(params, lower))
    return report(f"escort order {alpha:g} on [{lower:g}, {grid[-1]:.4g}]  "
                  f"E_escort[x^{delta:g}] = {target:.12g}", sol, truth, grid)


def main() -> int:
    grid2 = np.linspace(0.0, 2.0, 201)

    target = moment(beta_shape, 1.0, 2.0)
    problem = MaxEntProblem(grid=grid2, order=AlphaOrder(0.5),
                            constraints=(MomentConstraint(1.0, target),))
    sol = solve(problem)
    gaps = [report(f"single moment   E[x] = {target:.12g}",
                   sol, beta_shape(grid2), grid2)]

    targets = [moment(ramp_shape, e, 2.0) for e in (0.5, 1.5)]
    problem = MaxEntProblem(
        grid=grid2, order=AlphaOrder(0.5),
        constraints=tuple(MomentConstraint(e, t)
                          for e, t in zip((0.5, 1.5), targets)))
    sol = solve(problem)
    gaps.append(report("two moments     E[x^0.5] = %.12g, E[x^1.5] = %.12g"
                       % tuple(targets), sol, ramp_shape(grid2), grid2))

    # escort: generating density is the linear q-exponential kernel at
    # order 3/2, whose escort mean is 50/27.  The solver normalizes on the
    # finite span, so the comparison renormalizes the kernel there too.
    grid50 = np.linspace(0.0, 50.0, 501)
    params = PathwayParams(alpha=1.5, gamma=1.0, delta=1.0, s=1.0)
    problem = MaxEntProblem(
        grid=grid50, order=AlphaOrder(1.5),
        constraints=(MomentConstraint(1.0, 50.0 / 27.0),),
        variant=MaxEntVariant.ESCORT)
    sol = solve_escort(problem)
    truth = density(params, grid50) / cdf(params, 50.0)
    gaps.append(report("escort moment   E_escort[x] = %.12g" % (50.0 / 27.0),
                       sol, truth, grid50))
    gaps += [escort_below_one(0.6, 2.0, 0.5, 0.0), escort_below_one(0.0, 1.5, 1.0, 0.0),
             escort_below_one(0.5, 1.0, 4.0 / 3.0, 1.0)]
    # written so that a NaN gap fails too
    if not all(gap <= GAP_LIMIT for gap in gaps):
        print(f"FAIL: a max density gap is not within {GAP_LIMIT:g}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
