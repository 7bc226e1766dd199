"""Solver round-trips against closed-form generating densities.

The moment targets below are frozen from an independent 50-digit
evaluation of the generating densities' integrals.
"""
import math

import numpy as np
import pytest

from pathway_entropy import maxent
from pathway_entropy.entropy_discrete import AlphaOrder
from pathway_entropy.errors import DomainError, Infeasible, InvalidOrder
from pathway_entropy.maxent import (
    MaxEntProblem,
    MaxEntSolution,
    MaxEntVariant,
    MomentConstraint,
    discrete_objective,
    euler_residual,
    solve,
    solve_escort,
    stationary_density,
    trapezoid_weights,
)
from pathway_entropy.pathway import (
    PathwayParams,
    density,
    kernel,
    special_case,
    support,
)
from pathway_entropy.quadrature import QuadratureSpec, integrate

E_X_BETA = 0.5                       # mean of 1.5 (1 - x/2)^2 on [0, 2]
E_HALF_RAMP = 0.8619968380178865     # E[x^0.5] under 3 x (1 - x/2)^2
E_3HALF_RAMP = 0.7836334891071696    # E[x^1.5] under the same density
ESCORT_MEAN = 50.0 / 27.0            # escort mean of 0.52 (1 + x/2)^-2 on [0, 50]
ESCORT_SCALE = 0.52

LAM0_BETA = 1.8371173070873836       # 1.5 ** 1.5
LAM1_BETA = -0.9185586535436918      # -(1.5 ** 1.5) / 2
LAM1_RAMP = 2.598076211353316        # 1.5 * sqrt(3)
LAM2_RAMP = -1.299038105676658


def beta_shape(x):
    return 1.5 * (1.0 - x / 2.0) ** 2


def ramp_shape(x):
    return 3.0 * x * (1.0 - x / 2.0) ** 2


def delta_problem(n=201):
    return MaxEntProblem(np.linspace(0.0, 2.0, n), AlphaOrder(0.5),
                         (MomentConstraint(1.0, E_X_BETA),))


def constraint_matrix(problem):
    """Rows are constraint weights times trapezoid cell widths."""
    grid = problem.grid
    widths = trapezoid_weights(grid)
    rows = [widths]
    rows += [np.power(grid, con.exponent) * widths
             for con in problem.constraints]
    return np.stack(rows)


def project_affine(values, mat, rhs, rounds=400):
    """Alternating projection onto {mat q = rhs} intersected with q >= 0."""
    gram = mat @ mat.T
    q = values
    for _ in range(rounds):
        gap = mat @ q - rhs
        if np.max(np.abs(gap)) <= 1e-13:
            break
        q = q - mat.T @ np.linalg.solve(gram, gap)
        q = np.clip(q, 0.0, None)
    assert np.max(np.abs(mat @ q - rhs)) <= 1e-10
    return q


def test_no_constraints_gives_uniform():
    problem = MaxEntProblem(np.linspace(0.0, 1.0, 101), AlphaOrder(0.5))
    sol = solve(problem)
    assert np.max(np.abs(sol.density_values - 1.0)) <= 1e-10
    assert sol.multipliers.shape == (1,)
    assert sol.multipliers[0] == pytest.approx(1.5, rel=1e-10)
    assert sol.euler_residual <= 1e-12
    assert sol.objective == pytest.approx(0.0, abs=1e-10)


def test_delta_moment_round_trip():
    problem = delta_problem()
    sol = solve(problem)
    assert np.max(np.abs(sol.density_values - beta_shape(problem.grid))) <= 1e-6
    assert sol.multipliers[0] == pytest.approx(LAM0_BETA, rel=1e-6)
    assert sol.multipliers[1] == pytest.approx(LAM1_BETA, rel=1e-6)
    assert sol.euler_residual <= 1e-8
    recomputed = euler_residual(sol.density_values, problem, sol.multipliers)
    assert recomputed == sol.euler_residual


def test_two_moment_round_trip():
    problem = MaxEntProblem(
        np.linspace(0.0, 2.0, 201), AlphaOrder(0.5),
        (MomentConstraint(0.5, E_HALF_RAMP), MomentConstraint(1.5, E_3HALF_RAMP)),
    )
    sol = solve(problem)
    assert np.max(np.abs(sol.density_values - ramp_shape(problem.grid))) <= 1e-6
    # The generating density has no constant term in its stationarity
    # bracket, so the leading multiplier collapses to zero.
    assert abs(sol.multipliers[0]) <= 1e-6
    assert sol.multipliers[1] == pytest.approx(LAM1_RAMP, rel=1e-6)
    assert sol.multipliers[2] == pytest.approx(LAM2_RAMP, rel=1e-6)
    assert sol.euler_residual <= 1e-8


def test_continuous_vs_nodal_normalization():
    # The fitted multipliers normalize the continuous density to quadrature
    # precision; the nodal trapezoid sum keeps the grid's O(h^2) bias.
    problem = delta_problem()
    sol = solve(problem)
    f = stationary_density(problem.order, sol.multipliers, problem.exponents)
    mass = integrate(f, QuadratureSpec(0.0, 2.0, rel_tol=1e-12, abs_tol=1e-14))
    assert abs(mass - 1.0) <= 1e-9
    nodal = float(np.sum(sol.density_values * trapezoid_weights(problem.grid)))
    assert abs(nodal - 1.0) <= 1e-4


def test_grid_refinement_tightens_objective():
    objectives = [solve(delta_problem(n)).objective for n in (51, 101, 201)]
    first = abs(objectives[1] - objectives[0])
    second = abs(objectives[2] - objectives[1])
    assert second < first / 2.0


def test_support_edge_inside_grid_below_one():
    # Pulling the mean below the span midpoint shortens the support: the
    # bracket crosses zero at 4 * target and the density vanishes beyond.
    problem = MaxEntProblem(np.linspace(0.0, 2.0, 401), AlphaOrder(0.5),
                            (MomentConstraint(1.0, 0.35),))
    sol = solve(problem)
    edge = -sol.multipliers[0] / sol.multipliers[1]
    assert edge == pytest.approx(1.4, abs=1e-6)
    grid = problem.grid
    assert np.all(sol.density_values[grid >= edge + 1e-6] == 0.0)
    assert np.all(sol.density_values[grid <= edge - 0.05] > 0.0)


def test_strictly_positive_above_one():
    problem = MaxEntProblem(np.linspace(0.0, 3.0, 151), AlphaOrder(1.5),
                            (MomentConstraint(1.0, 0.8),))
    sol = solve(problem)
    assert np.all(sol.density_values > 0.0)
    assert sol.multipliers[1] > 0.0
    f = stationary_density(problem.order, sol.multipliers, problem.exponents)
    mean = integrate(lambda x: x * f(x),
                     QuadratureSpec(0.0, 3.0, rel_tol=1e-12, abs_tol=1e-14))
    assert mean == pytest.approx(0.8, abs=1e-9)


def test_objective_dominance():
    rng = np.random.default_rng(0)
    problems = (
        MaxEntProblem(np.linspace(0.0, 2.0, 25), AlphaOrder(0.5),
                      (MomentConstraint(1.0, E_X_BETA),)),
        MaxEntProblem(np.linspace(0.0, 3.0, 25), AlphaOrder(1.5),
                      (MomentConstraint(1.0, 0.8),)),
    )
    for problem in problems:
        sol = solve(problem)
        mat = constraint_matrix(problem)
        rhs = mat @ sol.density_values
        top = float(np.max(sol.density_values))
        for _ in range(100):
            noisy = sol.density_values + 0.03 * top * rng.standard_normal(
                problem.grid.size)
            candidate = project_affine(np.clip(noisy, 0.0, None), mat, rhs)
            assert (discrete_objective(candidate, problem)
                    <= sol.objective + 1e-9)


def pg_ascent(problem, mat, rhs, iters=4000):
    """Projected-gradient oracle for small grids: maximize the discretized
    objective over {mat q = rhs, q >= 0} without touching the stationary
    family, so a sign error in the solver's Lagrangian would surface here."""
    alpha = problem.order.alpha
    widths = trapezoid_weights(problem.grid)
    gram = mat @ mat.T
    nullspace = np.eye(problem.grid.size) - mat.T @ np.linalg.solve(gram, mat)
    q = project_affine(np.full(problem.grid.size,
                               1.0 / (problem.span[1] - problem.span[0])),
                       mat, rhs)
    best = discrete_objective(q, problem)
    step = 0.5
    for _ in range(iters):
        grad = ((2.0 - alpha) / (alpha - 1.0)
                * np.power(np.clip(q, 1e-12, None), 1.0 - alpha) * widths)
        direction = nullspace @ grad
        while step > 1e-14:
            trial = q + step * direction
            if np.all(trial > 0.0):
                value = discrete_objective(trial, problem)
                if value > best:
                    q, best = trial, value
                    step *= 1.5
                    break
            step *= 0.5
        else:
            break
    return q, best


@pytest.mark.parametrize("order,upper,target", [
    (0.5, 1.2, 0.35),
    (1.5, 3.0, 0.8),
])
def test_projected_gradient_oracle(order, upper, target):
    # Interior-positive cases so the oracle can walk without clamping.
    problem = MaxEntProblem(np.linspace(0.0, upper, 21), AlphaOrder(order),
                            (MomentConstraint(1.0, target),))
    sol = solve(problem)
    assert np.all(sol.density_values > 0.0)
    mat = constraint_matrix(problem)
    rhs = mat @ sol.density_values
    oracle_density, oracle_objective = pg_ascent(problem, mat, rhs)
    assert oracle_objective <= sol.objective + 1e-9
    assert sol.objective - oracle_objective <= 1e-6
    assert np.max(np.abs(oracle_density - sol.density_values)) <= 1e-2


def test_euler_residual_flags_perturbation():
    problem = delta_problem()
    sol = solve(problem)
    warped = sol.density_values * (1.0 + 0.01 * np.sin(3.0 * problem.grid))
    assert euler_residual(warped, problem, sol.multipliers) > 1e-3


def test_euler_residual_validation():
    problem = delta_problem(11)
    sol = solve(problem)
    escort = MaxEntProblem(problem.grid, problem.order,
                           problem.constraints, MaxEntVariant.ESCORT)
    with pytest.raises(DomainError):
        euler_residual(sol.density_values, escort, sol.multipliers)
    with pytest.raises(DomainError):
        euler_residual(sol.density_values, problem, sol.multipliers[:1])
    with pytest.raises(DomainError):
        euler_residual(sol.density_values[:-1], problem, sol.multipliers)
    with pytest.raises(DomainError):
        euler_residual(np.zeros(problem.grid.size), problem, sol.multipliers)


def test_infeasible_targets():
    grid = np.linspace(0.0, 2.0, 51)
    with pytest.raises(Infeasible):
        solve(MaxEntProblem(grid, AlphaOrder(0.5),
                            (MomentConstraint(1.0, 2.5),)))
    # Endpoint values are only reached by point masses, so the feasible
    # range is open.
    with pytest.raises(Infeasible):
        solve(MaxEntProblem(grid, AlphaOrder(0.5),
                            (MomentConstraint(1.0, 2.0),)))
    with pytest.raises(Infeasible):
        solve_escort(MaxEntProblem(np.linspace(0.0, 50.0, 101), AlphaOrder(1.5),
                                   (MomentConstraint(1.0, 55.0),),
                                   MaxEntVariant.ESCORT))


def test_escort_round_trip():
    problem = MaxEntProblem(np.linspace(0.0, 50.0, 501), AlphaOrder(1.5),
                            (MomentConstraint(1.0, ESCORT_MEAN),),
                            MaxEntVariant.ESCORT)
    sol = solve_escort(problem)
    assert sol.multipliers[1] == pytest.approx(0.5, abs=1e-7)
    assert sol.multipliers[0] == pytest.approx(ESCORT_SCALE, abs=1e-7)
    expected = ESCORT_SCALE * (1.0 + 0.5 * problem.grid) ** -2.0
    assert np.max(np.abs(sol.density_values - expected)) <= 1e-6
    assert sol.euler_residual <= 1e-10


@pytest.mark.parametrize("alpha,delta,s", [(0.3, 1.0, 1.0), (0.6, 2.0, 0.5),
                                            (0.9, 1.5, 2.0)])
def test_escort_round_trip_below_order_one(alpha, delta, s, monkeypatch):
    # The gamma = 1 pathway kernel is the escort family with a negative
    # coefficient lam3 = -s(1-alpha); on a span past its support edge the
    # escort mean of x^delta is 1/(s(1 - alpha + delta)).
    calls = []

    def counting(f, spec):
        calls.append(spec)
        return integrate(f, spec)

    monkeypatch.setattr(maxent, "integrate", counting)
    params = PathwayParams(alpha=alpha, delta=delta, s=s)
    grid = np.linspace(0.0, 1.2 * support(params).upper, 301)
    problem = MaxEntProblem(grid, AlphaOrder(alpha),
                            (MomentConstraint(delta, 1.0 / (s * (1.0 - alpha + delta))),),
                            MaxEntVariant.ESCORT)
    sol = solve_escort(problem, delta)
    assert sol.multipliers[1] == pytest.approx(-s * (1.0 - alpha), rel=1e-9)
    expected = density(params, grid)
    assert np.max(np.abs(sol.density_values - expected)) <= 1e-9 * np.max(expected)
    assert sol.euler_residual <= 1e-10
    # The escort mean only rises with lam3 below order 1, so the fit walks
    # the downward ladder alone; the upward one cannot bracket a lam3 < 0.
    assert len(calls) <= 100


def test_escort_frozen_coefficient_is_power_law():
    problem = MaxEntProblem(np.linspace(0.0, 50.0, 501), AlphaOrder(1.5),
                            variant=MaxEntVariant.ESCORT)
    sol = solve_escort(problem, lambda3=0.5)
    assert sol.multipliers[0] == pytest.approx(13.0 / 25.0, rel=1e-12)
    assert sol.multipliers[1] == 0.5
    expected = 0.52 * (1.0 + 0.5 * problem.grid) ** -2.0
    assert np.max(np.abs(sol.density_values - expected)) <= 1e-12
    # Same shape as the q-exponential member of the kernel family.
    shape = kernel(special_case("tsallis_q_exponential"), problem.grid)
    ratio = sol.density_values / shape
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
    nodal = float(np.sum(np.power(expected, 1.5)
                         * trapezoid_weights(problem.grid)))
    assert sol.objective == pytest.approx(nodal, rel=1e-12)


def test_escort_degenerate_grid():
    problem = MaxEntProblem(np.array([0.0, 1.0, 2.0]), AlphaOrder(1.5),
                            (MomentConstraint(1.0, 0.9),),
                            MaxEntVariant.ESCORT)
    with pytest.raises(Infeasible):
        solve_escort(problem)


def test_variant_routing_and_escort_validation():
    plain = delta_problem(11)
    with pytest.raises(DomainError):
        solve_escort(plain)
    escort = MaxEntProblem(plain.grid, plain.order, plain.constraints,
                           MaxEntVariant.ESCORT)
    with pytest.raises(DomainError):
        solve(escort)
    with pytest.raises(DomainError):
        solve_escort(escort, delta=2.0)  # constraint exponent is 1
    with pytest.raises(DomainError):
        solve_escort(escort, delta=0.0)
    two = MaxEntProblem(plain.grid, plain.order,
                        plain.constraints + (MomentConstraint(2.0, 0.5),),
                        MaxEntVariant.ESCORT)
    with pytest.raises(DomainError):
        solve_escort(two)
    bare = MaxEntProblem(np.linspace(0.0, 50.0, 11), AlphaOrder(1.5),
                         variant=MaxEntVariant.ESCORT)
    with pytest.raises(DomainError):
        solve_escort(bare)  # fitting needs a constraint
    with pytest.raises(DomainError):
        solve_escort(bare, lambda3=-1.0)  # bracket dies inside the span


def test_problem_validation():
    order = AlphaOrder(0.5)
    with pytest.raises(DomainError):
        MaxEntProblem(np.array([0.0, 1.0]), order)
    with pytest.raises(DomainError):
        MaxEntProblem(np.array([0.0, 1.0, 1.0]), order)
    with pytest.raises(DomainError):
        MaxEntProblem(np.array([-0.5, 0.5, 1.0]), order)
    with pytest.raises(InvalidOrder):
        MaxEntProblem(np.linspace(0.0, 1.0, 5), AlphaOrder(1.0))
    with pytest.raises(InvalidOrder):
        MaxEntProblem(np.linspace(0.0, 1.0, 5), AlphaOrder(2.0))
    with pytest.raises(DomainError):
        MomentConstraint(0.0, 1.0)
    with pytest.raises(DomainError):
        MomentConstraint(1.0, math.inf)
    with pytest.raises(DomainError):
        MaxEntProblem(np.linspace(0.0, 1.0, 5), order,
                      (MomentConstraint(-1.0, 2.0),))
    # Negative exponents are fine once the grid stays away from zero.
    MaxEntProblem(np.linspace(0.5, 1.0, 5), order,
                  (MomentConstraint(-1.0, 1.4),))


def test_solution_validation():
    with pytest.raises(DomainError):
        MaxEntSolution(np.array([0.5, -0.1, 0.5]), np.array([1.0]), 0.0, 0.0)
    with pytest.raises(DomainError):
        MaxEntSolution(np.array([0.5, 0.5]), np.array([math.nan]), 0.0, 0.0)
    sol = MaxEntSolution(np.array([1.0, 1.0, 1.0]), np.array([1.5]), 0.0, 0.0)
    with pytest.raises(ValueError):
        sol.density_values[0] = 2.0


def test_trapezoid_weights_shape():
    w = trapezoid_weights(np.array([0.0, 1.0, 3.0, 4.0]))
    assert np.allclose(w, [0.5, 1.5, 1.5, 0.5])
    assert w.sum() == pytest.approx(4.0)
    with pytest.raises(DomainError):
        stationary_density(AlphaOrder(0.5), [1.0], (1.0,))


def test_plain_fit_at_order_zero_is_the_triangle():
    # At alpha = 0 the family is the clipped line (lam1 + lam2 x)/2 and the
    # mean 0.3 pins its support edge at 0.9: f = 2(0.9 - x)/0.81 on [0, 0.9].
    # The Jacobian weight f^0 must vanish past the edge, not read 1.
    problem = MaxEntProblem(np.linspace(0.0, 2.0, 201), AlphaOrder(0.0),
                            (MomentConstraint(1.0, 0.3),))
    sol = solve(problem)
    expected = np.clip(2.0 * (0.9 - problem.grid) / 0.81, 0.0, None)
    assert np.max(np.abs(sol.density_values - expected)) <= 1e-9


@pytest.mark.parametrize("build,error,match", [
    (lambda: MaxEntProblem(np.array([0.0, 1.0, math.nan]), AlphaOrder(0.5)),
     DomainError, "finite"),
    (lambda: MaxEntProblem(np.linspace(0.0, 1.0, 5), AlphaOrder(0.5), ((1.0, 0.5),)),
     DomainError, "MomentConstraint"),
    (lambda: MaxEntProblem(np.linspace(0.0, 1.0, 5), AlphaOrder(0.5), (), "escort"),
     DomainError, "MaxEntVariant"),
    (lambda: MaxEntSolution(np.array([0.5, math.nan, 0.5]), np.array([1.0]), 0.0, 0.0),
     DomainError, "finite vector"),
    (lambda: discrete_objective(np.ones(3), delta_problem(11)), DomainError,
     "match the problem grid"),
    (lambda: solve_escort(MaxEntProblem(np.linspace(0.0, 50.0, 11), AlphaOrder(1.5),
                                        variant=MaxEntVariant.ESCORT),
                          lambda3=math.nan),
     DomainError, "lambda3 must be finite"),
    # at order 0 the escort weight f^0 is 1 on the whole span, so no
    # coefficient moves its mean off the midpoint
    (lambda: solve_escort(MaxEntProblem(np.linspace(0.0, 2.0, 41), AlphaOrder(0.0),
                                        (MomentConstraint(1.0, 1.3),),
                                        MaxEntVariant.ESCORT)),
     Infeasible, "no bracket coefficient"),
], ids=["grid_nan", "constraint_type", "variant_type", "solution_nan",
        "objective_shape", "lambda3_nan", "escort_order_zero"])
def test_typed_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()
