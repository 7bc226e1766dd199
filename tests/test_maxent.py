"""Solver round-trips against closed-form generating densities.

The moment targets below are frozen from an independent 50-digit
evaluation of the generating densities' integrals.
"""
import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from pathway_entropy import maxent
from pathway_entropy.entropy_discrete import AlphaOrder
from pathway_entropy.errors import (
    DomainError,
    Infeasible,
    InvalidOrder,
    NonConvergence,
    NonFinite,
)
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
# integral passes of one escort fit: its Newton iterates plus normalization
ESCORT_PASSES = 16

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
    # the safeguarded Newton iteration's passes plus the normalizing one
    assert len(calls) <= ESCORT_PASSES


def test_escort_fit_below_order_zero_keeps_the_bracket_positive():
    # Below order 0 the escort weight (1 + lam3 x^delta)^p, p < 0, is infinite
    # where the bracket vanishes, so lam3 stays above -1/upper^delta.  The
    # escort mean of x^delta rises toward 4.2754 there and reaches 4.2.
    alpha, upper, delta, target = -0.3857, 3.9906, 1.6059, 4.2
    problem = MaxEntProblem(np.linspace(0.0, upper, 148), AlphaOrder(alpha),
                            (MomentConstraint(delta, target),), MaxEntVariant.ESCORT)
    sol = solve_escort(problem, delta)
    lam3 = sol.multipliers[1]
    assert -1.0 / upper ** delta < lam3 < 0.0
    assert np.all(sol.density_values > 0.0)
    assert math.isfinite(sol.objective) and sol.euler_residual <= 1e-10
    from scipy.integrate import quad

    weight = lambda x: (1.0 + lam3 * x ** delta) ** (alpha / (1.0 - alpha))
    num = quad(lambda x: x ** delta * weight(x), 0.0, upper, epsabs=0, epsrel=1e-13)[0]
    den = quad(weight, 0.0, upper, epsabs=0, epsrel=1e-13)[0]
    assert num / den == pytest.approx(target, rel=1e-10)


def test_escort_target_beyond_the_floor_is_infeasible():
    # 8.0241 lies beyond the limit 4.2754 of the admissible range.  A lam3
    # past -1/upper^delta would zero the density at the span's end, where its
    # negative power, the escort weight, is infinite.
    problem = MaxEntProblem(np.linspace(0.0, 3.9906, 148), AlphaOrder(-0.3857),
                            (MomentConstraint(1.6059, 8.0241),), MaxEntVariant.ESCORT)
    with pytest.raises(Infeasible):
        solve_escort(problem, 1.6059)


def test_one_integral_per_newton_candidate(monkeypatch):
    # Each candidate's gaps and Jacobian come from one vector-valued pass:
    # 1 + m moment rows and (m + 1)(m + 2)/2 Jacobian rows, here 3 + 6.
    problem = MaxEntProblem(np.linspace(0.0, 2.0, 201), AlphaOrder(0.5),
                            (MomentConstraint(0.5, E_HALF_RAMP),
                             MomentConstraint(1.5, E_3HALF_RAMP)))
    candidates, shapes, sweeps, per_integral = [], [], [], []
    build = maxent._newton_integrand

    def counting_build(*args):
        candidates.append(args)
        return build(*args)

    def counting(f, spec):
        def g(x):
            sweeps.append(x.size)
            return f(x)

        start = len(sweeps)
        value = integrate(g, spec)
        shapes.append(np.shape(value))
        per_integral.append(len(sweeps) - start)
        return value

    monkeypatch.setattr(maxent, "_newton_integrand", counting_build)
    monkeypatch.setattr(maxent, "integrate", counting)
    first = solve(problem)
    assert len(shapes) == len(candidates) > 0
    assert set(shapes) == {(9,)}
    assert len(sweeps) <= 150
    # In u, where x = 2 u^3, the x^0.5 rows are smooth at the left end, so
    # no integral halves its corner panel sweep after sweep.
    assert max(per_integral) <= 3
    second = solve(problem)
    assert first.density_values.tobytes() == second.density_values.tobytes()
    assert first.multipliers.tobytes() == second.multipliers.tobytes()


def test_per_problem_tables_are_built_once_per_newton_iteration(monkeypatch):
    # The row exponents and the positivity probe depend on the problem alone,
    # so every candidate of one Newton iteration shares them.
    counts = dict.fromkeys(("newton", "candidates", "triu_indices", "union1d"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(maxent, "_newton", counted("newton", maxent._newton))
    monkeypatch.setattr(maxent, "_newton_integrand",
                        counted("candidates", maxent._newton_integrand))
    monkeypatch.setattr(np, "triu_indices", counted("triu_indices", np.triu_indices))
    monkeypatch.setattr(np, "union1d", counted("union1d", np.union1d))
    solve(MaxEntProblem(np.linspace(0.0, 3.0, 151), AlphaOrder(1.5),
                        (MomentConstraint(1.0, 0.8),)))
    assert counts["candidates"] > counts["newton"] >= 1
    assert counts["triu_indices"] == counts["union1d"] == counts["newton"]


@pytest.mark.parametrize("lower,upper,exponents", [
    (0.0, 2.0, (0.3, 1.7)),
    (0.0, 5.5, (0.3, 1.7, 0.0)),
    (0.5, 4.0, (-0.7, -2.5, 1.7)),
])
def test_integrals_in_u_match_exact_power_integrals(lower, upper, exponents):
    # x^e integrates to (U^(e+1) - L^(e+1))/(e+1) over [L, U], as one row of
    # a vector-valued pass and as a scalar integral.
    exact = [(upper ** (e + 1.0) - lower ** (e + 1.0)) / (e + 1.0) for e in exponents]
    # The powers come from the integrand or from the table, to the same bits.
    rows = np.array(exponents)[:, None]
    values = maxent._Nodes(1.0).integrate(lambda x: np.power(x, rows), lower, upper)
    assert values.shape == (len(exponents),)
    np.testing.assert_allclose(values, exact, rtol=1e-12, atol=0.0)
    tabled = maxent._Nodes(rows).integrate(lambda x_powers: x_powers, lower, upper)
    assert tabled.tobytes() == values.tobytes()
    for e, ref in zip(exponents, exact):
        value = maxent._Nodes(1.0).integrate(lambda x: np.power(x, e), lower, upper)
        assert isinstance(value, float)
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)


_S = 0.5
_EDGE = 1.2 * support(PathwayParams(alpha=0.6, delta=2.0, s=_S)).upper

# grid, order, (exponent, target) pairs and escort delta (None for a plain
# fit), then the multipliers' bytes, the first 16 hex digits of the density
# values' sha256 and the fit's integral passes, all frozen
FROZEN_FITS = {
    "one_moment_below_one": (
        np.linspace(0.0, 2.3, 181), 0.37, ((0.7, 0.9),), None,
        "cb025181ec24f63fd446d506d72edabf", "296db1a4dd0e43cf", 5),
    "one_moment_above_one": (
        np.linspace(0.0, 3.1, 157), 1.42, ((1.0, 1.2),), None,
        "4401fd834379e63fd90bfadfd1b3c63f", "8efed29a00672d9d", 6),
    "two_moments_below_one": (
        np.linspace(0.0, 2.0, 201), 0.5, ((0.5, E_HALF_RAMP), (1.5, E_3HALF_RAMP)),
        None, "000090550cc4b73d6995402edcc80440bf70402edcc8f4bf",
        "97707600390f9590", 6),
    "two_moments_above_one": (
        np.linspace(0.4, 2.5, 160), 1.2, ((0.5, 1.15), (2.0, 1.9)), None,
        "0b0cb3bf549d1040ee0997de358f0fc0bf0ea49154d0e43f", "d57855d25a62e74f", 9),
    "escort_above_one": (
        np.linspace(0.0, 50.0, 501), 1.5, ((1.0, ESCORT_MEAN),), 1.0,
        "a4703d0ad7a3e03fffffffffffffdf3f", "6d4b67fed396e116", 11),
    "escort_below_one": (
        np.linspace(0.0, _EDGE, 301), 0.6, ((2.0, 1.0 / (_S * 2.4)),), 2.0,
        "c06a70075f27ed3f989999999999c9bf", "907db84c667d07ab", 7),
}


@pytest.mark.parametrize("name", FROZEN_FITS)
def test_fits_keep_their_frozen_bits(monkeypatch, name):
    # cheaper work must be the same work: the same passes and the same bits
    grid, alpha, moments, delta, multipliers, checksum, passes = FROZEN_FITS[name]
    calls = []

    def counting(f, spec):
        calls.append(spec)
        return integrate(f, spec)

    monkeypatch.setattr(maxent, "integrate", counting)
    variant = MaxEntVariant.PLAIN if delta is None else MaxEntVariant.ESCORT
    problem = MaxEntProblem(grid, AlphaOrder(alpha),
                            tuple(MomentConstraint(*m) for m in moments), variant)
    sol = solve(problem) if delta is None else solve_escort(problem, delta)
    assert sol.multipliers.tobytes().hex() == multipliers
    assert hashlib.sha256(sol.density_values.tobytes()).hexdigest()[:16] == checksum
    assert len(calls) == passes


@pytest.mark.parametrize("name", ["two_moments_below_one", "escort_above_one"])
def test_node_table_forms_each_batch_once_per_fit(monkeypatch, name):
    # The powers of x and the Jacobian 3 w u^2 do not depend on the
    # multipliers, so each distinct batch of nodes u is mapped once a fit,
    # and the head batch, the first of every pass, once for all its passes.
    # Both fits keep one span, so a batch's bytes name it.
    grid, alpha, moments, delta = FROZEN_FITS[name][:4]
    mapped, seen, heads, tables = [], [], [], []

    class CountingTable(dict):
        def __setitem__(self, key, value):
            mapped.append(key[2])
            super().__setitem__(key, value)

    class CountingNodes(maxent._Nodes):
        def __init__(self, exponent):
            super().__init__(exponent)
            self._batches = CountingTable()
            tables.append(self)

    def counting(f, spec):
        def g(u):
            seen.append(u.tobytes())
            return f(u)

        heads.append(len(seen))
        return integrate(g, spec)

    monkeypatch.setattr(maxent, "_Nodes", CountingNodes)
    monkeypatch.setattr(maxent, "integrate", counting)
    variant = MaxEntVariant.PLAIN if delta is None else MaxEntVariant.ESCORT
    problem = MaxEntProblem(grid, AlphaOrder(alpha),
                            tuple(MomentConstraint(*m) for m in moments), variant)
    solve(problem) if delta is None else solve_escort(problem, delta)
    assert len(tables) == 1
    assert len(mapped) == len(set(mapped)) == len(set(seen)) < len(seen)
    head = {seen[i] for i in heads}
    assert len(heads) > 1 and len(head) == 1 and mapped.count(head.pop()) == 1


def test_escort_fits_repeat_bit_for_bit():
    problem = MaxEntProblem(np.linspace(0.0, 50.0, 501), AlphaOrder(1.5),
                            (MomentConstraint(1.0, ESCORT_MEAN),),
                            MaxEntVariant.ESCORT)
    first, second = solve_escort(problem), solve_escort(problem)
    assert first.density_values.tobytes() == second.density_values.tobytes()
    assert first.multipliers.tobytes() == second.multipliers.tobytes()
    assert first.objective == second.objective


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
    # at order 0 the escort weight f^0 is 1 wherever the bracket is
    # positive: a positive coefficient leaves its mean at the midpoint, and
    # a negative one cuts the support from above, which only lowers it
    (lambda: solve_escort(MaxEntProblem(np.linspace(0.0, 2.0, 41), AlphaOrder(0.0),
                                        (MomentConstraint(1.0, 1.3),),
                                        MaxEntVariant.ESCORT)),
     Infeasible, "no bracket coefficient"),
    # below order 0 the weight f^alpha is infinite where the bracket dies
    (lambda: solve_escort(MaxEntProblem(np.linspace(0.0, 2.0, 11), AlphaOrder(-0.5),
                                        variant=MaxEntVariant.ESCORT),
                          lambda3=-1.0),
     DomainError, "nonpositive"),
    # below order 1 a frozen coefficient is not checked up front; here the
    # bracket 1 - 10 x is negative on the whole span [1, 2]
    (lambda: solve_escort(MaxEntProblem(np.linspace(1.0, 2.0, 11), AlphaOrder(0.5),
                                        variant=MaxEntVariant.ESCORT),
                          lambda3=-10.0),
     Infeasible, "escort family carries no normalizable mass on the span"),
    (lambda: maxent._escort_mean(0.5, -10.0, 1.0, 1.0, 2.0, maxent._Nodes(1.0)),
     NonFinite, "escort weight carried no mass on the span"),
    # above order 1, bracket positivity is checked before any integral
    (lambda: maxent._newton(MaxEntProblem(np.linspace(0.0, 1.0, 11), AlphaOrder(1.5)),
                            np.array([-1.0])),
     NonFinite, "stationary-family bracket lost positivity on the span"),
    # two moments above order 1 that the positive-bracket family cannot
    # reach: every halved step is rejected down to 2^-14
    (lambda: solve(MaxEntProblem(np.linspace(0.0, 1.0, 101), AlphaOrder(1.5),
                                 (MomentConstraint(0.5, 0.48),
                                  MomentConstraint(0.25, 0.6)))),
     NonConvergence, "multiplier line search stalled"),
], ids=["grid_nan", "constraint_type", "variant_type", "solution_nan",
        "objective_shape", "lambda3_nan", "escort_order_zero",
        "frozen_lambda3_below_order_zero", "frozen_lambda3_without_mass",
        "escort_mean_without_mass", "bracket_not_positive", "line_search_stalled"])
def test_typed_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


def _roundtrip_demo():
    path = Path(__file__).resolve().parents[1] / "scripts" / "maxent_roundtrip_demo.py"
    spec = importlib.util.spec_from_file_location("maxent_roundtrip_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_roundtrip_demo_exits_nonzero_above_its_gap_limit(monkeypatch, capsys):
    demo = _roundtrip_demo()
    assert demo.main() == 0
    # the escort truth off by 1e-4 relative: a gap of about 5e-5
    exact = demo.density
    monkeypatch.setattr(demo, "density", lambda params, x: exact(params, x) * (1.0 + 1e-4))
    assert demo.main() == 1
    assert "FAIL" in capsys.readouterr().out


def test_overflowing_constraint_integral_is_non_finite():
    # a start whose density is about 5e307 on the span: every node value is
    # finite, but the mass integral overflows, which the integrator raises
    problem = MaxEntProblem(np.linspace(0.0, 1.0, 11), AlphaOrder(0.5))
    with np.errstate(over="ignore"), pytest.raises(
            NonFinite, match="overflows the float range"):
        maxent._newton(problem, np.array([1.5 * math.sqrt(5e307)]))


def test_line_search_rejects_candidates_that_lose_positivity(monkeypatch):
    # above order 1 a full Newton step can drive the bracket nonpositive on
    # the span; the candidate is rejected and a shorter step is tried
    problem = MaxEntProblem(np.linspace(0.0, 1.0, 101), AlphaOrder(1.5),
                            (MomentConstraint(1.0, 0.9),))
    # the probe's brackets are the only arrays of its size whose min is taken
    probe_size = 2 * problem.grid.size - 1
    rejected = []
    real = np.min

    def recording(brackets, *args, **kwargs):
        out = real(brackets, *args, **kwargs)
        if np.size(brackets) == probe_size and out <= 0.0:
            rejected.append(brackets)
        return out

    monkeypatch.setattr(np, "min", recording)
    sol = solve(problem)
    assert rejected
    density = stationary_density(problem.order, sol.multipliers, problem.exponents)
    mean = maxent._Nodes(1.0).integrate(lambda x: x * density(x), *problem.span)
    assert abs(mean - 0.9) <= 1e-10


def test_newton_budget_ends(monkeypatch):
    monkeypatch.setattr(maxent, "_MAX_NEWTON", 1)
    # at order 0 the family (lam_1 + lam_2 x) / 2 is linear in the
    # multipliers: the one step allowed lands on the solution, which the
    # check after the loop returns
    linear = MaxEntProblem(np.linspace(0.0, 1.0, 11), AlphaOrder(0.0),
                           (MomentConstraint(1.0, 0.55),))
    lam = maxent._newton(linear, np.array([2.0, 0.0]))
    assert lam == pytest.approx([1.4, 1.2], abs=1e-12)
    with pytest.raises(NonConvergence, match="multiplier iteration exhausted its budget"):
        solve(MaxEntProblem(np.linspace(0.0, 1.0, 11), AlphaOrder(0.5),
                            (MomentConstraint(1.0, 0.3),)))


# m2 = 0.2 lies below m1^2 = 0.25: no density on [0, 1] has these moments
UNREACHABLE = (MomentConstraint(1.0, 0.5), MomentConstraint(2.0, 0.2))


@pytest.mark.parametrize("problem,error", [
    (delta_problem(), None),
    (MaxEntProblem(np.linspace(0.0, 1.0, 101), AlphaOrder(0.5), UNREACHABLE),
     NonConvergence),
    (MaxEntProblem(np.linspace(0.0, 1.0, 101), AlphaOrder(1.5), UNREACHABLE),
     NonConvergence),
], ids=["one_moment", "unreachable_below_one", "unreachable_above_one"])
def test_a_fit_is_one_newton_run(monkeypatch, problem, error):
    # a fit starts once, from the uniform density; a failed run's own
    # NonConvergence is the fit's, with no restart
    runs = []
    newton = maxent._newton

    def counting(*args):
        runs.append(args)
        return newton(*args)

    monkeypatch.setattr(maxent, "_newton", counting)
    if error is None:
        solve(problem)
    else:
        with pytest.raises(error):
            solve(problem)
    assert len(runs) == 1


@pytest.mark.parametrize("lower,lam3,passes", [(0.0, 0.0, 2), (1.0, -0.5, 3)],
                         ids=["start", "first_midpoint"])
def test_escort_target_met_exactly_on_the_ladder(monkeypatch, lower, lam3, passes):
    # a target equal to the escort mean at an iterate is returned there, with
    # no further pass: at the start coefficient 0, or on [1, 3] at -1/2, the
    # midpoint toward the edge -1/lower that the first Newton step (to -2)
    # overshoots
    calls = []

    def counting(f, spec):
        calls.append(spec)
        return integrate(f, spec)

    target = maxent._escort_mean(0.5, lam3, 1.0, lower, lower + 2.0,
                                 maxent._Nodes(1.0))[0]
    problem = MaxEntProblem(np.linspace(lower, lower + 2.0, 21), AlphaOrder(0.5),
                            (MomentConstraint(1.0, target),), MaxEntVariant.ESCORT)
    monkeypatch.setattr(maxent, "integrate", counting)
    assert solve_escort(problem).multipliers[1] == lam3
    assert len(calls) == passes


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.1, 0.5])
def test_escort_mean_below_order_one_matches_the_closed_form(alpha):
    # lam3 = -1/z: the weight (1 - x/z)^p, p = alpha/(1 - alpha), on [0, z]
    # makes x/z a Beta(1, p + 1) variate, whose mean is 1/(p + 2); the
    # integrals end at the edge z, so even the step at order 0 is exact
    p = alpha / (1.0 - alpha)
    for z in np.linspace(0.05, 2.0, 40):
        mean = maxent._escort_mean(alpha, -1.0 / z, 1.0, 0.0, 2.0, maxent._Nodes(1.0))[0]
        assert abs(mean / (z / (p + 2.0)) - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.7])
def test_escort_fit_below_order_one_recovers_the_edge(alpha):
    # the fitted lam3 is -1/z for the closed-form mean above; at order 0, z =
    # 1.4 is the mean 0.7 below the span's uniform mean 1, which a negative
    # lam3 reaches by cutting the support from above
    p = alpha / (1.0 - alpha)
    for z in (0.3, 0.9, 1.4, 1.9):
        problem = MaxEntProblem(np.linspace(0.0, 2.0, 41), AlphaOrder(alpha),
                                (MomentConstraint(1.0, z / (p + 2.0)),),
                                MaxEntVariant.ESCORT)
        lam3 = solve_escort(problem).multipliers[1]
        assert abs(lam3 * z + 1.0) <= 1e-12


@pytest.mark.parametrize("lower,target", [(0.0, 1.3), (0.0, 1.01), (1.0, 2.2)],
                         ids=["escort_order_zero", "just_above", "span_from_one"])
def test_escort_order_zero_refuses_a_target_above_the_mean_in_one_pass(
        monkeypatch, lower, target):
    # at order 0 the escort mean is flat for lam3 >= 0 and falls below it,
    # so a target above its value at 0 is refused after the first pass
    calls = []

    def counting(f, spec):
        calls.append(spec)
        return integrate(f, spec)

    monkeypatch.setattr(maxent, "integrate", counting)
    problem = MaxEntProblem(np.linspace(lower, lower + 2.0, 41), AlphaOrder(0.0),
                            (MomentConstraint(1.0, target),), MaxEntVariant.ESCORT)
    with pytest.raises(Infeasible, match="no bracket coefficient"):
        solve_escort(problem)
    assert len(calls) == 1


@pytest.mark.parametrize("alpha,upper,delta,target,lam3", [
    # below order 0 and above order 1: lam3 frozen from a bracketing Brent
    # search to 1e-13, which agrees with mpmath to 1.2e-15 and 8.4e-15
    (-0.3857, 3.9906, 1.6059, 4.2, -0.10738888575324466),
    (1.3, 3.0, 1.7, 1.2, 0.12358596697489418),
    # below order 1 with the edge z inside [0, upper], where the mean is
    # z^delta / (1 + delta (p + 1)): lam3 = -1/(target (1 + delta (p + 1)))
    (0.0, 2.0, 1.0, 0.7, -1.0 / (0.7 * 2.0)),
    (0.4, 2.0, 1.5, 1.5 ** 1.5 / 3.5, -1.0 / 1.5 ** 1.5),
], ids=["below_zero", "above_one", "zero", "between"])
def test_escort_fit_passes_per_band(monkeypatch, alpha, upper, delta, target, lam3):
    calls = []

    def counting(f, spec):
        calls.append(spec)
        return integrate(f, spec)

    monkeypatch.setattr(maxent, "integrate", counting)
    problem = MaxEntProblem(np.linspace(0.0, upper, 101), AlphaOrder(alpha),
                            (MomentConstraint(delta, target),), MaxEntVariant.ESCORT)
    fitted = solve_escort(problem, delta).multipliers[1]
    assert abs(fitted / lam3 - 1.0) <= 1e-12
    assert len(calls) <= ESCORT_PASSES


def test_escort_fit_reaches_an_edge_inside_a_span_off_zero():
    # at order 1/2 the weight on [1, 3] is 1 + lam3 x, and lam3 = -2/3 puts
    # the edge at 3/2, where the escort mean of x is 7/6; the edge -1/lower
    # bounds the search, which no longer stops where the support vanishes
    problem = MaxEntProblem(np.linspace(1.0, 3.0, 41), AlphaOrder(0.5),
                            (MomentConstraint(1.0, 7.0 / 6.0),), MaxEntVariant.ESCORT)
    sol = solve_escort(problem)
    assert abs(sol.multipliers[1] * -1.5 - 1.0) <= 1e-12
    assert sol.euler_residual <= 1e-10


@pytest.mark.parametrize("alpha,delta,lower,upper", [
    (0.3, 1.2, 0.0, 2.0), (0.3, 1.2, 0.5, 2.0), (-0.4, 0.7, 0.0, 3.0),
    (1.6, 2.0, 0.2, 1.5), (0.0, 1.5, 0.5, 2.5)])
def test_escort_slope_matches_a_central_difference(alpha, delta, lower, upper):
    # the pass's slope against (m(lam3 + h) - m(lam3 - h)) / 2h, on both
    # sides of 0 and, below order 1, with the edge inside the span
    lams = [0.0, 0.3, -0.2 / upper ** delta]
    if 0.0 <= alpha < 1.0:
        lams.append(-1.0 / ((lower + upper) / 2.0) ** delta)
    nodes = maxent._Nodes(delta)
    for lam3 in lams:
        h = 1e-5 * max(abs(lam3), upper ** -delta)
        slope = maxent._escort_mean(alpha, lam3, delta, lower, upper, nodes)[1]
        ahead = maxent._escort_mean(alpha, lam3 + h, delta, lower, upper, nodes)[0]
        behind = maxent._escort_mean(alpha, lam3 - h, delta, lower, upper, nodes)[0]
        assert slope == pytest.approx((ahead - behind) / (2.0 * h), rel=1e-6)
