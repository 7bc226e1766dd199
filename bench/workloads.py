"""Workload inputs and the operations that feed them to pathway_entropy.

`build(workload, seed)` returns one round: a list of `Op` records whose
arguments are plain numbers and numpy arrays drawn from continuous ranges.
`run_op` turns one record into calls on the public API and returns plain
outputs for the checks.  This module imports numpy and pathway_entropy and
nothing else, so a fresh interpreter that builds a round pays for the
program's import and not for anything the checks import (scipy.special,
scipy.integrate, mpmath).

Every round of a workload has the same number of ops of each kind, and each
continuous parameter of a kind is drawn stratified (one draw in each of n
equal slices of its range, shuffled).  A seed therefore moves the values but
not the mix, and the cost of a round varies little from seed to seed, which
is what keeps the figures of runs with different seeds comparable.  The kept
faults are ops whose inputs do not depend on the seed and that fail every
time (see README.md).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

import pathway_entropy as pe

WORKLOADS = ("maxent_fit", "pathway_dist", "entropy_eval", "cli_cold")

#: Inputs of the two kept faults; fixed, independent of the seed.
KEPT_SAMPLE = {"params": (1.5, 2.0, 1.5, 1.0, 1.0), "n": 10_000, "seed": 0}
KEPT_NEAR_ONE = {"probs": (0.05, 0.1, 0.15, 0.2, 0.5),
                 "alphas": (1.0 - 1e-8, 1.0 + 1e-8)}

FAMILIES = ("shannon", "renyi", "havrda_charvat", "tsallis", "mathai_m",
            "mathai_m_star")
ALPHA_FAMILIES = FAMILIES[1:]
REGIMES = ("lt", "eq", "gt")

# Sampler pool: visited in the same cyclic order every round.  It is larger
# than the program's 32-entry table cache, so first visits miss in every
# round; each repeat follows its first visit within a few ops and hits.
SAMPLE_POOL = 72
SAMPLE_REPEATS = 36
# Sampled parameters stay at or below order 1: below it the table covers the
# finite support, at order 1 it searches for a cut on the half-line.  Above
# order 1 that search never ends on some power tails and the draws come back
# NaN, for some seeds only (CHANGES.md, FOUND), so it is left out.
SAMPLE_REGIMES = ("lt", "eq")


class Op(NamedTuple):
    kind: str
    args: dict
    kept_fault: bool = False


def _strata(rng: np.random.Generator, n: int, lo: float = 0.0, hi: float = 1.0,
            log: bool = False) -> np.ndarray:
    """n values in [lo, hi), one in each of n equal slices, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _orders(rng, n: int, low: float, high: float, gap: float = 0.1) -> np.ndarray:
    """n orders at least `gap` from 1, half below and half above, shuffled."""
    below = _strata(rng, n - n // 2, low, 1.0 - gap)
    above = _strata(rng, n // 2, 1.0 + gap, high)
    return rng.permutation(np.concatenate((below, above)))


def _cycle(rng, items, n: int) -> list:
    """n items taken cyclically from `items`, shuffled."""
    return [items[i] for i in rng.permutation(np.arange(n) % len(items))]


def _interleave(rng, groups: list[list]) -> list:
    """Merge lists at random positions, keeping each list's own order."""
    tags = np.concatenate([np.full(len(g), i) for i, g in enumerate(groups)])
    rng.shuffle(tags)
    iters = [iter(g) for g in groups]
    return [next(iters[t]) for t in tags]


# ----------------------------------------------------------------- maxent_fit

_LEGENDRE = tuple(0.5 * (v + 1.0) if i == 0 else 0.5 * v
                  for i, v in enumerate(np.polynomial.legendre.leggauss(200)))


def _kernel_moments(alpha, delta, s, span, exponents, power=1.0) -> list[float]:
    """Integrals over [0, span] of x**e * k(x)**power for the gamma = 1,
    beta = 1 pathway kernel k, by Gauss-Legendre after x = span * u**3 (which
    makes the x**delta factor smooth in u).  Returns the e = 0 integral, then
    one per exponent."""
    u, w = _LEGENDRE
    x = span * u ** 3
    kern = np.power(1.0 - s * (1.0 - alpha) * x ** delta, power / (1.0 - alpha))
    base = w * 3.0 * span * u ** 2 * kern
    return [float(np.sum(base))] + [float(np.sum(base * x ** e)) for e in exponents]


def _maxent_args(alpha, delta, s, span, n_grid, kind, ratio=0.5) -> dict:
    """A round-trip problem whose target comes from the gamma = 1 pathway
    kernel at order `alpha`; `span` is a share of the finite support below 1."""
    if alpha < 1.0:
        span *= (s * (1.0 - alpha)) ** (-1.0 / delta)
    grid = np.linspace(0.0, span, int(n_grid))
    if kind == "escort":
        mass, num = _kernel_moments(alpha, delta, s, span, (delta,), power=alpha)
        exponents, targets = (delta,), (num / mass,)
    else:
        exponents = (delta,) if kind == "plain1" else (delta, delta * ratio)
        mass, *moments = _kernel_moments(alpha, delta, s, span, exponents)
        targets = tuple(m / mass for m in moments)
    return {"alpha": float(alpha), "delta": float(delta), "s": float(s),
            "grid": grid, "exponents": tuple(float(e) for e in exponents),
            "targets": targets}


def _maxent_ops(rng, kind: str, n: int) -> list[Op]:
    if kind == "escort":
        # above 1 only: below it the fitted coefficient is negative, where
        # solve_escort always fails (CHANGES.md, FOUND)
        alphas = _strata(rng, n, 1.1, 1.7)
    else:
        alphas = _orders(rng, n, 0.3, 1.7)
    deltas = _strata(rng, n, 0.8, 2.5)
    scales = _strata(rng, n, 0.3, 3.0, log=True)
    spans = _strata(rng, n, 1.0, 6.0, log=True)
    shares = _strata(rng, n, 0.5, 0.9)
    grids = _strata(rng, n, 60, 400)
    ratios = _strata(rng, n, 0.3, 0.7)
    return [Op(kind, _maxent_args(alphas[i], deltas[i], scales[i],
                                  shares[i] if alphas[i] < 1.0 else spans[i],
                                  grids[i], kind, ratios[i]))
            for i in range(n)]


def _run_maxent(op: Op):
    a = op.args
    constraints = tuple(pe.MomentConstraint(e, t)
                        for e, t in zip(a["exponents"], a["targets"]))
    if op.kind == "escort":
        problem = pe.MaxEntProblem(a["grid"], pe.AlphaOrder(a["alpha"]),
                                   constraints, pe.MaxEntVariant.ESCORT)
        sol = pe.solve_escort(problem, a["delta"])
    else:
        problem = pe.MaxEntProblem(a["grid"], pe.AlphaOrder(a["alpha"]),
                                   constraints)
        sol = pe.solve(problem)
    return {"density": sol.density_values, "multipliers": sol.multipliers}


# --------------------------------------------------------------- pathway_dist

def _pathway_params(rng, n: int, tail=(0.5, 6.0), gamma=(0.5, 3.0),
                    delta=(0.5, 2.5), min_decay: float = 0.0,
                    regimes=REGIMES) -> list[tuple]:
    """n parameter tuples (alpha, gamma, delta, s, beta_exp), the regimes in
    turn.  Above alpha = 1 the tail index
    tau = beta/(alpha-1) - gamma/delta is drawn in `tail`, plus
    min_decay/delta so that the density decays at least like
    x**-(1 + min_decay)."""
    regimes = _cycle(rng, regimes, n)
    gammas = _strata(rng, n, *gamma)
    deltas = _strata(rng, n, *delta)
    scales = _strata(rng, n, 0.5, 2.0, log=True)
    betas = _strata(rng, n, 0.5, 2.0)
    below = _strata(rng, n, 0.2, 0.9)
    above = _strata(rng, n, 1.1, 1.8)
    tails = _strata(rng, n, *tail)
    out = []
    for i, regime in enumerate(regimes):
        g, d, s = float(gammas[i]), float(deltas[i]), float(scales[i])
        if regime == "lt":
            out.append((float(below[i]), g, d, s, float(betas[i])))
        elif regime == "eq":
            out.append((1.0, g, d, s, float(betas[i])))
        else:
            a = float(above[i])
            tau = float(tails[i]) + min_decay / d
            out.append((a, g, d, s, (a - 1.0) * (g / d + tau)))
    return out


def _scale(params: tuple) -> float:
    """Characteristic x scale: the support edge below 1, else where the
    bracket argument reaches 1."""
    alpha, _, delta, s, beta = params
    if alpha == 1.0:
        return (beta * s) ** (-1.0 / delta)
    return (s * abs(1.0 - alpha)) ** (-1.0 / delta)


def _sample_ops(rng) -> list[Op]:
    pool = _pathway_params(rng, SAMPLE_POOL, regimes=SAMPLE_REGIMES)
    sizes = _strata(rng, SAMPLE_POOL + SAMPLE_REPEATS, 1e4, 1e5, log=True)
    seeds = rng.integers(2 ** 31, size=SAMPLE_POOL + SAMPLE_REPEATS)
    # a repeat of the entry visited 0-3 visits earlier, after every other visit
    visits = []
    for j in range(SAMPLE_POOL):
        visits.append(j)
        if j % 2 == 1:
            visits.append(j - int(rng.integers(min(4, j + 1))))
    return [Op("sample", {"params": pool[j], "n": int(round(sizes[i])),
                          "seed": int(seeds[i])})
            for i, j in enumerate(visits)]


def _pathway_ops(rng) -> list[Op]:
    cdf = [Op("cdf", {"params": p,
                      "x": _scale(p) * (float(share) if p[0] < 1.0 else float(far))})
           for p, share, far in zip(_pathway_params(rng, 200),
                                    _strata(rng, 200, 0.05, 0.95),
                                    _strata(rng, 200, 0.05, 5.0, log=True))]
    quantile = [Op("quantile", {"params": p, "u": float(u)})
                for p, u in zip(_pathway_params(rng, 60), _strata(rng, 60, 0.02, 0.98))]
    # quadrature over a power tail slower than x**-2 misses its tolerance
    # (CHANGES.md, FOUND), so the constants' tails decay at least like x**-2.5
    constants = [Op("constants", {"params": p})
                 for p in _pathway_params(rng, 60, min_decay=1.5)]
    # general derivative identity at a fixed step and at half of it
    sweep = [Op("sweep", {"params": p, "points": int(m), "h": 1e-3 * _scale(p)})
             for p, m in zip(_pathway_params(rng, 24), _strata(rng, 24, 50, 200))]
    rest = cdf + quantile + constants + sweep
    rest = [rest[i] for i in rng.permutation(len(rest))]
    # samples keep their visiting order, which decides the table-cache hits
    ops = _interleave(rng, [rest, _sample_ops(rng)])
    return ops + [Op("sample", dict(KEPT_SAMPLE), kept_fault=True)]


def _run_pathway(op: Op):
    a = op.args
    params = pe.PathwayParams(*a["params"])
    if op.kind == "cdf":
        return pe.cdf(params, a["x"])
    if op.kind == "quantile":
        return pe.quantile(params, a["u"])
    if op.kind == "constants":
        return (pe.normalizing_constant(params),
                pe.normalizing_constant_quadrature(params))
    if op.kind == "sample":
        return pe.sample(params, a["n"], a["seed"])
    case = pe.OdeCase(params, pe.OdeReduction.GENERAL)
    coarse = pe.residual_sweep(case, a["points"], a["h"])
    fine = pe.residual_sweep(case, a["points"], a["h"] / 2.0)
    return (coarse.max_residual, fine.max_residual)


# --------------------------------------------------------------- entropy_eval

def _probs(rng, k: int) -> np.ndarray:
    # strictly positive, spread over about two decades
    raw = rng.random(int(k)) + 0.01
    return raw / raw.sum()


class Vector(NamedTuple):
    """A probability vector of k entries made from `seed` when the op is
    prepared, so the long vectors of a round are not all held at once."""
    k: int
    seed: int

    def build(self) -> np.ndarray:
        return _probs(np.random.default_rng(self.seed), self.k)


def _family_orders(rng, families: list[str], min_power: float = 0.2) -> list[float]:
    """An order in each family's domain, 0.1 or more away from 1, whose
    power exponent (alpha, or 2 - alpha for the mathai forms) is at least
    `min_power`."""
    wide = _orders(rng, len(families), max(min_power, 0.2), 3.0)
    narrow = _orders(rng, len(families), 0.2, min(1.9, 2.0 - min_power))
    return [1.0 if f == "shannon" else
            float(narrow[i] if f.startswith("mathai") else wide[i])
            for i, f in enumerate(families)]


def _densities(rng, n: int, kinds=("exponential", "gaussian", "pathway")) -> list[tuple]:
    """('exponential', rate) | ('gaussian', mean, sd) | ('pathway', params)."""
    chosen = _cycle(rng, kinds, n)
    rates = _strata(rng, n, 0.3, 3.0, log=True)
    means = _strata(rng, n, -2.0, 2.0)
    # f**c stays integrable at 0 and in the tail for every order c >= 0.5
    params = _pathway_params(rng, n, tail=(4.0, 8.0), gamma=(1.0, 3.0),
                             delta=(1.0, 2.5))
    out = []
    for i, kind in enumerate(chosen):
        if kind == "exponential":
            out.append(("exponential", float(rates[i])))
        elif kind == "gaussian":
            out.append(("gaussian", float(means[i]), float(rates[i])))
        else:
            out.append(("pathway", params[i]))
    return out


def _entropy_ops(rng) -> list[Op]:
    # Sizes on a log ladder from 10 to 1e6 entries; the seed draws the
    # vectors, families and orders.  Cost is proportional to size, so a
    # ladder keeps the latency percentiles off the draw of a few sizes.
    fams = _cycle(rng, FAMILIES, 120)
    sizes = np.geomspace(10, 1e6, 120)
    seeds = rng.integers(2 ** 63, size=120)
    discrete = [Op("discrete", {"family": f, "alpha": a,
                                "probs": Vector(int(round(k)), int(s))})
                for f, a, k, s in zip(fams, _family_orders(rng, fams), sizes, seeds)]

    fams = _cycle(rng, FAMILIES, 18)
    pair_sizes = _strata(rng, 18, 2, 300, log=True)
    triple_sizes = _strata(rng, 18, 2, 40, log=True)
    compose = []
    for i, (f, a) in enumerate(zip(fams, _family_orders(rng, fams))):
        if i % 2:
            p, q, r = (_probs(rng, triple_sizes[(i + j) % 18]) for j in range(3))
        else:
            p, q, r = _probs(rng, pair_sizes[i]), _probs(rng, pair_sizes[-1 - i]), None
        compose.append(Op("compose_discrete", {"family": f, "alpha": a,
                                               "p": p, "q": q, "r": r}))

    fams = _cycle(rng, ("shannon", "havrda_charvat", "tsallis", "mathai_m"), 18)
    sizes = _strata(rng, 36, 2, 2000, log=True)
    xy = _strata(rng, 36, 0.02, 0.48)
    recursivity = [Op("recursivity", {"p": _probs(rng, sizes[2 * i]),
                                      "q": _probs(rng, sizes[2 * i + 1]),
                                      "family": f, "alpha": a,
                                      "x": float(xy[2 * i]), "y": float(xy[2 * i + 1])})
                   for i, (f, a) in enumerate(zip(fams, _family_orders(rng, fams)))]

    fams = _cycle(rng, FAMILIES, 36)
    continuous = [Op("continuous", {"family": f, "alpha": a, "f": d})
                  for f, a, d in zip(fams, _family_orders(rng, fams, 0.5),
                                     _densities(rng, 36))]

    # the iterated 2-D integral runs an inner quadrature per outer node
    fams = _cycle(rng, FAMILIES, 12)
    composition = [Op("compose_continuous", {"family": f, "alpha": a,
                                             "f": ("exponential", float(r)), "g": g})
                   for f, a, r, g in zip(fams, _family_orders(rng, fams, 0.5),
                                         _strata(rng, 12, 0.5, 2.0, log=True),
                                         _densities(rng, 12, ("exponential", "gaussian")))]

    inaccuracy = [Op("inaccuracy", {"alpha": float(a), "f": d})
                  for a, d in zip(_orders(rng, 18, 0.5, 2.5), _densities(rng, 18))]
    expectation = [Op("expectation", {"alpha": float(a), "f": d})
                   for a, d in zip(_orders(rng, 18, 0.3, 1.5), _densities(rng, 18))]
    ops = discrete + compose + recursivity + continuous + composition \
        + inaccuracy + expectation
    ops = [ops[i] for i in rng.permutation(len(ops))]
    return ops + [Op("near_one", dict(KEPT_NEAR_ONE), kept_fault=True)]


def density_spec(desc: tuple):
    if desc[0] == "exponential":
        return pe.exponential_density(desc[1])
    if desc[0] == "gaussian":
        return pe.gaussian_density(desc[1], desc[2])
    return pe.as_density_spec(pe.PathwayParams(*desc[1]))


def family(name: str):
    return getattr(pe, name.upper())


def _run_entropy(op: Op):
    a = op.args
    if op.kind == "near_one":
        dist = pe.DiscreteDistribution(np.array(a["probs"]))
        return [[pe.entropy(dist, family(name), pe.AlphaOrder(alpha))
                 for name in ALPHA_FAMILIES] for alpha in a["alphas"]]
    if op.kind == "discrete":
        dist = pe.DiscreteDistribution(a["probs"])
        return pe.entropy(dist, family(a["family"]), pe.AlphaOrder(a["alpha"]))
    order = pe.AlphaOrder(a.get("alpha", 1.0))
    if op.kind == "compose_discrete":
        p = pe.DiscreteDistribution(a["p"])
        q = pe.DiscreteDistribution(a["q"])
        if a["r"] is None:
            return pe.composition_residual_bivariate(p, q, family(a["family"]), order)
        r = pe.DiscreteDistribution(a["r"])
        return pe.composition_residual_trivariate(p, q, r, family(a["family"]), order)
    if op.kind == "recursivity":
        p = pe.DiscreteDistribution(a["p"])
        q = pe.DiscreteDistribution(a["q"])
        return (pe.shannon_recursivity_residual(p, q),
                pe.functional_equation_residual(family(a["family"]), order,
                                                a["x"], a["y"]))
    f = density_spec(a["f"])
    if op.kind == "continuous":
        return pe.continuous_entropy(f, family(a["family"]), order)
    if op.kind == "compose_continuous":
        return pe.composition_residual_continuous(f, density_spec(a["g"]),
                                                  family(a["family"]), order)
    if op.kind == "inaccuracy":
        return pe.kerridge_inaccuracy(pe.InaccuracyInput(f, f, order))
    return pe.m_alpha_expectation_residual(f, order)


# -------------------------------------------------------------------- cli_cold

def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _pathway_flags(p: tuple) -> list[str]:
    return ["--alpha", repr(p[0]), "--gamma", repr(p[1]), "--delta", repr(p[2]),
            "--s", repr(p[3]), "--beta", repr(p[4])]


def _cli_ops(rng) -> list[Op]:
    """Every (subcommand, mode) once in each output format, shuffled."""
    ops = []
    for fmt in ("csv", "json"):
        # sweeps start here and stay 0.1 or more away from 1
        alpha = float(rng.uniform(0.3, 0.5) if fmt == "csv" else rng.uniform(1.1, 1.3))
        # the table and constant share parameters; constants need the tail
        # bound of the in-process constants
        shape = _pathway_params(rng, 3, min_decay=1.5)
        ode = _pathway_params(rng, 3)
        sample = _pathway_params(rng, 3, regimes=SAMPLE_REGIMES)
        fit = _maxent_ops(rng, "plain1", 1)[0].args
        escort = _maxent_ops(rng, "escort", 1)[0].args
        p, q, r, true = (_probs(rng, k) for k in rng.integers(3, 30, size=4))
        assigned = _probs(rng, true.size)
        params = shape[int(rng.integers(3))]
        top = _scale(params) * (0.9 if params[0] < 1.0 else 3.0)
        specs = [
            ("entropy", ["entropy", "--family", "all", "--alpha",
                         f"{alpha!r}:{alpha + 0.3!r}:0.1", "--probs", _floats(p)], {}),
            ("compose", ["compose", "--family", "all", "--alpha", repr(alpha),
                         "--probs", _floats(p), "--probs2", _floats(q)]
             + (["--probs3", _floats(r)] if fmt == "json" else []), {}),
            ("pathway_table", ["pathway", *_pathway_flags(params), "--table",
                               f"{top / 10!r}:{top!r}:{top / 10!r}", "--with-cdf"],
             {"params": params}),
            ("pathway_sample", ["pathway", *_pathway_flags(sample[int(rng.integers(3))]),
                                "--sample", str(int(rng.integers(2000, 5001))),
                                "--seed", str(int(rng.integers(2 ** 31)))], {}),
            ("pathway_constant", ["pathway", *_pathway_flags(params), "--constant"],
             {"params": params}),
            ("maxent", ["maxent", "--alpha", repr(fit["alpha"]), "--grid",
                        f"0:{float(fit['grid'][-1])!r}:{float(fit['grid'][1])!r}", "--moment",
                        f"{fit['exponents'][0]!r}:{fit['targets'][0]!r}"], {"fit": fit}),
            ("maxent_escort", ["maxent", "--alpha", repr(escort["alpha"]), "--grid",
                               f"0:{float(escort['grid'][-1])!r}:{float(escort['grid'][1])!r}",
                               "--escort", "--escort-delta", repr(escort["delta"]),
                               "--moment",
                               f"{escort['delta']!r}:{escort['targets'][0]!r}"],
             {"fit": escort}),
            ("ode", ["ode", *_pathway_flags(ode[int(rng.integers(3))]),
                     "--points", str(int(rng.integers(20, 200)))], {}),
            ("ppp_scan", ["ppp", "--scan", str(int(rng.integers(20, 200)))], {}),
            ("ppp_n", ["ppp", "--n", str(int(rng.integers(100, 1001)))], {}),
            ("inaccuracy", ["inaccuracy", "--true", _floats(true), "--assigned",
                            _floats(assigned), "--alpha",
                            f"{alpha!r}:{alpha + 0.2!r}:0.1"], {}),
        ]
        ops += [Op(kind, {"argv": argv + ["--format", fmt], **extra})
                for kind, argv, extra in specs]
    return [ops[i] for i in rng.permutation(len(ops))]


# ----------------------------------------------------------------------- API

def build(workload: str, seed: int) -> list[Op]:
    """One round of `workload` for `seed`; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed % 2 ** 64, WORKLOADS.index(workload)])
    if workload == "maxent_fit":
        return _interleave(rng, [_maxent_ops(rng, "plain1", 90),
                                 _maxent_ops(rng, "plain2", 30),
                                 _maxent_ops(rng, "escort", 30)])
    if workload == "pathway_dist":
        return _pathway_ops(rng)
    if workload == "entropy_eval":
        return _entropy_ops(rng)
    return _cli_ops(rng)


def prepare(op: Op) -> Op:
    """The op with its Vector arguments built; done outside the timed call."""
    if not any(isinstance(v, Vector) for v in op.args.values()):
        return op
    return op._replace(args={k: v.build() if isinstance(v, Vector) else v
                             for k, v in op.args.items()})


def run_op(workload: str, op: Op):
    """Execute one in-process op against the public API; return its output."""
    if workload == "maxent_fit":
        return _run_maxent(op)
    if workload == "pathway_dist":
        return _run_pathway(op)
    if workload == "entropy_eval":
        return _run_entropy(op)
    raise ValueError(f"{workload} ops run as child processes")
