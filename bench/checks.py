"""Checks of every op's output against computations made apart from the
program: closed forms through scipy.special, re-integration with
scipy.integrate.quad, 50-digit mpmath sums, or a property the method must
have.  Nothing here compares with a stored copy of the program's output.

`check(workload, op, output)` returns (ok, detail).  Tolerances are the ones
the program documents for each routine; see README.md.
"""
from __future__ import annotations

import json
import math

import mpmath
import numpy as np
from scipy import integrate, special

mpmath.mp.dps = 50

# Kolmogorov-Smirnov: sqrt(n) * D above this has probability 1e-6 under the
# true distribution, so a right sampler fails about once in a million ops
# while the kept heavy-tail fault (sqrt(n) * D near 55) fails every time.
KS_LIMIT = math.sqrt(math.log(2.0 / 1e-6) / 2.0)
LONGDOUBLE_ABOVE = 2000     # longer vectors are checked with np.longdouble sums


def _quad(f, a, b) -> float:
    value, _ = integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=400)
    return value


def _rel(got, want) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ------------------------------------------------------------------- maxent

def _gen_kernel(alpha, delta, s):
    return lambda x: (1.0 - s * (1.0 - alpha) * x ** delta) ** (1.0 / (1.0 - alpha))


def check_maxent(kind: str, a: dict, out: dict) -> tuple[bool, str]:
    alpha, delta, s, grid = a["alpha"], a["delta"], a["s"], np.asarray(a["grid"])
    dens, lam = np.asarray(out["density"]), np.asarray(out["multipliers"])
    span = float(grid[-1])
    k = _gen_kernel(alpha, delta, s)
    truth = np.array([k(x) for x in grid]) / _quad(k, 0.0, span)
    gap = float(np.max(np.abs(dens - truth)) / np.max(truth))
    if kind == "escort":
        lam1, lam3 = lam
        fitted = lambda x: lam1 * (1.0 + lam3 * x ** delta) ** (1.0 / (1.0 - alpha))
        weight = lambda x: fitted(x) ** alpha
        achieved = [_quad(lambda x: x ** delta * weight(x), 0.0, span)
                    / _quad(weight, 0.0, span)]
    else:
        def fitted(x):
            bracket = lam[0] + sum(c * x ** e for c, e in zip(lam[1:], a["exponents"]))
            return max(bracket / (2.0 - alpha), 0.0) ** (1.0 / (1.0 - alpha))
        achieved = [_quad(lambda x, e=e: x ** e * fitted(x), 0.0, span)
                    for e in a["exponents"]]
    mass_gap = abs(_quad(fitted, 0.0, span) - 1.0)
    moment_gap = max(_rel(g, t) for g, t in zip(achieved, a["targets"]))
    ok = gap <= 1e-6 and mass_gap <= 1e-8 and moment_gap <= 1e-8
    return ok, f"density {gap:.1e} (1e-6), mass {mass_gap:.1e}, moments {moment_gap:.1e} (1e-8)"


# ------------------------------------------------------------------ pathway

def pathway_cdf(params, x):
    """Closed-form cdf: I_t(g/d, b/(1-a)+1), I_{t/(1+t)}(g/d, b/(a-1)-g/d) or
    P(g/d, b s x^d) with t = s|1-a| x^d."""
    a, g, d, s, b = params
    r = g / d
    x = np.maximum(np.asarray(x, dtype=float), 0.0)
    if a < 1.0:
        return special.betainc(r, b / (1.0 - a) + 1.0, np.minimum(s * (1.0 - a) * x ** d, 1.0))
    if a > 1.0:
        t = s * (a - 1.0) * x ** d
        return special.betainc(r, b / (a - 1.0) - r, t / (1.0 + t))
    return special.gammainc(r, b * s * x ** d)


def pathway_constant(params) -> float:
    """c with c * integral(kernel) = 1, from Beta and Gamma functions."""
    a, g, d, s, b = params
    r = g / d
    if a < 1.0:
        log_c = math.log(d) + r * math.log(s * (1.0 - a)) - special.betaln(r, b / (1.0 - a) + 1.0)
    elif a > 1.0:
        log_c = math.log(d) + r * math.log(s * (a - 1.0)) - special.betaln(r, b / (a - 1.0) - r)
    else:
        log_c = math.log(d) + r * math.log(b * s) - special.gammaln(r)
    return math.exp(log_c)


def pathway_pdf(params, x):
    a, g, d, s, b = params
    x = np.asarray(x, dtype=float)
    if a == 1.0:
        kern = x ** (g - 1.0) * np.exp(-b * s * x ** d)
    else:
        inner = np.maximum(1.0 - s * (1.0 - a) * x ** d, 0.0)
        kern = x ** (g - 1.0) * inner ** (b / (1.0 - a))
    return pathway_constant(params) * kern


def ks_statistic(draws, params) -> float:
    """sqrt(n) times the Kolmogorov-Smirnov distance to the closed-form cdf."""
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    cdf = pathway_cdf(params, x)
    i = np.arange(1, n + 1)
    return math.sqrt(n) * max(float(np.max(i / n - cdf)), float(np.max(cdf - (i - 1) / n)))


def _sample_ok(params, draws) -> tuple[bool, str]:
    draws = np.asarray(draws, dtype=float)
    if params[0] < 1.0:
        edge = (params[3] * (1.0 - params[0])) ** (-1.0 / params[2])
        inside = bool(np.all((draws >= 0.0) & (draws <= edge)))
    else:
        inside = bool(np.all(draws >= 0.0))
    ks = ks_statistic(draws, params)
    return inside and ks <= KS_LIMIT, f"sqrt(n)*KS {ks:.3f} (limit {KS_LIMIT:.3f}), in support {inside}"


def check_pathway(kind: str, a: dict, out) -> tuple[bool, str]:
    p = a["params"]
    if kind == "cdf":
        err = abs(out - float(pathway_cdf(p, a["x"])))
        return err <= 1e-9, f"cdf off by {err:.1e} (1e-9)"
    if kind == "quantile":
        err = abs(float(pathway_cdf(p, out)) - a["u"])
        tol = 1e-9 + 2e-10 * float(pathway_pdf(p, out))
        return err <= tol, f"cdf(quantile) - u = {err:.1e} ({tol:.1e})"
    if kind == "constants":
        c = pathway_constant(p)
        err = max(_rel(out[0], c), _rel(out[1], c))
        return err <= 1e-9, f"constants off by {err:.1e} relative (1e-9)"
    if kind == "sample":
        return _sample_ok(p, out)
    coarse, fine = out
    ratio = coarse / fine if fine > 0 else math.inf
    return 3.0 <= ratio <= 5.0, f"residual ratio at h and h/2 {ratio:.2f} (3-5)"


# ------------------------------------------------------------------ entropy

def family_value(family: str, alpha, power_sum, log=math.log):
    """Order-alpha family value from the power sum of exponent alpha (or
    2 - alpha for the mathai forms), in the arithmetic of its arguments."""
    if family == "renyi":
        return log(power_sum) / (1 - alpha)
    if family == "havrda_charvat":
        return (power_sum - 1) / (2 ** (1 - alpha) - 1)
    if family == "tsallis":
        return (power_sum - 1) / (1 - alpha)
    if family == "mathai_m":
        return (power_sum - 1) / (alpha - 1)
    return log(power_sum) / (alpha - 1)


def exponent(family: str, alpha: float) -> float:
    return 2.0 - alpha if family.startswith("mathai") else alpha


def discrete_entropy(family: str, alpha: float, probs) -> float:
    """Reference value: 50-digit mpmath sums, or np.longdouble for long
    vectors."""
    p = np.asarray(probs, dtype=float)
    if p.size <= LONGDOUBLE_ABOVE:
        mp = [mpmath.mpf(float(v)) for v in p]
        total = mpmath.fsum(mp)
        mp = [v / total for v in mp]
        if family == "shannon":
            return float(-mpmath.fsum(v * mpmath.log(v) for v in mp))
        c = mpmath.mpf(exponent(family, alpha))
        return float(family_value(family, mpmath.mpf(alpha),
                                  mpmath.fsum(v ** c for v in mp), mpmath.log))
    q = p.astype(np.longdouble)
    q = q / np.sum(q)
    if family == "shannon":
        return float(-np.sum(q * np.log(q)))
    power = np.sum(np.exp(np.longdouble(exponent(family, alpha)) * np.log(q)))
    return float(family_value(family, np.longdouble(alpha), power, np.log))


def _continuous_reference(desc, family: str, alpha: float) -> float:
    if family == "shannon":
        if desc[0] == "exponential":
            return 1.0 - math.log(desc[1])
        if desc[0] == "gaussian":
            return 0.5 * math.log(2.0 * math.pi * math.e * desc[2] ** 2)
    c = exponent(family, alpha)
    if desc[0] == "exponential":
        power = desc[1] ** (c - 1.0) / c
    elif desc[0] == "gaussian":
        power = (2.0 * math.pi * desc[2] ** 2) ** ((1.0 - c) / 2.0) / math.sqrt(c)
    else:
        p = desc[1]
        if family == "shannon":
            upper = (p[3] * (1.0 - p[0])) ** (-1.0 / p[2]) if p[0] < 1.0 else math.inf
            return -_quad(lambda x: _xlogx(float(pathway_pdf(p, x))), 0.0, upper)
        # kernel**c is the kernel with gamma - 1 and beta scaled by c
        a, g, d, s, b = p
        power = pathway_constant(p) ** c / pathway_constant((a, c * (g - 1.0) + 1.0,
                                                             d, s, c * b))
    return family_value(family, alpha, power)


def _xlogx(v: float) -> float:
    return v * math.log(v) if v > 0.0 else 0.0


def check_entropy(kind: str, a: dict, out) -> tuple[bool, str]:
    if kind == "near_one":
        worst = 0.0
        for row, alpha in zip(out, a["alphas"]):
            for value, family in zip(row, ("renyi", "havrda_charvat", "tsallis",
                                           "mathai_m", "mathai_m_star")):
                worst = max(worst, _rel(value, discrete_entropy(family, alpha, a["probs"])))
        return worst <= 1e-12, f"worst relative error {worst:.1e} (1e-12)"
    if kind == "discrete":
        err = _rel(out, discrete_entropy(a["family"], a["alpha"], a["probs"]))
        return err <= 1e-12, f"relative error {err:.1e} (1e-12)"
    if kind == "compose_discrete":
        tol = 1e-12 if a["r"] is None else 1e-10
        return abs(out) <= tol, f"residual {out:.1e} ({tol:.0e})"
    if kind == "recursivity":
        worst = max(abs(v) for v in out)
        return worst <= 1e-12, f"residuals {out[0]:.1e}, {out[1]:.1e} (1e-12)"
    if kind == "continuous":
        want = _continuous_reference(a["f"], a["family"], a["alpha"])
        err = abs(out - want) / max(abs(want), 1.0)
        return err <= 1e-8, f"error {err:.1e} relative to max(|value|, 1) (1e-8)"
    if kind == "compose_continuous":
        return abs(out) <= 1e-6, f"residual {out:.1e} (1e-6)"
    if kind == "inaccuracy":
        want = _continuous_reference(a["f"], "havrda_charvat", a["alpha"])
        err = abs(out - want) / max(abs(want), 1.0)
        return err <= 1e-8, f"self-assignment vs havrda_charvat {err:.1e} (1e-8)"
    return abs(out) <= 1e-10, f"expectation residual {out:.1e} (1e-10)"


# ---------------------------------------------------------------------- cli

def parse_cli(argv: list[str], text: str):
    """(header, rows) for CSV, the decoded object for JSON."""
    if argv[argv.index("--format") + 1] == "json":
        return json.loads(text)
    lines = text.splitlines()
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return lines[0].split(","), rows


def _flag(argv, name, cast=float):
    return cast(argv[argv.index(name) + 1])


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _records(parsed, key: str) -> list[dict]:
    """The JSON list under `key`, or the CSV rows as dicts by header."""
    if isinstance(parsed, dict):
        return parsed[key]
    header, rows = parsed
    return [dict(zip(header, row)) for row in rows]


def _ppp_brute(n: int) -> list[tuple[int, int, int]]:
    found = []
    y = np.arange(1, n)
    for x in range(1, n):
        prod = x * y
        hit = (prod % n == 0)
        z = prod // n
        hit &= (z >= 1) & (z < x) & (z < y)
        found += [(x, int(yy), int(zz)) for yy, zz in zip(y[hit], z[hit])]
    return found


def _cli_params(argv) -> tuple:
    return tuple(_flag(argv, f) for f in ("--alpha", "--gamma", "--delta", "--s", "--beta"))


def check_cli(kind: str, a: dict, out: dict) -> tuple[bool, str]:
    argv = a["argv"]
    if out["returncode"] != 0:
        return False, f"exit {out['returncode']}: {out['stderr'][:200]}"
    parsed = parse_cli(argv, out["stdout"])
    as_json = isinstance(parsed, dict)
    if kind in ("entropy", "compose", "inaccuracy"):
        rows = _records(parsed, "rows")
        if not rows:
            return False, "no rows"
        if kind == "compose":
            tol = 1e-10 if "--probs3" in argv else 1e-12
            worst = max(abs(r["residual"]) for r in rows)
            return worst <= tol, f"worst residual {worst:.1e} ({tol:.0e}), {len(rows)} rows"
        probs = _floats(_flag(argv, "--probs" if kind == "entropy" else "--true", str))
        worst = 0.0
        for r in rows:
            if kind == "entropy":
                want = discrete_entropy(r["family"], r["alpha"], probs)
            else:
                f = [mpmath.mpf(v) for v in probs]
                q = [mpmath.mpf(v) for v in _floats(_flag(argv, "--assigned", str))]
                f_total, q_total = mpmath.fsum(f), mpmath.fsum(q)
                alpha = mpmath.mpf(r["alpha"])
                expected = mpmath.fsum((fi / f_total) * (qi / q_total) ** (alpha - 1)
                                       for fi, qi in zip(f, q))
                want = float((expected - 1) / (2 ** (1 - alpha) - 1))
            worst = max(worst, _rel(r["value"], want))
        return worst <= 1e-12, f"worst relative error {worst:.1e} (1e-12), {len(rows)} rows"
    if kind == "pathway_table":
        p = a["params"]
        table = _records(parsed, "table")
        xs = np.array([r["x"] for r in table])
        dens_err = max(_rel(r["density"], float(pathway_pdf(p, r["x"]))) for r in table)
        cdf_err = float(np.max(np.abs(np.array([r["cdf"] for r in table])
                                      - pathway_cdf(p, xs))))
        ok = dens_err <= 1e-10 and cdf_err <= 1e-9 and len(table) >= 10
        return ok, f"density {dens_err:.1e} (1e-10), cdf {cdf_err:.1e} (1e-9)"
    if kind == "pathway_sample":
        draws = parsed["sample"] if as_json else [r[1] for r in parsed[1]]
        if len(draws) != _flag(argv, "--sample", int):
            return False, f"{len(draws)} draws"
        return _sample_ok(_cli_params(argv), draws)
    if kind == "pathway_constant":
        closed, quad = ((parsed["closed"], parsed["quadrature"]) if as_json
                        else parsed[1][0])
        return check_pathway("constants", a, (closed, quad))
    if kind in ("maxent", "maxent_escort"):
        if as_json:
            grid, dens, lam = parsed["grid"], parsed["density"], parsed["multipliers"]
        else:
            rows = parsed[1]
            grid = [r[2] for r in rows if r[0] == "density"]
            dens = [r[3] for r in rows if r[0] == "density"]
            lam = [r[3] for r in rows if r[0] == "multiplier"]
        fit = dict(a["fit"], grid=np.array(grid))
        return check_maxent("escort" if kind == "maxent_escort" else "plain1", fit,
                            {"density": dens, "multipliers": lam})
    if kind == "ode":
        record = parsed if as_json else dict(zip(parsed[0], parsed[1][0]))
        p = _cli_params(argv)
        a, g, d, s, b = p
        x = record["argmax"]
        # the larger of the identity's two right-hand terms at the worst point:
        # (gamma-1) k and s beta delta x^delta k / (1 - s(1-alpha) x^delta)
        kern = float(pathway_pdf(p, x)) / pathway_constant(p)
        scale = max(abs(g - 1.0) * kern, s * b * d * x ** d * kern / (1.0 - s * (1.0 - a) * x ** d))
        ok = record["n_points"] == _flag(argv, "--points", int) and \
            record["max_residual"] <= 1e-6 * scale
        return ok, f"max residual {record['max_residual']:.1e} vs term scale {scale:.1e}"
    if kind == "ppp_scan":
        counts = [(int(r["n"]), int(r["count"])) for r in _records(parsed, "scan")]
        want = [(n, len(_ppp_brute(n))) for n in range(2, _flag(argv, "--scan", int) + 1)]
        return counts == want, f"{len(counts)} counts vs brute force"
    if kind == "ppp_n":
        n = _flag(argv, "--n", int)
        triples = ([tuple(t) for t in parsed["triples"]] if as_json
                   else [tuple(int(v) for v in r[1:]) for r in parsed[1]])
        return sorted(triples) == _ppp_brute(n), f"{len(triples)} triples vs brute force"
    return False, f"no check for {kind}"


def check(workload: str, kind: str, args: dict, output) -> tuple[bool, str]:
    """(ok, detail) for one op; an output recorded as an exception fails."""
    if isinstance(output, dict) and "error" in output:
        return False, output["error"]
    if workload == "maxent_fit":
        return check_maxent(kind, args, output)
    if workload == "pathway_dist":
        return check_pathway(kind, args, output)
    if workload == "entropy_eval":
        return check_entropy(kind, args, output)
    return check_cli(kind, args, output)
