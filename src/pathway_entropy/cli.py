"""Batch command-line front end emitting CSV or JSON for every module.

Output contract: CSV has a one-line comma-separated header and values
printed with 17 significant digits, which float() re-parses exactly;
`read_csv` is the bundled reader.  JSON mirrors the same records
structurally.  Exit codes: 0 success, 2 usage errors, 3 domain errors,
4 numerical failures; failures print a one-line JSON error record to
stderr.  Sweeps use start:stop:step grammar, endpoints inclusive within
half a step.  PATHWAY_ENTROPY_SEED supplies the default sampling seed
(0 when unset).

Family sweeps with `--family all` skip (family, alpha) pairs outside a
family's order domain; naming a single family makes the same pair a hard
error instead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .errors import (
    DomainError,
    InvalidOrder,
    NumericalError,
    UsageError,
)

__all__ = ["run", "main", "read_csv", "parse_sweep"]

_FMT = "%.17g"
# `records` value of a handler whose one CSV row is spread into the JSON
# envelope as fields, instead of listed under a key.
_ONE_ROW = ""


class _Parser(argparse.ArgumentParser):
    # argparse prints and exits on bad flags; route through the error tree
    # instead so run() owns the exit code.
    def error(self, message: str):
        raise UsageError(message)


def _fmt(value) -> str:
    return _FMT % float(value)


def parse_sweep(text: str) -> list[float]:
    """A bare float, or start:stop:step inclusive within half a step."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            start, stop, step = (float(p) for p in parts)
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"expected a number or start:stop:step, got {text!r}")
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise UsageError("sweep bounds must be finite")
    if step <= 0.0:
        raise UsageError("sweep step must be positive")
    if stop < start:
        raise UsageError("sweep stop must not precede start")
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + step / 2.0:
            break
        values.append(value)
        k += 1
    return values


def _parse_probs(text: str):
    import numpy as np

    from .entropy_discrete import DiscreteDistribution, ZeroPolicy

    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated probabilities, got {text!r}")
    return DiscreteDistribution(np.array(values), ZeroPolicy.ZERO_INDIFFERENT)


def _families(name: str, constant: float) -> list[tuple]:
    from .entropy_discrete import EntropyFamily, FamilyTag

    def build(tag: FamilyTag) -> EntropyFamily:
        if tag is FamilyTag.SHANNON:
            return EntropyFamily(tag, constant)
        return EntropyFamily(tag)

    tags = list(FamilyTag) if name == "all" else [FamilyTag(name)]
    return [(tag.value, build(tag)) for tag in tags]


def _family_value_rows(args: argparse.Namespace, evaluate) -> list[list]:
    from .entropy_discrete import AlphaOrder, validate_order

    lenient = args.family == "all"
    rows = []
    for name, family in _families(args.family, args.constant):
        for alpha in parse_sweep(args.alpha):
            order = AlphaOrder(alpha)
            if lenient:
                try:
                    validate_order(family, order)
                except InvalidOrder:
                    continue
            rows.append([name, alpha, evaluate(family, order)])
    return rows


def _cmd_entropy(args: argparse.Namespace):
    from .entropy_discrete import entropy

    dist = _parse_probs(args.probs)
    rows = _family_value_rows(args, lambda fam, order: entropy(dist, fam, order))
    return ["family", "alpha", "value"], rows, {}, "rows"


def _cmd_compose(args: argparse.Namespace):
    from .entropy_discrete import (
        composition_residual_bivariate,
        composition_residual_trivariate,
    )

    p = _parse_probs(args.probs)
    q = _parse_probs(args.probs2)
    r = _parse_probs(args.probs3) if args.probs3 is not None else None

    def residual(family, order):
        if r is None:
            return composition_residual_bivariate(p, q, family, order)
        return composition_residual_trivariate(p, q, r, family, order)

    rows = _family_value_rows(args, residual)
    law = "bivariate" if r is None else "trivariate"
    return ["family", "alpha", "residual"], rows, {"law": law}, "rows"


_SPECIAL_FLAGS = ("alpha", "gamma", "delta", "s", "q", "beta_scale", "shape")


def _pathway_params(args: argparse.Namespace):
    from .pathway import PathwayParams, special_case

    if args.special is not None:
        if args.beta is not None:
            raise UsageError("special cases fix the outer exponent; drop --beta")
        kwargs = {key: getattr(args, key) for key in _SPECIAL_FLAGS
                  if getattr(args, key) is not None}
        return special_case(args.special, **kwargs)
    for key in ("q", "beta_scale", "shape"):
        if getattr(args, key) is not None:
            raise UsageError(f"--{key.replace('_', '-')} applies only with --special")
    if args.alpha is None:
        raise UsageError("either --special or --alpha is required")
    given = {"alpha": args.alpha, "gamma": args.gamma, "delta": args.delta,
             "s": args.s, "beta_exp": args.beta}
    return PathwayParams(**{key: value for key, value in given.items()
                            if value is not None})


def _default_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get("PATHWAY_ENTROPY_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PATHWAY_ENTROPY_SEED must be an integer, got {raw!r}")


def _cmd_pathway(args: argparse.Namespace):
    import numpy as np

    from .pathway import (
        cdf,
        density,
        normalizing_constant,
        normalizing_constant_quadrature,
        sample,
    )

    params = _pathway_params(args)
    reflect = args.reflect
    if reflect and args.special != "gaussian_half":
        raise UsageError("--reflect mirrors the gaussian_half special case only")
    modes = [args.table is not None, args.sample_n is not None, args.constant]
    if sum(modes) != 1:
        raise UsageError("choose exactly one of --table, --sample, --constant")
    if args.table is None and (reflect or args.with_cdf):
        raise UsageError("--reflect and --with-cdf apply only with --table")

    if args.table is not None:
        xs = np.array(parse_sweep(args.table))
        if reflect:
            dens = 0.5 * density(params, np.abs(xs))
        else:
            if np.any(xs < 0.0):
                raise UsageError("table points must be nonnegative without --reflect")
            dens = density(params, xs)
        header = ["x", "density"]
        columns = [xs, dens]
        if args.with_cdf:
            if reflect:
                cum = np.array([0.5 * (1.0 + math.copysign(1.0, x)
                                       * cdf(params, abs(x))) if x != 0.0 else 0.5
                                for x in xs])
            else:
                cum = np.array([cdf(params, x) for x in xs])
            header.append("cdf")
            columns.append(cum)
        rows = [list(row) for row in zip(*columns)]
        envelope = {"params": asdict(params), "reflect": reflect}
        return header, rows, envelope, "table"

    if args.sample_n is not None:
        seed = _default_seed(args.seed)
        draws = sample(params, args.sample_n, seed)
        rows = [[i, v] for i, v in enumerate(draws)]
        payload = {"params": asdict(params), "seed": seed,
                   "sample": [float(v) for v in draws]}
        return ["index", "value"], rows, payload, None

    row = [normalizing_constant(params), normalizing_constant_quadrature(params)]
    envelope = {"params": asdict(params)}
    return ["closed", "quadrature"], [row], envelope, _ONE_ROW


def _parse_moment(text: str):
    from .maxent import MomentConstraint

    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"expected exponent:target, got {text!r}")
    try:
        exponent, target = float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"expected exponent:target, got {text!r}")
    return MomentConstraint(exponent, target)


def _cmd_maxent(args: argparse.Namespace):
    import numpy as np

    from .entropy_discrete import AlphaOrder
    from .maxent import MaxEntProblem, MaxEntVariant, solve_escort
    from .maxent import solve as maxent_solve

    grid = np.array(parse_sweep(args.grid))
    constraints = tuple(_parse_moment(m) for m in args.moment or ())
    variant = MaxEntVariant.ESCORT if args.escort else MaxEntVariant.PLAIN
    problem = MaxEntProblem(grid, AlphaOrder(args.alpha), constraints, variant)
    if args.escort:
        solution = solve_escort(problem, args.escort_delta, lambda3=args.lambda3)
    else:
        if args.lambda3 is not None:
            raise UsageError("--lambda3 applies only with --escort")
        solution = maxent_solve(problem)

    rows = [["density", i, x, v]
            for i, (x, v) in enumerate(zip(grid, solution.density_values))]
    rows += [["multiplier", j, math.nan, m]
             for j, m in enumerate(solution.multipliers)]
    rows.append(["objective", 0, math.nan, solution.objective])
    rows.append(["euler_residual", 0, math.nan, solution.euler_residual])
    payload = {
        "variant": variant.value,
        "grid": [float(x) for x in grid],
        "density": [float(v) for v in solution.density_values],
        "multipliers": [float(m) for m in solution.multipliers],
        "objective": solution.objective,
        "euler_residual": solution.euler_residual,
    }
    return ["record", "index", "x", "value"], rows, payload, None


def _cmd_ode(args: argparse.Namespace):
    from .ode_check import OdeCase, OdeReduction, residual_sweep
    from .pathway import PathwayParams

    params = PathwayParams(alpha=args.alpha, gamma=args.gamma, delta=args.delta,
                           s=args.s, beta_exp=args.beta)
    case = OdeCase(params, OdeReduction(args.reduction))
    report = residual_sweep(case, args.points, args.h)
    row = [args.reduction, params.alpha, params.gamma, params.delta, params.s,
           params.beta_exp, case.eta, report.n_points, report.h,
           report.max_residual, report.argmax]
    header = ["reduction", "alpha", "gamma", "delta", "s", "beta", "eta",
              "n_points", "h", "max_residual", "argmax"]
    return header, [row], {}, _ONE_ROW


def _cmd_ppp(args: argparse.Namespace):
    from .ppp import independent_event_triples, scan

    if (args.scan_max is None) == (args.n is None):
        raise UsageError("choose exactly one of --scan or --n")
    if args.scan_max is not None:
        rows = [[n, count] for n, count in scan(args.scan_max)]
        return ["n", "count"], rows, {}, "scan"
    found = independent_event_triples(args.n)
    rows = [[found.n, x, y, z] for x, y, z in found.triples]
    payload = {"n": found.n, "triples": [list(t) for t in found.triples]}
    return ["n", "x", "y", "z"], rows, payload, None


def _cmd_inaccuracy(args: argparse.Namespace):
    from .divergence import InaccuracyInput, kerridge_inaccuracy
    from .entropy_discrete import AlphaOrder

    true_dist = _parse_probs(args.true)
    assigned = _parse_probs(args.assigned)
    rows = []
    for alpha in parse_sweep(args.alpha):
        value = kerridge_inaccuracy(
            InaccuracyInput(true_dist, assigned, AlphaOrder(alpha)))
        rows.append([alpha, value])
    return ["alpha", "value"], rows, {}, "rows"


def _render(output_format: str, header: list[str], rows: list[list],
            envelope: dict, records: str | None) -> str:
    """CSV from the header and rows, or JSON: the envelope followed by the
    rows as header-keyed records, listed under the key `records`, spread into
    the envelope for _ONE_ROW, or left out when `records` is None (columnar
    shapes carry their data in the envelope)."""
    if output_format == "json":
        if records == _ONE_ROW:
            envelope.update(zip(header, rows[0]))
        elif records is not None:
            envelope[records] = [dict(zip(header, row)) for row in rows]
        return json.dumps(envelope, indent=2) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell)
                              for cell in row))
    return "\n".join(lines) + "\n"


def read_csv(source) -> tuple[list[str], list[list]]:
    """Bundled reader for emitted CSV: numeric cells come back as floats,
    everything else as strings; re-rendering with the writer's format is
    byte-identical."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = text.splitlines()
    if not lines:
        raise UsageError("empty CSV input")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return header, rows


def _family_names() -> tuple[str, ...]:
    from .entropy_discrete import FamilyTag

    return tuple(t.value for t in FamilyTag) + ("all",)


def _entropy_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=_family_names(), required=True)
    p.add_argument("--alpha", default="1", help="order, or start:stop:step")
    p.add_argument("--constant", type=float, default=1.0,
                   help="scale constant for the shannon family")
    p.add_argument("--probs", required=True, help="comma-separated probabilities")


def _compose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=_family_names(), required=True)
    p.add_argument("--alpha", default="1", help="order, or start:stop:step")
    p.add_argument("--constant", type=float, default=1.0)
    p.add_argument("--probs", required=True)
    p.add_argument("--probs2", required=True)
    p.add_argument("--probs3", default=None,
                   help="third factor switches to the trivariate law")


def _pathway_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--special", default=None,
                   help="named parameter point (see pathway.SPECIAL_CASE_NAMES)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--beta", type=float, default=None, help="outer exponent")
    p.add_argument("--q", type=float, default=None, help="wigner order")
    p.add_argument("--beta-scale", dest="beta_scale", type=float, default=None)
    p.add_argument("--shape", type=float, default=None, help="weibull shape")
    p.add_argument("--table", default=None, metavar="START:STOP:STEP")
    p.add_argument("--with-cdf", dest="with_cdf", action="store_true")
    p.add_argument("--reflect", action="store_true",
                   help="mirror gaussian_half onto the whole line")
    p.add_argument("--sample", dest="sample_n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides PATHWAY_ENTROPY_SEED (default 0)")
    p.add_argument("--constant", action="store_true",
                   help="emit closed-form and quadrature normalizing constants")


def _maxent_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--grid", required=True, metavar="START:STOP:STEP")
    p.add_argument("--moment", action="append", metavar="EXPONENT:TARGET",
                   help="repeatable moment constraint")
    p.add_argument("--escort", action="store_true")
    p.add_argument("--escort-delta", dest="escort_delta", type=float, default=1.0)
    p.add_argument("--lambda3", type=float, default=None,
                   help="freeze the escort bracket coefficient")


def _ode_arguments(p: argparse.ArgumentParser) -> None:
    from .ode_check import OdeReduction

    p.add_argument("--reduction", default="general",
                   choices=[r.value for r in OdeReduction])
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--h", type=float, default=None,
                   help="stencil step (default: per-point scaling)")


def _ppp_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scan", dest="scan_max", type=int, default=None,
                   metavar="N_MAX")
    p.add_argument("--n", type=int, default=None)


def _inaccuracy_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--true", required=True, help="true distribution")
    p.add_argument("--assigned", required=True)
    p.add_argument("--alpha", default="2", help="order, or start:stop:step")


# name -> (help, adds the subcommand's own arguments, handler)
_SUBCOMMANDS = {
    "entropy": ("entropy values, optionally swept in alpha",
                _entropy_arguments, _cmd_entropy),
    "compose": ("product-composition law residuals", _compose_arguments, _cmd_compose),
    "pathway": ("density tables, samples, constants", _pathway_arguments, _cmd_pathway),
    "maxent": ("constrained maximum-entropy solve", _maxent_arguments, _cmd_maxent),
    "ode": ("derivative-identity residual sweep", _ode_arguments, _cmd_ode),
    "ppp": ("integer triples realizing exact independence", _ppp_arguments, _cmd_ppp),
    "inaccuracy": ("expected assignment penalty", _inaccuracy_arguments,
                   _cmd_inaccuracy),
}


def _build_parser(argv: Sequence[str]) -> _Parser:
    """Every subcommand with its help; arguments only for the one that argv
    names, so the modules behind other subcommands' choices stay unloaded.
    The top-level parser takes no option with a value, so its first
    positional is the first argument not starting with '-'."""
    parser = _Parser(prog="pathway-entropy", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for name, (help_text, add_arguments, handler) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == named:
            add_arguments(p)
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--output", default=None, metavar="PATH")
            p.set_defaults(handler=handler)
    return parser


def _error_record(exc: Exception) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch an argument vector; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        text = _render(args.format, *args.handler(args))
    except UsageError as exc:
        _error_record(exc)
        return 2
    except DomainError as exc:
        _error_record(exc)
        return 3
    except NumericalError as exc:
        _error_record(exc)
        return 4
    if args.output is not None:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
