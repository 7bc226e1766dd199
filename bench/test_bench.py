"""Tests of the benchmark itself: the checks reject perturbed outputs, and
the trace wrappers change nothing the program returns.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pathway_entropy  # noqa: E402

import checks  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def first_of_each_kind(workload: str) -> dict:
    ops = {}
    for op in workloads.build(workload, SEED):
        if not op.kept_fault:
            ops.setdefault(op.kind, op)
    return ops


@pytest.fixture(scope="module")
def maxent_ops():
    return first_of_each_kind("maxent_fit")


@pytest.fixture(scope="module")
def pathway_ops():
    return first_of_each_kind("pathway_dist")


@pytest.fixture(scope="module")
def entropy_ops():
    return first_of_each_kind("entropy_eval")


def verdict(workload, op, out) -> bool:
    return checks.check(workload, op.kind, workloads.prepare(op).args, out)[0]


def run(workload, op):
    took, out = runner.call(workload, op)
    assert not (isinstance(out, dict) and "error" in out), out
    return out


@pytest.mark.parametrize("kind", ["plain1", "plain2", "escort"])
def test_maxent_check_rejects_scaled_density(maxent_ops, kind):
    op = maxent_ops[kind]
    out = run("maxent_fit", op)
    assert verdict("maxent_fit", op, out)
    scaled = dict(out, density=out["density"] * (1.0 + 1e-5))
    assert not verdict("maxent_fit", op, scaled)
    bumped = dict(out, multipliers=out["multipliers"] * (1.0 + 1e-7))
    assert not verdict("maxent_fit", op, bumped)


def test_pathway_checks_reject_perturbed_outputs(pathway_ops):
    cases = {
        "cdf": lambda v: v + 1e-8,
        "quantile": lambda v: v * (1.0 + 1e-6),
        "constants": lambda v: (v[0], v[1] * (1.0 + 1e-8)),
        "sweep": lambda v: (v[0] * 2.0, v[1]),
    }
    for kind, perturb in cases.items():
        op = pathway_ops[kind]
        out = run("pathway_dist", op)
        assert verdict("pathway_dist", op, out), kind
        assert not verdict("pathway_dist", op, perturb(out)), kind


def test_sample_check_rejects_stretched_draws(pathway_ops):
    op = pathway_ops["sample"]
    op = op._replace(args=dict(op.args, n=100_000))
    draws = run("pathway_dist", op)
    assert verdict("pathway_dist", op, draws)
    assert not verdict("pathway_dist", op, draws * 1.05)


def test_kept_faults_fail():
    for workload in ("pathway_dist", "entropy_eval"):
        kept = [op for op in workloads.build(workload, SEED) if op.kept_fault]
        assert len(kept) == 1
        assert not verdict(workload, kept[0], run(workload, kept[0]))


def test_entropy_checks_reject_perturbed_outputs(entropy_ops):
    cases = {
        "discrete": lambda v: v * (1.0 + 1e-11),
        "compose_discrete": lambda v: v + 1e-9,
        "recursivity": lambda v: (v[0], v[1] + 1e-11),
        "continuous": lambda v: v * (1.0 + 1e-7) + 1e-7,
        "compose_continuous": lambda v: v + 1e-5,
        "inaccuracy": lambda v: v * (1.0 + 1e-7) + 1e-7,
        "expectation": lambda v: v + 1e-9,
    }
    for kind, perturb in cases.items():
        op = entropy_ops[kind]
        out = run("entropy_eval", op)
        assert verdict("entropy_eval", op, out), kind
        assert not verdict("entropy_eval", op, perturb(out)), kind


# kind -> (list holding the records in JSON, field, change); CSV rows carry
# the same field names in their header
ROW_PERTURBATIONS = {
    "entropy": ("rows", "value", lambda v: v * (1.0 + 1e-9)),
    "inaccuracy": ("rows", "value", lambda v: v * (1.0 + 1e-9)),
    "compose": ("rows", "residual", lambda v: v + 1e-9),
    "pathway_table": ("table", "cdf", lambda v: v + 1e-8),
    "ppp_scan": ("scan", "count", lambda v: v + 1),
}


def perturbed(kind: str, argv: list[str], text: str) -> str:
    """The CLI output with one value the check reads changed."""
    parsed = checks.parse_cli(argv, text)
    if isinstance(parsed, dict):
        if kind in ROW_PERTURBATIONS:
            key, field, change = ROW_PERTURBATIONS[kind]
            parsed[key][0][field] = change(parsed[key][0][field])
        elif kind == "pathway_constant":
            parsed["quadrature"] *= 1.0 + 1e-8
        elif kind == "ode":
            parsed["max_residual"] *= 1e6
        elif kind in ("maxent", "maxent_escort"):
            parsed["density"][1] *= 1.0 + 1e-5
        elif kind == "ppp_n":
            parsed["triples"].append([2, 3, 1])
        elif kind == "pathway_sample":
            parsed["sample"] = [v * 1.5 for v in parsed["sample"]]
        return json.dumps(parsed)
    header, rows = parsed
    records = [dict(zip(header, row)) for row in rows]
    if kind in ROW_PERTURBATIONS:
        _, field, change = ROW_PERTURBATIONS[kind]
        records[0][field] = change(records[0][field])
    elif kind == "pathway_constant":
        records[0]["quadrature"] *= 1.0 + 1e-8
    elif kind == "ode":
        records[0]["max_residual"] *= 1e6
    elif kind in ("maxent", "maxent_escort"):
        records[1]["value"] *= 1.0 + 1e-5
    elif kind == "ppp_n":
        records.append({"n": records[0]["n"] if records else 7.0, "x": 2.0, "y": 3.0,
                        "z": 1.0})
    elif kind == "pathway_sample":
        for r in records:
            r["value"] *= 1.5
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else "%.17g" % v for v in r.values())
              for r in records]
    return "\n".join(lines) + "\n"


def test_cli_checks_reject_perturbed_outputs():
    for op in workloads.build("cli_cold", SEED):
        out = runner.run_cli_in_process(op.args["argv"])
        assert verdict("cli_cold", op, out), op.kind
        bad = perturbed(op.kind, op.args["argv"], out["stdout"])
        assert not verdict("cli_cold", op, dict(out, stdout=bad)), op.kind


def test_trace_wrappers_return_what_the_program_returns(maxent_ops, pathway_ops,
                                                        entropy_ops):
    cases = [("maxent_fit", op) for op in maxent_ops.values()]
    cases += [("pathway_dist", op) for op in pathway_ops.values()]
    cases += [("entropy_eval", op) for op in entropy_ops.values()
              if op.kind != "compose_continuous"]
    cases += [("cli_cold", op) for op in workloads.build("cli_cold", SEED)[:6]]
    plain = [runner.digest(runner.call(w, op)[1]) for w, op in cases]
    originals = {name: getattr(pathway_entropy, name) for name in pathway_entropy.__all__}
    tracer = tracing.Tracer()
    tracer.install(pathway_entropy)
    try:
        assert pathway_entropy.integrate is not originals["integrate"]
        traced = [runner.digest(runner.call(w, op)[1]) for w, op in cases]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(getattr(pathway_entropy, n) is f for n, f in originals.items())
    calls, _ = tracer.self_times()
    assert calls["quadrature.integrate"] > 0 and calls["maxent.solve"] > 0


def test_wrapper_passes_results_and_exceptions_through():
    tracer = tracing.Tracer()
    sentinel = object()
    assert tracer.wrap("x.f", lambda a, b=1: (a, b, sentinel))(2, b=3) == (2, 3, sentinel)

    def boom():
        raise ValueError("kept")
    with pytest.raises(ValueError, match="kept"):
        tracer.wrap("x.g", boom)()
    assert [s[0] for s in tracer.spans] == ["x.f", "x.g"]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_traced_counts_repeat(maxent_ops, pathway_ops):
    def counts():
        tracer = tracing.Tracer()
        tracer.install(pathway_entropy)
        try:
            for op in list(maxent_ops.values()) + list(pathway_ops.values()):
                runner.call("maxent_fit" if op.kind in maxent_ops else "pathway_dist", op)
        finally:
            tracer.uninstall()
        return {k: v for k, v in tracer.metrics().items() if not k.endswith("ms")}
    first, second = counts(), counts()
    assert first == second
    assert first["maxent.integrals_per_fit"] > 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 50, 60, 0],
                    ["b", 20, 30, 1]]
    calls, self_ns = tracer.self_times()
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_ns == {"a": 60, "b": 30, "c": 10}


def test_import_times_parser():
    # the shape `python -X importtime -c "import pathway_entropy.cli"` prints
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       300 |        300 | numpy",
        "import time:       200 |        200 |         scipy",
        "import time:       100 |        400 |       scipy.optimize",
        "import time:        10 |        410 |     pathway_entropy.quadrature",
        "import time:        20 |         20 |     pathway_entropy.maxent",
        "import time:        30 |        460 |   pathway_entropy",
        "import time:        40 |        500 | pathway_entropy.cli",
    ])
    assert tracing.import_times(log) == (0.5, 0.4)


def test_same_seed_same_round_and_fixed_mix():
    a, b = workloads.build("pathway_dist", 3), workloads.build("pathway_dist", 3)
    assert [runner.digest(op) for op in a] == [runner.digest(op) for op in b]
    for workload in workloads.WORKLOADS:
        kinds = [sorted(op.kind for op in workloads.build(workload, s)) for s in (1, 2)]
        assert kinds[0] == kinds[1], workload
    assert not np.array_equal(workloads.build("entropy_eval", 1)[0].args.get("probs", [0]),
                              workloads.build("entropy_eval", 2)[0].args.get("probs", [1]))


def test_sampler_table_hits_fixed_for_every_seed():
    # replay the sample ops of two rounds through an LRU cache the size of
    # the program's table cache: the same hits in every round and seed
    from functools import lru_cache
    from pathway_entropy import pathway
    size = pathway._inverse_table.cache_info().maxsize
    for seed in range(40):
        params = [op.args["params"] for op in workloads.build("pathway_dist", seed)
                  if op.kind == "sample"]
        lookup = lru_cache(maxsize=size)(lambda p: p)
        for expected in (workloads.SAMPLE_REPEATS, 2 * workloads.SAMPLE_REPEATS):
            for p in params:
                lookup(p)
            assert lookup.cache_info().hits == expected, seed
        assert len(params) == workloads.SAMPLE_POOL + workloads.SAMPLE_REPEATS + 1
