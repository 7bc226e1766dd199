#!/usr/bin/env python3
"""Benchmark of pathway-entropy: four workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the last line of stdout is one JSON object holding the end-to-end
metrics (setup_s, ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mb); with
--trace 1 it holds the per-layer metrics of one traced pass instead.  Every
op's output is checked (checks.py); failed ops are counted, and `correct` is
false when an op other than a kept fault fails.  See README.md.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
IMPORTTIME_REPEATS = 3


def run_child(mode: str, workload: str, seed: int, seconds: float = 0.0) -> list:
    """Records streamed by one runner.py process, which must exit cleanly."""
    cmd = [sys.executable, os.path.join(HERE, "runner.py"), mode, workload,
           str(seed), repr(seconds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"runner {mode} {workload} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    stream = io.BytesIO(proc.stdout)
    records = []
    while stream.tell() < len(proc.stdout):
        records.append(pickle.load(stream))
    return records


def outputs_of(records: list) -> dict:
    return {r[1]: r[2] for r in records if r[0] == "output"}


def check_outputs(workload: str, ops, outputs: dict) -> set[int]:
    """Indices of ops whose output fails its check; prints each failure."""
    import checks
    import workloads
    failed = set()
    for i, out in sorted(outputs.items()):
        ok, detail = checks.check(workload, ops[i].kind,
                                  workloads.prepare(ops[i]).args, out)
        if not ok:
            failed.add(i)
            tag = "kept fault" if ops[i].kept_fault else "FAILED"
            print(f"{workload} op {i} {ops[i].kind}: {tag}: {detail}")
    return failed


def import_figures() -> tuple[float, float]:
    from tracing import import_times
    figures = []
    for _ in range(IMPORTTIME_REPEATS):
        log = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import pathway_entropy.cli"],
                             stderr=subprocess.PIPE, check=True).stderr.decode()
        figures.append(import_times(log))
    return (statistics.median(f[0] for f in figures),
            statistics.median(f[1] for f in figures))


def timed(workload: str, seed: int, seconds: float) -> dict:
    import runner as child
    import workloads
    child.setup_sample(workload, seed)   # untimed: fills the bytecode caches
    ops = workloads.build(workload, seed)
    records = run_child("timed", workload, seed, seconds)
    summary = records[-1][1]
    failed_set = check_outputs(workload, ops, outputs_of(records))
    rounds = summary["rounds"]
    extra = [i for i in summary["mismatched"] if i not in failed_set]
    for i in sorted(set(extra)):
        print(f"{workload} op {i} {ops[i].kind}: FAILED: output differs between rounds")
    lat = np.array(summary["latencies"])
    metrics = {
        "setup_s": (statistics.median(summary["setup"]), "s"),
        "ops_per_s": (lat.size / float(lat.sum()), "ops/s"),
        "op_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        # the process running the program: on cli_cold the largest CLI process
        "peak_rss_mb": ((summary["child_maxrss_kb"] if workload == "cli_cold"
                         else summary["maxrss_kb"]) / 1024.0, "MB"),
    }
    unexpected = [i for i in failed_set if not ops[i].kept_fault] + extra
    return {"correct": not unexpected, "attempted": int(lat.size),
            "failed": rounds * len(failed_set) + len(extra), "metrics": metrics,
            "note": f"{rounds} rounds of {len(ops)} ops"}


def traced(workload: str, seed: int) -> dict:
    import workloads
    ops = workloads.build(workload, seed)
    records = run_child("traced", workload, seed)
    summary = records[-1][1]
    failed_set = check_outputs(workload, ops, outputs_of(records))
    untraced = run_child("pass", workload, seed)[-1][1]["pass_s"]
    layer = dict(summary["metrics"])
    layer["trace.overhead_pct"] = (summary["pass_s"] / untraced - 1.0) * 100.0
    layer["cli.import_ms"], layer["cli.import_scipy_ms"] = import_figures()
    from tracing import LAYER_METRICS
    metrics = {name: (layer[name], unit) for name, unit in LAYER_METRICS.items()}
    return {"correct": all(ops[i].kept_fault for i in failed_set),
            "attempted": len(ops), "failed": len(failed_set), "metrics": metrics,
            "note": (f"one traced pass of {len(ops)} ops, spans in "
                     f"{summary['spans_file']}; traced {summary['pass_s']:.3f} s, "
                     f"untraced {untraced:.3f} s")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pathway_entropy", "__init__.py")):
        print(f"no pathway_entropy package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    # every process started from here imports the checkout's program
    os.environ["PYTHONPATH"] = SRC
    os.environ.pop("PATHWAY_ENTROPY_SEED", None)
    # one closed-loop caller: no BLAS worker threads either
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    result = traced(args.workload, args.seed) if args.trace \
        else timed(args.workload, args.seed, args.seconds)
    print(f"{args.workload} seed {args.seed}: {result.pop('note')}; "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
