#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and summarize each end-to-end metric.

    python3 bench/study.py --seeds 101-110

Run from the repository root.  For every workload in BENCHMARK.json it runs
one benchmark per seed, one after another, for the file's `run_seconds`,
and prints each metric's median, first and third quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, plus the share of failed ops.  This regenerates the reference
figures in README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "BENCHMARK.json")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    args = parser.parse_args()
    with open(SPEC) as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                                   "--seed", str(seed), "--seconds",
                                   str(spec["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            figures = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in figures.items()), flush=True)
            for name, value in figures.items():
                values.setdefault(name, []).append(value)
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"{workload} {name}: median {statistics.median(vals):.4g}, "
                  f"quartiles {q1:.4g} - {q3:.4g}, "
                  f"spread {(q3 - q1) / statistics.median(vals):.3f}")
        print(f"{workload} failed share: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
