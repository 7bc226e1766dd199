"""The process that runs pathway_entropy for one workload.

    python3 bench/runner.py MODE WORKLOAD SEED [SECONDS]

The parent (`run.py`) starts it with PYTHONPATH pointing at the checkout's
src/ and reads a stream of pickled records from its stdout.  Keeping the
program in its own process means its peak RSS and its imports are not mixed
with those of the checks.

MODE is one of
  setup   import pathway_entropy, build the round, print the clock and exit;
  timed   whole rounds of the workload's ops, one at a time, for about
          SECONDS (see `more_rounds`), with set-up samples between rounds;
          outputs of the first round are streamed for checking, later
          rounds are compared with them by digest;
  pass    one untraced pass over the round (the tracing-overhead baseline);
  traced  one traced pass with outputs streamed, then the per-layer metrics.
For cli_cold, `timed` starts one `pathway-entropy` process per op, one at a
time, while `pass` and `traced` call `cli.run` in process on the same
argument vectors.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import pickle
import resource
import subprocess
import sys
import time

import workloads

SETUP_SAMPLES = 6
CLI_MAIN = ("import sys; from pathway_entropy.cli import main; "
            "sys.argv[0] = 'pathway-entropy'; main()")


def digest(obj) -> str:
    return hashlib.blake2b(pickle.dumps(obj, protocol=4)).hexdigest()


def run_cli_in_process(argv: list[str]) -> dict:
    from pathway_entropy import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"returncode": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def setup_sample(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter, started from here, to import
    pathway_entropy and build the round (`setup` mode below)."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "setup", workload,
                          str(seed)], stdout=subprocess.PIPE, check=True).stdout
    return float(out.decode().split()[-1]) - start


class SetupClock:
    """Takes SETUP_SAMPLES set-up samples spread over a timed run, between
    rounds, so their median covers the same stretch of time as the ops: on a
    shared host the machine's speed can drift by tens of percent within a
    minute, and a burst of samples at the start would see only its start."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.args = (workload, seed)
        self.every = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self.last = -math.inf

    def between_rounds(self, elapsed: float) -> None:
        if elapsed - self.last >= self.every and len(self.samples) < SETUP_SAMPLES:
            self.samples.append(setup_sample(*self.args))
            self.last = elapsed

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(setup_sample(*self.args))
        return self.samples


def more_rounds(elapsed: float, rounds: int, seconds: float) -> bool:
    """Start another whole round when it should end nearer to `seconds`
    than stopping now does."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def run_cold(argv: list[str]) -> tuple[float, dict, int]:
    """One fresh `pathway-entropy` process: (seconds, output, max RSS in KB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    took = time.perf_counter() - start
    return took, {"returncode": proc.returncode, "stdout": stdout.decode(),
                  "stderr": stderr.decode()}, usage.ru_maxrss


def call(workload: str, op: workloads.Op):
    """(seconds, output) of one op, timed without building its inputs; an
    exception becomes an {'error': ...} output."""
    op = workloads.prepare(op)
    start = time.perf_counter()
    try:
        if workload == "cli_cold":
            out = run_cli_in_process(op.args["argv"])
        else:
            out = workloads.run_op(workload, op)
    except Exception as exc:  # a failed op is recorded and counted, not fatal
        out = {"error": f"{type(exc).__name__}: {exc}"}
    return time.perf_counter() - start, out


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    ops = workloads.build(workload, seed)
    if mode == "setup":
        print(repr(time.perf_counter()), flush=True)
        return 0
    stream = sys.stdout.buffer

    def emit(record) -> None:
        pickle.dump(record, stream, protocol=4)

    summary = {}
    if mode == "timed":
        seconds = float(argv[3])
        latencies, digests, mismatched, child_rss = [], [], [], 0
        clock = SetupClock(workload, seed, seconds)
        rounds, busy = 0, 0.0
        while rounds == 0 or more_rounds(busy, rounds, seconds):
            clock.between_rounds(busy)
            round_start = time.perf_counter()
            for i, op in enumerate(ops):
                if workload == "cli_cold":
                    took, out, rss = run_cold(op.args["argv"])
                    child_rss = max(child_rss, rss)
                else:
                    took, out = call(workload, op)
                latencies.append(took)
                if rounds == 0:
                    digests.append(digest(out))
                    emit(("output", i, out))
                elif digest(out) != digests[i]:
                    mismatched.append(i)
            rounds += 1
            busy += time.perf_counter() - round_start
        summary = {"rounds": rounds, "latencies": latencies, "mismatched": mismatched,
                   "setup": clock.finish(), "child_maxrss_kb": child_rss}
    elif mode == "pass":
        summary = {"pass_s": sum(call(workload, op)[0] for op in ops)}
    elif mode == "traced":
        import pathway_entropy
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(pathway_entropy)
        total = 0.0
        output_bytes = 0
        try:
            for i, op in enumerate(ops):
                took, out = call(workload, op)
                total += took
                if workload == "cli_cold" and "stdout" in out:
                    output_bytes += len(out["stdout"].encode())
                emit(("output", i, out))
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = output_bytes
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out", f"trace-{workload}-seed{seed}.jsonl")
        tracer.write(path)
        summary = {"pass_s": total, "metrics": metrics, "spans_file": path}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit(("summary", summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
