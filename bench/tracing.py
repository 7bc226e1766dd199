"""Spans around the calls into each pathway_entropy module, recorded from
the benchmark's side: nothing under src/ changes.

`Tracer.install()` replaces every public function of every module (the
names in each module's `__all__`) with a wrapper that records a span, in the
defining module and in every module that imported the function by name
(`integrate` lives in maxent, pathway, entropy_continuous and divergence
too, `kernel` in ode_check).  Integrands handed to `integrate` and
functions handed to `find_root` are wrapped as well, so evaluations are
counted where they happen.  Spans are kept in memory as
[name, start_ns, end_ns, parent] and written out by `write`.  A span's self
time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

MODULES = ("quadrature", "entropy_discrete", "entropy_continuous", "pathway",
           "maxent", "ode_check", "divergence", "ppp", "cli")

#: per-layer metrics in the order they are reported: name -> unit
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "BENCHMARK.json")) as _fh:
    LAYER_METRICS = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}

_FITS = ("maxent.solve", "maxent.solve_escort")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name: str, fn, before=None):
        """`fn` recording a span `name`; `before(args, kwargs)` may count
        and may return replacement arguments."""
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            active[name] += 1
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                active[name] -= 1
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
                if name == "quadrature.integrand" and not active[name]:
                    self.counts["integrand_ns"] += end - start
        return wrapper

    def _integrate_args(self, args, kwargs):
        if any(self._active[f] for f in _FITS):
            self.counts["maxent.integrals"] += 1
        f, *rest = args
        counts = self.counts

        def integrand(x):
            counts["quadrature.integrand.evals"] += int(np.size(x))
            return f(x)
        return (self.wrap("quadrature.integrand", integrand), *rest), kwargs

    def _find_root_args(self, args, kwargs):
        f, *rest = args
        counts = self.counts

        def counted(x):
            counts["quadrature.find_root.fevals"] += 1
            return f(x)
        return (counted, *rest), kwargs

    def _sample_args(self, args, kwargs):
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.counts["pathway.sample.draws"] += int(n)
        return args, kwargs

    def _entropy_args(self, args, kwargs):
        self.counts["entropy_discrete.entries"] += len(args[0])
        return args, kwargs

    # ----------------------------------------------------------- installing

    def install(self, package) -> None:
        """Wrap the public functions of every module of `package`."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        before = {"quadrature.integrate": self._integrate_args,
                  "quadrature.find_root": self._find_root_args,
                  "pathway.sample": self._sample_args,
                  "entropy_discrete.entropy": self._entropy_args}
        replace = {}
        for short, module in zip(MODULES, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    replace[id(fn)] = (fn, self.wrap(name, fn, before.get(name)))
        for module in [package] + modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patch(module, attr, replace[id(value)][1])

        pathway = modules[MODULES.index("pathway")]
        table = getattr(pathway, "_inverse_table", None)
        if table is not None and hasattr(table, "cache_info"):
            self._patch(pathway, "_inverse_table", self._count_table(table))
        cls = modules[MODULES.index("entropy_discrete")].DiscreteDistribution
        self._patch(cls, "__post_init__",
                    self.wrap("entropy_discrete.construct", cls.__post_init__))

    def _count_table(self, table):
        counts = self.counts

        @functools.wraps(table)
        def lookup(*args):
            hits = table.cache_info().hits
            out = table(*args)
            counts["pathway.sample.table_lookups"] += 1
            counts["pathway.sample.table_hits"] += table.cache_info().hits - hits
            return out
        return lookup

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------ reporting

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self ns) per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_ns[name] += end - start - covered
        return calls, self_ns

    def metrics(self) -> dict:
        """Per-layer metrics measured by the spans and counters; the import
        figures and the overhead are added by the caller."""
        calls, self_ns = self.self_times()
        c = self.counts

        def ms(*names):
            return sum(self_ns[n] for n in names) / 1e6

        fits = calls["maxent.solve"] + calls["maxent.solve_escort"]
        lookups = c["pathway.sample.table_lookups"]
        out = {
            "quadrature.integrate.calls": calls["quadrature.integrate"],
            "quadrature.integrate.self_ms": ms("quadrature.integrate"),
            "quadrature.integrand.calls": calls["quadrature.integrand"],
            "quadrature.integrand.evals": c["quadrature.integrand.evals"],
            "quadrature.integrand.ms": c["integrand_ns"] / 1e6,
            "quadrature.find_root.calls": calls["quadrature.find_root"],
            "quadrature.find_root.fevals": c["quadrature.find_root.fevals"],
            "quadrature.find_root.self_ms": ms("quadrature.find_root"),
            "maxent.fits": fits,
            "maxent.integrals_per_fit": c["maxent.integrals"] / fits if fits else 0.0,
            "pathway.sample.draws": c["pathway.sample.draws"],
            "pathway.sample.table_lookups": lookups,
            "pathway.sample.table_hit_ratio":
                c["pathway.sample.table_hits"] / lookups if lookups else 0.0,
            "pathway.kernel.calls": calls["pathway.kernel"],
            "entropy_discrete.entries": c["entropy_discrete.entries"],
            "entropy_discrete.construct_ms": ms("entropy_discrete.construct"),
            "entropy_discrete.composition.self_ms":
                ms("entropy_discrete.composition_residual_bivariate",
                   "entropy_discrete.composition_residual_trivariate"),
            "trace.spans": len(self.spans),
        }
        for name in LAYER_METRICS:
            if name not in out and name.endswith((".calls", ".self_ms")):
                span = name.rsplit(".", 1)[0]
                out[name] = calls[span] if name.endswith(".calls") else ms(span)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def import_times(importtime_log: str) -> tuple[float, float]:
    """(ms importing pathway_entropy, ms of that spent in scipy) from the
    stderr of `python -X importtime`.  Lines come in completion order, so a
    module's parent is the next line with less indentation."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    package = scipy = 0
    for i, (depth, cumulative, name) in enumerate(entries):
        parent = next((n for d, _, n in entries[i + 1:] if d < depth), None)
        if name.startswith("pathway_entropy") and (parent is None or
                                                   not parent.startswith("pathway_entropy")):
            package += cumulative
        if name.split(".")[0] == "scipy" and parent is not None \
                and parent.split(".")[0] != "scipy":
            scipy += cumulative
    return package / 1e3, scipy / 1e3
