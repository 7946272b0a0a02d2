"""Spans around trexlab's public functions, installed from outside the package.

The traced run replaces a function with a recording wrapper on the module
where its caller looks it up (``harness.solve_trex``, ``bounds.fit_lasso``,
``workloads.solve_trex``, ...), so ``trexlab`` itself is not modified. A span
holds its name, layer, start, end, parent and the operation id; spans are kept
in memory while an operation is open and ignored otherwise.

Pool workers are forked inside an open ``run_verification`` span and inherit
the tracer, so their spans already carry the right parent and operation. A
worker writes its spans to a spool file each time it returns to the inherited
context, and the parent reads the spool files once the traced pass is over.

``norms.prox_omega`` runs once per line-search trial, far too often for a span
each, so it is counted instead: its calls and time accumulate on the enclosing
span and are subtracted from that span's self time.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time
from collections import defaultdict
from statistics import median


class Span:
    __slots__ = ("sid", "pid", "parent", "op", "name", "layer", "start", "end",
                 "attrs", "leaf")

    def __init__(self, sid, pid, parent, op, name, layer, start, end=None,
                 attrs=None, leaf=None):
        self.sid, self.pid, self.parent, self.op = sid, pid, parent, op
        self.name, self.layer, self.start, self.end = name, layer, start, end
        self.attrs = attrs or {}
        self.leaf = leaf or {}     # layer -> [calls, seconds] of counted leaf calls

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in self.__slots__})


class Tracer:
    def __init__(self, spool_dir: str):
        os.makedirs(spool_dir, exist_ok=True)
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self.pid = self.owner      # the process whose spans ``spans`` holds
        self.spans = []
        self._stack = []
        self._count = 0
        self._patched = []

    def _open(self, name: str, layer: str, op=None) -> Span:
        pid = os.getpid()
        if pid != self.pid:        # first span in a freshly forked worker
            self.pid, self.spans = pid, []
        self._count += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(f"{pid}.{self._count}", pid, parent and parent.sid,
                    op if parent is None else parent.op, name, layer,
                    time.perf_counter())
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if span.pid != self.owner and (not self._stack or self._stack[-1].pid != span.pid):
            with open(os.path.join(self.spool_dir, f"spans-{span.pid}.jsonl"), "a") as fh:
                fh.writelines(s.to_json() + "\n" for s in self.spans)
            self.spans = []

    def op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id``; spans are recorded inside it."""
        span = self._open("op", "bench", op=op_id)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def wrap(self, module, attr: str, layer: str, attrs_of=None):
        """Record a span for every call of ``module.attr`` made inside an operation."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(attr, layer)
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    span.attrs = attrs_of(result)
                return result
            finally:
                self._close(span)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def count(self, module, attr: str, layer: str):
        """Count calls of ``module.attr`` and their time on the enclosing span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf = self._stack[-1].leaf.setdefault(layer, [0, 0.0])
                leaf[0] += 1
                leaf[1] += time.perf_counter() - start

        setattr(module, attr, counted)
        self._patched.append((module, attr, fn))

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def collect(self) -> list:
        """All spans of this process plus those its pool workers spooled."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.spool_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                spans.extend(Span(**json.loads(line)) for line in fh)
            os.remove(path)
        return spans


def _trex_attrs(fit) -> dict:
    rows = fit.per_subproblem
    return {"iterations": int(fit.diagnostics.get("iterations", 0)),
            "unconverged": sum(r.feasible and not r.converged for r in rows),
            "infeasible": sum(not r.feasible for r in rows)}


def _lasso_attrs(fit) -> dict:
    return {"sweeps": fit.iterations, "unconverged": int(not fit.converged)}


def _compat_attrs(estimate) -> dict:
    return {"samples": estimate.samples}


VERIFY_FUNCTIONS = ("verify_lasso_fast", "verify_lasso_slow", "verify_trex_fast_via_lasso",
                    "verify_trex_fast_compat", "verify_trex_slow", "verify_l1_ordering")


def install(tracer: Tracer, workloads) -> None:
    """Wrap every measured public function where its caller looks it up."""
    from trexlab import bounds, harness, norms

    for module in (workloads, harness):
        tracer.wrap(module, "solve_trex", "trex", _trex_attrs)
        tracer.wrap(module, "solve_trex_constrained", "trex", _trex_attrs)
        tracer.wrap(module, "generate", "datagen")
    tracer.wrap(workloads, "cli_main", "cli")
    for attr in ("run_verification", "run_cell", "write_reports"):
        tracer.wrap(harness, attr, "harness")
    for module in (harness, bounds):
        tracer.wrap(module, "fit_lasso", "lasso", _lasso_attrs)
    tracer.wrap(bounds, "estimate_compatibility", "bounds", _compat_attrs)
    for attr in VERIFY_FUNCTIONS:
        tracer.wrap(bounds, attr, "bounds")
    tracer.count(norms, "prox_omega", "norms")


# name -> unit of every per-layer metric; BENCHMARK.json lists the same
PER_LAYER = {
    "trex.solve_ms_p50": "ms", "trex.solve_ms_p90": "ms", "trex.self_s": "s",
    "trex.iterations_sum": "count", "trex.iterations_max": "count",
    "trex.unconverged_rows": "count", "trex.infeasible_rows": "count",
    "trex.worse_than_reference": "count",
    "norms.prox_calls": "count", "norms.prox_self_s": "s",
    "bounds.compat_calls": "count", "bounds.compat_ms_p50": "ms",
    "bounds.compat_self_s": "s", "bounds.compat_samples_sum": "count",
    "bounds.verify_self_s": "s", "bounds.verdict.holds": "count",
    "bounds.verdict.not_applicable": "count", "bounds.verdict.violated": "count",
    "lasso.calls": "count", "lasso.sweeps_sum": "count", "lasso.self_s": "s",
    "lasso.unconverged": "count",
    "harness.cells": "count", "harness.cell_ms_p50": "ms",
    "harness.pool_efficiency": "ratio", "harness.write_reports_ms": "ms",
    "harness.report_bytes": "bytes",
    "datagen.generate_ms_p50": "ms", "datagen.self_s": "s",
    "cli.self_ms_p50": "ms",
    "trace.overhead_pct": "%", "trace.remainder_s": "s",
}


def _covered(span: Span, children) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    total, reach = 0.0, span.start
    for start, end in sorted((max(c.start, span.start), min(c.end, span.end))
                             for c in children):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus child coverage minus counted leaf time."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    return {s.sid: s.end - s.start - _covered(s, children[s.sid])
            - sum(t for _, t in s.leaf.values()) for s in spans}


def layer_self_times(spans) -> dict:
    own = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.sid]
        for layer, (_, seconds) in s.leaf.items():
            out[layer] += seconds
    return dict(out)


def accounting(spans) -> tuple:
    """(operation wall, parent time covered by pool-worker spans, pool-worker time).

    The layer self times add up to the first minus the second plus the third.
    """
    by_sid = {s.sid: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    owner = roots[0].pid if roots else None
    workers = defaultdict(list)
    for s in spans:
        if s.pid != owner and s.parent in by_sid and by_sid[s.parent].pid == owner:
            workers[s.parent].append(s)
    return (sum(s.end - s.start for s in roots),
            sum(_covered(by_sid[sid], kids) for sid, kids in workers.items()),
            sum(s.end - s.start for kids in workers.values() for s in kids))


def _p50_ms(values) -> float:
    return 1e3 * median(values) if values else 0.0


def p90_ms(values) -> float:
    """Nearest-rank 90th percentile of seconds, in ms."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[-(-9 * len(ordered) // 10) - 1]


def layer_metrics(spans, counts: dict, jobs: int) -> dict:
    """The per-layer metrics except the trace.* pair, which need the untraced pass."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def named(*names):
        return [s for name in names for s in by_name[name]]

    def dur(group):
        return [s.end - s.start for s in group]

    def attr_sum(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    trex = named("solve_trex", "solve_trex_constrained")
    lasso = named("fit_lasso")
    compat = named("estimate_compatibility")
    cells, runs = named("run_cell"), named("run_verification")
    leaf = [s.leaf["norms"] for s in spans if "norms" in s.leaf]
    layers = layer_self_times(spans)
    return {
        "trex.solve_ms_p50": _p50_ms(dur(trex)),
        "trex.solve_ms_p90": p90_ms(dur(trex)),
        "trex.self_s": layers.get("trex", 0.0),
        "trex.iterations_sum": attr_sum(trex, "iterations"),
        "trex.iterations_max": max((s.attrs["iterations"] for s in trex), default=0),
        "trex.unconverged_rows": attr_sum(trex, "unconverged"),
        "trex.infeasible_rows": attr_sum(trex, "infeasible"),
        "trex.worse_than_reference": counts.get("trex.worse_than_reference", 0),
        "norms.prox_calls": sum(n for n, _ in leaf),
        "norms.prox_self_s": sum(t for _, t in leaf),
        "bounds.compat_calls": len(compat),
        "bounds.compat_ms_p50": _p50_ms(dur(compat)),
        "bounds.compat_self_s": sum(own[s.sid] for s in compat),
        "bounds.compat_samples_sum": attr_sum(compat, "samples"),
        "bounds.verify_self_s": sum(own[s.sid] for s in named(*VERIFY_FUNCTIONS)),
        "bounds.verdict.holds": counts.get("bounds.verdict.holds", 0),
        "bounds.verdict.not_applicable": counts.get("bounds.verdict.not_applicable", 0),
        "bounds.verdict.violated": counts.get("bounds.verdict.violated", 0),
        "lasso.calls": len(lasso),
        "lasso.sweeps_sum": attr_sum(lasso, "sweeps"),
        "lasso.self_s": layers.get("lasso", 0.0),
        "lasso.unconverged": attr_sum(lasso, "unconverged"),
        "harness.cells": len(cells),
        "harness.cell_ms_p50": _p50_ms(dur(cells)),
        "harness.pool_efficiency": (sum(dur(cells)) / (jobs * sum(dur(runs)))
                                    if runs else 0.0),
        "harness.write_reports_ms": _p50_ms(dur(named("write_reports"))),
        "harness.report_bytes": counts.get("harness.report_bytes", 0),
        "datagen.generate_ms_p50": _p50_ms(dur(named("generate"))),
        "datagen.self_s": layers.get("datagen", 0.0),
        "cli.self_ms_p50": _p50_ms([own[s.sid] for s in named("cli_main")]),
    }
