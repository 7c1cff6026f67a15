"""Spans around the calls into each ottospin module, recorded from outside.

:func:`install` wraps the public callables named in :data:`TARGETS` at every
binding site: a module-level name in any ``ottospin`` module that refers to
the original object is replaced, so ``from .propagator import propagate`` in
``otto``, ``analysis``, ``cli`` and ``verify`` sees the wrapper too, and the
``_kernels.<name>`` lookups in ``propagator`` do as well.  Dataclass
validation is timed by wrapping ``__post_init__`` on the class.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``op`` the id shared by every span of
one benchmark operation.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from ottospin.errors import AccuracyError

# (span name, module, attribute path)
TARGETS = (
    ("_kernels.stage_coefficients", "ottospin._kernels", "stage_coefficients"),
    ("_kernels.rk4_propagate", "ottospin._kernels", "rk4_propagate"),
    ("propagator.propagate", "ottospin.propagator", "propagate"),
    ("propagator.transition_probability", "ottospin.propagator", "transition_probability"),
    ("propagator.Propagator", "ottospin.propagator", "Propagator.__post_init__"),
    ("qspin.DensityMatrix", "ottospin.qspin", "DensityMatrix.__post_init__"),
    ("qspin.gibbs_state", "ottospin.qspin", "gibbs_state"),
    ("qspin.eigenbasis", "ottospin.qspin", "eigenbasis"),
    ("qspin.ReservoirSpec", "ottospin.qspin", "ReservoirSpec.__post_init__"),
    ("otto.trace_cycle", "ottospin.otto", "trace_cycle"),
    ("otto.evolve_cycle_states", "ottospin.otto", "evolve_cycle_states"),
    ("otto.closed_form_cycle", "ottospin.otto", "closed_form_cycle"),
    ("analysis.sweep_xi_vs_tau", "ottospin.analysis", "sweep_xi_vs_tau"),
    ("analysis.region_map", "ottospin.analysis", "region_map"),
    ("analysis.sweep_efficiency_vs_population", "ottospin.analysis",
     "sweep_efficiency_vs_population"),
    ("analysis.sweep_efficiency_vs_ratio", "ottospin.analysis", "sweep_efficiency_vs_ratio"),
    ("analysis.SweepTable.to_csv", "ottospin.analysis", "SweepTable.to_csv"),
    ("analysis.SweepTable.to_json", "ottospin.analysis", "SweepTable.to_json"),
    ("cli.main", "ottospin.cli", "main"),
)

OP = "op"


class Counters:
    """Work counts taken at the same boundaries as the spans."""

    # Span names whose calls update a counter.
    OBSERVED = frozenset({"_kernels.stage_coefficients", "_kernels.rk4_propagate",
                          "propagator.propagate", "analysis.SweepTable.to_csv",
                          "analysis.SweepTable.to_json"})

    def __init__(self):
        self.steps = 0
        self.bytes_computed = 0
        self.protocols = set()
        self.max_drift = 0.0
        self.accuracy_errors = 0
        self.output_bytes = 0
        self.errors = []  # counter updates that failed; the calls went on

    def observe(self, name, arguments, result, error):
        """Count one call; ``arguments`` maps every parameter name to its value."""
        if name == "_kernels.stage_coefficients":
            # e01 and e10: 2*steps + 1 complex128 samples each.
            self.bytes_computed += 2 * (2 * arguments["steps"] + 1) * 16
        elif name == "_kernels.rk4_propagate":
            self.steps += arguments["steps"]
        elif name == "propagator.propagate":
            self.protocols.add((arguments["proto"], arguments["direction"]))
            if isinstance(error, AccuracyError):
                self.accuracy_errors += 1
            if result is not None:
                self.max_drift = max(self.max_drift, float(result.drift))
        elif name in ("analysis.SweepTable.to_csv", "analysis.SweepTable.to_json"):
            if result is not None:
                self.output_bytes += len(result.encode())


class Tracer:
    """Spans and counters of one run, filled by the wrappers it hands out."""

    def __init__(self):
        self.spans = []
        self.counters = Counters()
        self._stack = []
        self._op = -1

    def wrap(self, name, func):
        spans, stack, counters = self.spans, self._stack, self.counters
        signature = inspect.signature(func) if name in Counters.OBSERVED else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
                if signature is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        counters.observe(name, bound.arguments, result, error)
                    except Exception as exc:  # never replaces the call's outcome
                        counters.errors.append(f"{name}: {type(exc).__name__}: {exc}")

        return wrapper

    def op(self, op_id, func, *args):
        """Run ``func(*args)`` as operation ``op_id`` inside a root span."""
        self._op = op_id
        try:
            return self.wrap(OP, func)(*args)
        finally:
            self._op = -1

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, start, end, parent, op]) + "\n")


def install(tracer):
    """Wrap every target at every binding site; returns an ``uninstall`` callable."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "ottospin" or key.startswith("ottospin."))]
    undo = []
    for name, module_name, path in TARGETS:
        owner = sys.modules[module_name]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original)
        if classes:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Per span: duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(index, ())]
        out.append(end - start - covered([(s, e) for s, e in clipped if e > s]))
    return out


def aggregate(spans):
    """{name: {"calls", "busy_ns", "self_ns"}}, total op wall and the part of it
    that layer spans cover."""
    totals = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0})
    op_wall = op_covered = 0
    for (name, start, end, parent, op), own in zip(spans, self_times(spans)):
        entry = totals[name]
        entry["calls"] += 1
        entry["busy_ns"] += end - start
        entry["self_ns"] += own
        if name == OP:
            op_wall += end - start
            op_covered += end - start - own
    return totals, op_wall, op_covered


def layer_metrics(spans, counters, overhead_ratio):
    """Per-layer metrics ``{name: (value, unit)}``; sums are reported per traced op."""
    totals, op_wall, op_covered = aggregate(spans)
    ops = max(totals[OP]["calls"], 1)

    def calls(name):
        return totals[name]["calls"] / ops

    def busy_ms(name):
        return totals[name]["busy_ns"] / 1e6 / ops

    def self_ms(name):
        return totals[name]["self_ns"] / 1e6 / ops

    kernel = "_kernels.rk4_propagate"
    propagations = totals["propagator.propagate"]["calls"]
    m = {
        "kernels.stage_coefficients.calls": (calls("_kernels.stage_coefficients"), "count"),
        "kernels.stage_coefficients.busy_ms": (busy_ms("_kernels.stage_coefficients"), "ms"),
        "kernels.stage_coefficients.bytes_computed": (counters.bytes_computed / ops, "B"),
        "kernels.rk4_propagate.calls": (calls(kernel), "count"),
        "kernels.rk4_propagate.steps": (counters.steps / ops, "count"),
        "kernels.rk4_propagate.busy_ms": (busy_ms(kernel), "ms"),
        "kernels.rk4_propagate.ns_per_step": (
            totals[kernel]["busy_ns"] / counters.steps if counters.steps else 0.0, "ns"),
        "propagator.propagate.calls": (calls("propagator.propagate"), "count"),
        "propagator.propagate.self_ms": (self_ms("propagator.propagate"), "ms"),
        "propagator.propagate.distinct_ratio": (
            len(counters.protocols) / propagations if propagations else 0.0, "1"),
        "propagator.propagate.max_drift": (counters.max_drift, "1"),
        "propagator.propagate.accuracy_errors": (counters.accuracy_errors / ops, "count"),
        "propagator.transition_probability.calls": (
            calls("propagator.transition_probability"), "count"),
        "propagator.transition_probability.self_ms": (
            self_ms("propagator.transition_probability"), "ms"),
        "propagator.Propagator.validations": (calls("propagator.Propagator"), "count"),
        "propagator.Propagator.busy_ms": (busy_ms("propagator.Propagator"), "ms"),
        "qspin.DensityMatrix.validations": (calls("qspin.DensityMatrix"), "count"),
        "qspin.DensityMatrix.busy_ms": (busy_ms("qspin.DensityMatrix"), "ms"),
        "qspin.gibbs_state.calls": (calls("qspin.gibbs_state"), "count"),
        "qspin.gibbs_state.self_ms": (self_ms("qspin.gibbs_state"), "ms"),
        "qspin.eigenbasis.calls": (calls("qspin.eigenbasis"), "count"),
        "qspin.eigenbasis.busy_ms": (busy_ms("qspin.eigenbasis"), "ms"),
        "qspin.ReservoirSpec.constructions": (calls("qspin.ReservoirSpec"), "count"),
        "qspin.ReservoirSpec.busy_ms": (busy_ms("qspin.ReservoirSpec"), "ms"),
        "otto.trace_cycle.calls": (calls("otto.trace_cycle"), "count"),
        "otto.trace_cycle.self_ms": (self_ms("otto.trace_cycle"), "ms"),
        "otto.evolve_cycle_states.self_ms": (self_ms("otto.evolve_cycle_states"), "ms"),
        "otto.closed_form_cycle.calls": (calls("otto.closed_form_cycle"), "count"),
        "otto.closed_form_cycle.busy_ms": (busy_ms("otto.closed_form_cycle"), "ms"),
        "analysis.sweep_xi_vs_tau.self_ms": (self_ms("analysis.sweep_xi_vs_tau"), "ms"),
        "analysis.region_map.self_ms": (self_ms("analysis.region_map"), "ms"),
        "analysis.sweep_efficiency_vs_population.self_ms": (
            self_ms("analysis.sweep_efficiency_vs_population"), "ms"),
        "analysis.sweep_efficiency_vs_ratio.self_ms": (
            self_ms("analysis.sweep_efficiency_vs_ratio"), "ms"),
        "analysis.SweepTable.to_csv.busy_ms": (busy_ms("analysis.SweepTable.to_csv"), "ms"),
        "analysis.SweepTable.to_json.busy_ms": (busy_ms("analysis.SweepTable.to_json"), "ms"),
        "analysis.output_bytes": (counters.output_bytes / ops, "B"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "trace.ops": (float(totals[OP]["calls"]), "count"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
        "trace.coverage": (op_covered / op_wall if op_wall else 0.0, "1"),
    }
    return m
