"""Spans around the calls into each layer's public functions.

The wrappers are installed from outside the program: each one replaces a
function or method wherever a loaded ``cavitree`` module holds it, so an
engine that imported a core step by name calls the wrapper too.  A span
records its name, its parent, wall and CPU clocks at both ends, the minor
page faults in between and the counts its layer defines.  Spans stay in
memory until the run writes them out.  A layer's self time is its spans'
CPU time minus that of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import resource
import sys
import time
from collections import defaultdict

MB = float(1 << 20)


def _terms(index):
    return lambda args, result: {"terms": result[index]}


def _table_and_terms(index):
    return lambda args, result: {"terms": result[index],
                                 "table_mb": result[0].nbytes / MB}


def _node_rounds(args, result):
    return {"node_rounds": args["samples"] * args["graph"].n
            * (args["rounds"] + 1)}


def _signal_vectors(args, result):
    return {"signal_vectors": args["model"].n_signals ** args["graph"].n}


# (module, attribute path, layer, counts from the bound arguments and result)
TARGETS = [
    ("cavitree.cli", "main", "cli.table", None),
    ("cavitree.cavity.core", "cavity_step_general", "cavity.core.cavity_step",
     _table_and_terms(2)),
    ("cavitree.cavity.core", "decision_step_general",
     "cavity.core.decision_step", _table_and_terms(1)),
    ("cavitree.cavity.core", "error_probability_general",
     "cavity.core.error_sum", _terms(2)),
    ("cavitree.cavity.homogeneous", "RegularTreeEngine.advance",
     "cavity.homogeneous", None),
    ("cavitree.cavity.homogeneous", "RegularTreeEngine.error_probability",
     "cavity.homogeneous", None),
    ("cavitree.cavity.homogeneous", "ConfigModelEngine.advance",
     "cavity.homogeneous", None),
    ("cavitree.cavity.homogeneous", "ConfigModelEngine.error_probability",
     "cavity.homogeneous", None),
    ("cavitree.cavity.finite", "FiniteTreeEngine.advance",
     "cavity.finite.advance", None),
    ("cavitree.cavity.finite", "FiniteTreeEngine.error_probability",
     "cavity.finite.error_probability", None),
    ("cavitree.cavity.active", "ActiveEdgeEngine.__init__",
     "cavity.active.init", None),
    ("cavitree.cavity.active", "ActiveEdgeEngine.advance",
     "cavity.active.advance", None),
    ("cavitree.cavity.active", "ActiveEdgeEngine.error_probability",
     "cavity.active.error_probability", None),
    ("cavitree.cavity.hubs", "posterior_with_hubs", "cavity.hubs.posterior",
     None),
    ("cavitree.sim", "simulate", "sim.simulate", _node_rounds),
    ("cavitree.sim", "interior_nodes", "sim.interior_nodes", None),
    ("cavitree.trees", "sample_configuration_graph",
     "trees.sample_configuration_graph", None),
    ("cavitree.trees", "ball", "trees.ball", None),
    ("cavitree.oracle", "unroll", "oracle.unroll", _signal_vectors),
]

# Per-layer metrics: (name, unit, better, layer, statistic).
METRICS = [
    ("cli.table.self_cpu_s", "s", "lower", "cli.table", "self_cpu_s"),
]
for _layer, _stats in (
        ("cavity.core.decision_step", ("calls", "self_cpu_s", "terms",
                                       "terms_per_s", "table_mb",
                                       "page_faults")),
        ("cavity.core.error_sum", ("calls", "self_cpu_s", "terms",
                                   "terms_per_s", "page_faults")),
        ("cavity.core.cavity_step", ("calls", "self_cpu_s", "terms",
                                     "terms_per_s", "table_mb")),
        ("cavity.finite.advance", ("calls", "self_cpu_s")),
        ("cavity.finite.error_probability", ("self_cpu_s",)),
        ("cavity.homogeneous", ("self_cpu_s",)),
        ("cavity.active.init", ("self_cpu_s",)),
        ("cavity.active.advance", ("self_cpu_s",)),
        ("cavity.active.error_probability", ("self_cpu_s",)),
        ("cavity.hubs.posterior", ("calls", "self_cpu_s")),
        ("sim.simulate", ("calls", "self_cpu_s", "node_rounds",
                          "node_rounds_per_s", "page_faults")),
        ("sim.interior_nodes", ("self_cpu_s",)),
        ("trees.sample_configuration_graph", ("self_cpu_s",)),
        ("trees.ball", ("calls", "self_cpu_s")),
        ("oracle.unroll", ("calls", "self_cpu_s", "signal_vectors"))):
    for _stat in _stats:
        _unit = {"self_cpu_s": "s", "table_mb": "MB",
                 "terms_per_s": "1/s", "node_rounds_per_s": "1/s"}.get(_stat,
                                                                      "count")
        _better = "higher" if _stat.endswith("_per_s") else "lower"
        METRICS.append((f"{_layer}.{_stat}", _unit, _better, _layer, _stat))
METRICS += [
    ("trace.overhead_cpu_s", "s", "lower", "trace", "overhead_cpu_s"),
    ("trace.unattributed_cpu_s", "s", "lower", "trace", "unattributed_cpu_s"),
]


class Tracer:
    """Collects spans; ``install`` and ``remove`` patch the layer functions."""

    def __init__(self):
        # (layer, parent index, wall0, wall1, cpu0, cpu1, minflt, counts)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.absent: list[str] = []

    def _wrap(self, fn, layer, counter):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1, wall1 = time.process_time(), time.perf_counter()
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
                stack.pop()
                spans[index] = (layer, parent, wall0, wall1, cpu0, cpu1, flt,
                                None)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[index] = spans[index][:7] + (
                    counter(bound.arguments, result),)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        loaded = [m for name, m in sys.modules.items()
                  if name.split(".")[0] == "cavitree" and m is not None]
        for module_name, path, layer, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, layer, counter)
            if outer:  # a method: patch the class
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in loaded:
                if module.__dict__.get(attr) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_stats(self) -> dict[str, dict[str, float]]:
        child_cpu = defaultdict(float)
        for layer, parent, _, _, cpu0, cpu1, _, _ in self.spans:
            if parent >= 0:
                child_cpu[parent] += cpu1 - cpu0
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for index, (layer, _, _, _, cpu0, cpu1, flt, counts) in enumerate(
                self.spans):
            s = stats[layer]
            s["calls"] += 1
            s["self_cpu_s"] += cpu1 - cpu0 - child_cpu[index]
            s["page_faults"] += flt
            for key, value in (counts or {}).items():
                if key == "table_mb":
                    s[key] = max(s[key], value)
                else:
                    s[key] += value
        for s in stats.values():
            busy = s["self_cpu_s"]
            for key in ("terms", "node_rounds"):
                if key in s:
                    s[key + "_per_s"] = s[key] / busy if busy > 0 else 0.0
        return stats

    def self_cpu_total(self) -> float:
        return sum(s["self_cpu_s"] for s in self.layer_stats().values())

    def to_json(self) -> dict:
        fields = ("layer", "parent", "wall0", "wall1", "cpu0", "cpu1",
                  "minflt", "counts")
        return {"absent": self.absent,
                "spans": [dict(zip(fields, span)) for span in self.spans]}


def per_layer_metrics(tracer: Tracer, traced_cpu: float,
                      untraced_cpu: float) -> dict[str, dict]:
    stats = tracer.layer_stats()
    extra = {"overhead_cpu_s": traced_cpu - untraced_cpu,
             "unattributed_cpu_s": traced_cpu - tracer.self_cpu_total()}
    out = {}
    for name, unit, _, layer, stat in METRICS:
        if layer == "trace":
            value = extra[stat]
        else:
            value = stats.get(layer, {}).get(stat, 0.0)
        out[name] = {"value": value, "unit": unit}
    return out
