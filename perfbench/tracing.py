"""Spans around the calls into each layer, installed from outside ``src/``.

Each public function is wrapped at the name its caller looks up:

* the ops call ``ska.<name>`` (the package namespace),
  ``<Source>.validate`` and ``MmiResult.to_json_dict``;
* ``ska.analysis`` looks up ``mmi`` and ``t_max`` in its own globals;
* ``ska.mmi`` (reached through ``sys.modules``, because the package
  attribute ``ska.mmi`` is the function) looks up ``scaled_entropies`` and
  ``kernel.minimize_over_partitions``;
* ``ska.structure`` looks up ``minimize_mnp``.

A span is ``(name, start, end, parent index, op id)``; spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import ska

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name: str, fn, on_result=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def run_op(self, op_id: int, name: str, fn, *args):
        """Root span of one op (the benchmark's own glue is its self time)."""
        self.op = op_id
        try:
            return self.span(name, fn)(*args)
        finally:
            self.op = -1

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mmi_mod = sys.modules["ska.mmi"]
        analysis = sys.modules["ska.analysis"]
        structure = sys.modules["ska.structure"]
        kernel = sys.modules["ska.kernel"]
        source_model = sys.modules["ska.source_model"]

        def shared(name, fn, owners, on_result=None):
            wrapper = self.span(name, fn, on_result)
            for owner, attr in owners:
                self._patch(owner, attr, wrapper)

        shared("kernel.scan", kernel.minimize_over_partitions, [(kernel, "minimize_over_partitions")], _on_scan)
        shared("mmi.scaled_entropies", mmi_mod.scaled_entropies, [(mmi_mod, "scaled_entropies")])
        shared("mmi.mmi", mmi_mod.mmi, [(ska, "mmi"), (analysis, "mmi")], _on_mmi)
        shared("structure.t_max", structure.t_max, [(ska, "t_max"), (analysis, "t_max")])
        shared("structure.is_unique_optimal", structure.is_unique_optimal, [(ska, "is_unique_optimal")])
        shared("submodular.minimize_mnp", structure.minimize_mnp, [(structure, "minimize_mnp")], _on_mnp)
        for name in (
            "critical_edges",
            "greedy_critical_edge",
            "growth_curve",
            "loss_rate",
            "is_excess",
            "perturbation_verify",
        ):
            # The ops call the package attribute; analysis-internal calls
            # stay inside the analysis layer and are not wrapped.
            shared(f"analysis.{name}", getattr(analysis, name), [(ska, name)])
        shared("mmi.to_json_dict", mmi_mod.MmiResult.to_json_dict, [(mmi_mod.MmiResult, "to_json_dict")])
        for cls in (source_model.EntropyTable, source_model.HypergraphicalSource):
            shared("source_model.validate", cls.__dict__["validate"], [(cls, "validate")])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _on_scan(tracer: Tracer, args, result) -> None:
    tracer.count("kernel.partitions_scanned", BELL[args[0]] - 1)


def _on_mmi(tracer: Tracer, args, result) -> None:
    tracer.count("mmi.optimal_partitions", len(result.optimal_partitions))
    if tracer.parent_name() == "analysis.perturbation_verify":
        tracer.count("analysis.verify_mmi_calls")


def _on_mnp(tracer: Tracer, args, result) -> None:
    tracer.count("submodular.mnp_iterations", result.iterations)
    tracer.count("submodular.mnp_certified", int(result.certified))
    tracer.count("submodular.mnp_fallbacks", int(result.fallback))
    tracer.count("submodular.mnp_diagnostics", int(result.diagnostic is not None))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarise(tracer: Tracer, op_family: list[str]) -> dict:
    """Calls, total and self time per span name; self time per layer for
    each source family; and the counters."""
    by_name: dict[str, list] = {}
    by_family: dict[str, dict[str, float]] = {}
    for (name, start, end, _, op), own in zip(tracer.spans, self_times(tracer.spans)):
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own
        layers = by_family.setdefault(op_family[op], {})
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own
    return {"spans": len(tracer.spans), "by_name": by_name, "counters": dict(tracer.counters), "self_by_family": by_family}
