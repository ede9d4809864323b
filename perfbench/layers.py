"""The per-layer metric set and the in-process layer wrappers.

Every workload prints every name in :data:`LAYER_METRICS` (the
``per_layer`` list of ``BENCHMARK.json``). A layer a workload never
enters reads 0; README.md lists those cells and why.
"""

from __future__ import annotations

from typing import Any, Iterable

from .common import LayerTracer

#: Pipeline stages whose ``stage:<name>`` spans the serve path emits
#: for /check, /estimate and /compile.
STAGES = ("resolve", "parse", "check", "kernel", "estimate", "compile",
          "check_payload", "estimate_payload", "compile_payload")

#: (name, unit) of every per-layer metric, in report order. Times and
#: counts are means per workload operation (a dse round, an edit, a
#: request); ratios and the overhead are over the whole traced pass.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("hls.estimate_ms", "ms"),
    ("hls.estimate_calls", "count"),
    ("hls.bounds_ms", "ms"),
    ("types.check_ms", "ms"),
    ("types.fn_checked", "count"),
    ("types.fn_reused", "count"),
    ("types.fn_reuse_ratio", "ratio"),
    ("ir.identities_ms", "ms"),
    ("ir.instantiate_ms", "ms"),
    ("ir.resolve_ms", "ms"),
    ("frontend.apply_edits_ms", "ms"),
    ("frontend.segments_reparsed", "count"),
    ("backend.emit_ms", "ms"),
    ("dse.checker_runs", "count"),
    ("dse.memo_hit_ratio", "ratio"),
    ("dse.pareto_ms", "ms"),
    ("dse.points_evaluated_ratio", "ratio"),
    ("session.edit_self_ms", "ms"),
    *((f"pipeline.stage_ms.{stage}", "ms") for stage in STAGES),
    ("artifacts.hit_ratio.memory", "ratio"),
    ("artifacts.coalesced", "count"),
    ("server.transport_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed_share", "ratio"),
    ("tracing_overhead_pct", "%"),
)

#: In-process layer → the public functions whose self time it is:
#: (layer, module, function) and (layer, module, class, method).
_FUNCTIONS = (
    ("hls.estimate", "repro.hls.estimator", "estimate"),
    ("hls.bounds", "repro.hls.estimator", "estimate_bounds"),
    ("types.check", "repro.types.checker", "check_program"),
    ("types.check", "repro.types.checker", "check_program_sharded"),
    ("ir.identities", "repro.ir.digest", "program_function_identities"),
    ("ir.resolve", "repro.ir.resolved", "resolve_source"),
    ("backend.emit", "repro.backend.hls_cpp", "compile_program_units"),
    ("dse.pareto", "repro.dse.pareto", "pareto_indices"),
)
_METHODS = (
    ("ir.instantiate", "repro.ir.template", "TemplateFamily", "instantiate"),
    ("frontend.apply_edits", "repro.frontend.incremental",
     "IncrementalDocument", "apply_edits"),
    ("session.edit", "repro.service.session", "SessionManager", "edit"),
)

#: In-process layer → its ``*_ms`` metric name.
_LAYER_METRIC = {
    "hls.estimate": "hls.estimate_ms",
    "hls.bounds": "hls.bounds_ms",
    "types.check": "types.check_ms",
    "ir.identities": "ir.identities_ms",
    "ir.instantiate": "ir.instantiate_ms",
    "ir.resolve": "ir.resolve_ms",
    "frontend.apply_edits": "frontend.apply_edits_ms",
    "backend.emit": "backend.emit_ms",
    "dse.pareto": "dse.pareto_ms",
    "session.edit": "session.edit_self_ms",
}


def install(tracer: LayerTracer) -> None:
    """Wrap every in-process layer function (modules must be loaded)."""
    import importlib

    for layer, module_name, attr in _FUNCTIONS:
        tracer.function(layer, importlib.import_module(module_name), attr)
    for layer, module_name, cls_name, attr in _METHODS:
        module = importlib.import_module(module_name)
        tracer.method(layer, getattr(module, cls_name), attr)


def zeros() -> dict[str, float]:
    return {name: 0.0 for name, _ in LAYER_METRICS}


def put(outcome: Any, values: dict[str, float]) -> None:
    """Record every per-layer value on ``outcome`` with its unit."""
    units = dict(LAYER_METRICS)
    for name, value in values.items():
        outcome.put(name, value, units[name])


def reuse(values: dict[str, float], checked: int, reused: int,
          ops: int) -> None:
    """The checker's per-function verdict reuse (``types.fn_*``)."""
    values["types.fn_checked"] = checked / ops
    values["types.fn_reused"] = reused / ops
    values["types.fn_reuse_ratio"] = (reused / (checked + reused)
                                      if checked + reused else 0.0)


def tracer_metrics(tracer: LayerTracer, ops: int) -> dict[str, float]:
    """Per-operation self time of every wrapped layer."""
    values = {}
    for layer, metric in _LAYER_METRIC.items():
        values[metric] = tracer.self_s.get(layer, 0.0) * 1000.0 / ops
    values["hls.estimate_calls"] = tracer.calls.get("hls.estimate", 0) / ops
    return values


def span_self_times(spans: Iterable[dict[str, Any]]) -> dict[str, float]:
    """Self seconds per span name: duration minus direct children."""
    spans = list(spans)
    child_s: dict[str, float] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent:
            child_s[parent] = (child_s.get(parent, 0.0)
                               + float(record["duration_s"]))
    totals: dict[str, float] = {}
    for record in spans:
        own = float(record["duration_s"]) - child_s.get(record["span_id"],
                                                         0.0)
        totals[record["name"]] = totals.get(record["name"], 0.0) + own
    return totals


def stage_metrics(self_s: dict[str, float], ops: int) -> dict[str, float]:
    """``pipeline.stage_ms.<stage>`` per operation from span self times."""
    return {f"pipeline.stage_ms.{stage}":
            self_s.get(f"stage:{stage}", 0.0) * 1000.0 / ops
            for stage in STAGES}


def finish(values: dict[str, float], *, op_s: float, attributed_s: float,
           untraced_op_s: float) -> dict[str, float]:
    """Add the unattributed remainder and the tracing overhead.

    ``op_s`` is the traced wall time per operation, ``attributed_s`` the
    part of it the layers explain, and ``untraced_op_s`` the same
    operation's time with tracing off.
    """
    remainder = max(0.0, op_s - attributed_s)
    values["unattributed_ms"] = remainder * 1000.0
    values["unattributed_share"] = remainder / op_s
    values["tracing_overhead_pct"] = (op_s / untraced_op_s - 1.0) * 100.0
    return values
