"""Per-layer tracing for the benchmark's traced runs.

The benchmark records spans around the calls into each layer's public
functions from its own files: :func:`install` replaces every reference
to those functions inside the loaded ``repro`` modules with a wrapper
that opens a span on the program's own :class:`Tracer`, so the spans
the program already records (``pipeline.pass`` per pass execution)
nest under them in one tree.  Spans stay in memory;
:func:`layer_metrics` folds them into per-layer self times and counts
once the run ends.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Spans that belong to no layer (the program's own
``campaign``/``compile.snapshot`` spans, or a printer call outside a
reduction) hand their self time to the nearest enclosing layer span.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.backend import asm
from repro.compilers import IncrementalEngine, driver
from repro.core import bisect, ground_truth, markers, primary, resilience, shapes
from repro.frontend import lower, typecheck
from repro.generator import generator
from repro.interp import StepLimitExceeded
from repro.ir import printer as ir_printer
from repro.ir.function import Module
from repro.lang import parser, printer
from repro.observability import PASS_SPAN, Tracer
from repro.observability.events import EventBus
from repro.observability.ledger import RunLedger
from repro.passes.registry import PASS_REGISTRY
from repro.store import ArtifactStore

#: registered passes that run in the family pipelines (``chaos`` is a
#: fault-injection no-op that no pipeline contains)
PASSES = tuple(name for name in PASS_REGISTRY if name != "chaos")

#: (owner, attribute, span name) of every wrapped function.  Module
#: functions are replaced wherever a ``repro`` module imported them;
#: methods are replaced on their class.
FUNCTIONS: tuple[tuple[Any, str, str], ...] = (
    (generator, "generate_program", "generator.generate"),
    (markers, "instrument_program", "markers.instrument"),
    (typecheck, "check_program", "frontend.typecheck"),
    (lower, "lower_program", "frontend.lower"),
    (ground_truth, "compute_ground_truth", "interp.truth"),
    (IncrementalEngine, "compile", "compilers.compile"),
    (driver, "compile_minic", "compilers.compile"),
    (ir_printer, "fingerprint_module", "ir.fingerprint"),
    (Module, "clone", "ir.clone"),
    (asm, "emit_module", "backend.emit"),
    (asm, "alive_markers", "backend.scan"),
    (primary, "build_marker_graph", "primary.graph"),
    (primary, "primary_missed_markers", "primary.search"),
    (shapes, "program_shape", "shapes.classify"),
    (ArtifactStore, "get_compile", "store.read"),
    (ArtifactStore, "get_truth", "store.read"),
    (ArtifactStore, "load_seed_reports", "store.read"),
    (ArtifactStore, "oracle_entries", "store.read"),
    (ArtifactStore, "commit_seed", "store.write"),
    (ArtifactStore, "record_oracle_entries", "store.write"),
    (resilience.CheckpointJournal, "record", "journal.append"),
    (EventBus, "emit", "events.emit"),
    (RunLedger, "record_run", "ledger.record"),
    (printer, "print_program", "lang.print"),
    (parser, "parse_program", "lang.parse"),
    (bisect, "bisect_marker_regression", "bisect.run"),
)

#: the span a workload opens around one ``reduce_finding`` call, and
#: the span of the wrapped ``bisect_marker_regression``
REDUCE_OP = "op.reduce"
BISECT_OP = "bisect.run"

#: span names that are a layer of their own; ``lang.*`` spans count
#: as ``reduction.*`` under a reduction and as their caller elsewhere
_LAYER_SPANS = {name for _, _, name in FUNCTIONS} - {"lang.print", "lang.parse"}

Hook = Callable[[str, tuple, dict, Any], None]


@dataclass
class Installed:
    """The wrappers in place, and how to take them out again."""

    tracer: Tracer
    hooks: list[Hook] = field(default_factory=list)
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def install(tracer: Tracer) -> Installed:
    """Wrap every function of :data:`FUNCTIONS` so each call opens a
    span on ``tracer``.  Hooks added to the returned handle see every
    wrapped call's name, arguments and return value."""
    installed = Installed(tracer)
    for owner, attr, span_name in FUNCTIONS:
        original = getattr(owner, attr)
        wrapper = _wrapper(installed, original, span_name)
        if isinstance(owner, type):
            installed._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    installed._undo.append((module, name, original))
                    setattr(module, name, wrapper)
    return installed


def _wrapper(installed: Installed, original, span_name: str):
    tracer = installed.tracer

    def traced(*args, **kwargs):
        with tracer.span(span_name) as span:
            try:
                result = original(*args, **kwargs)
            except StepLimitExceeded:
                span.set("step_limited", True)
                raise
            if span_name == "interp.truth":
                span.set("steps", result.execution.steps)
            elif span_name == "compilers.compile" and isinstance(
                args[0], IncrementalEngine
            ):
                span.set("engine", True)
        for hook in installed.hooks:
            hook(span_name, args, kwargs, result)
        return result

    traced.__wrapped__ = original
    return traced


def layer_metrics(spans, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer self times and counts from one traced run's spans.

    ``counters`` carries the values the spans cannot: the program's
    own incremental-engine counters, store sizes and reduction totals.
    """
    by_id = {span.span_id: span for span in spans}
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent_id in by_id:
            covered[span.parent_id] = (
                covered.get(span.parent_id, 0.0) + span.duration
            )
    self_s: dict[str, float] = {}
    counts: dict[str, float] = {}
    inclusive: dict[str, float] = {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    for span in spans:
        ops = _enclosing_ops(span, by_id)
        layer = _layer_of(span, ops)
        if layer is None:
            layer = _nearest_layer(span, by_id)
        own = span.duration - covered.get(span.span_id, 0.0)
        if layer is not None:
            add(self_s, layer, own)
        name = span.name
        add(counts, name, 1)
        if name == "interp.truth":
            add(counts, "interp.steps", span.attrs.get("steps", 0))
            if span.attrs.get("step_limited"):
                add(counts, "interp.step_limited", 1)
                add(inclusive, "interp.step_limited", span.duration)
        elif name == "compilers.compile" and not span.attrs.get("engine"):
            if REDUCE_OP in ops:
                add(inclusive, "reduction.compile", span.duration)
            if BISECT_OP in ops:
                add(counts, "bisect.probes", 1)
                add(inclusive, "bisect.probe", span.duration)

    metrics = {
        "generator.generate_s": self_s.get("generator.generate", 0.0),
        "markers.instrument_s": self_s.get("markers.instrument", 0.0),
        "frontend.typecheck_s": self_s.get("frontend.typecheck", 0.0),
        "frontend.lower_s": self_s.get("frontend.lower", 0.0),
        "frontend.lower_calls": counts.get("frontend.lower", 0),
        "interp.truth_s": self_s.get("interp.truth", 0.0),
        "interp.steps": counts.get("interp.steps", 0),
        "interp.step_limited": counts.get("interp.step_limited", 0),
        "interp.step_limited_s": inclusive.get("interp.step_limited", 0.0),
        "compilers.compile_s": self_s.get("compilers.compile", 0.0),
        "compilers.compilations": counts.get("compilers.compile", 0),
        "compilers.pass_execs": counts.get(PASS_SPAN, 0),
        "compilers.pass_execs_saved": counters.get("compile.pass_execs_saved", 0),
        "compilers.memo_hits": counters.get("compile.memo_hits", 0),
        "ir.fingerprint_s": self_s.get("ir.fingerprint", 0.0),
        "ir.fingerprint_calls": counts.get("ir.fingerprint", 0),
        "ir.clone_s": self_s.get("ir.clone", 0.0),
        "ir.clone_calls": counts.get("ir.clone", 0),
    }
    pass_execs: dict[str, int] = {}
    for span in spans:
        if span.name == PASS_SPAN:
            name = span.attrs.get("pass")
            pass_execs[name] = pass_execs.get(name, 0) + 1
    for name in PASSES:
        metrics[f"passes.{name}_s"] = self_s.get(f"passes.{name}", 0.0)
        metrics[f"passes.{name}_execs"] = pass_execs.get(name, 0)
    metrics.update({
        "backend.emit_s": self_s.get("backend.emit", 0.0),
        "backend.scan_s": self_s.get("backend.scan", 0.0),
        "primary.graph_s": self_s.get("primary.graph", 0.0),
        "primary.search_s": self_s.get("primary.search", 0.0),
        "shapes.classify_s": self_s.get("shapes.classify", 0.0),
        "store.read_s": self_s.get("store.read", 0.0),
        "store.write_s": self_s.get("store.write", 0.0),
        "store.compile_memo_mb": counters.get("store.compile_memo_mb", 0.0),
        "store.reports_mb": counters.get("store.reports_mb", 0.0),
        "journal.append_s": self_s.get("journal.append", 0.0),
        "events.emit_s": self_s.get("events.emit", 0.0),
        "ledger.record_s": self_s.get("ledger.record", 0.0),
        "reduction.oracle_calls": counters.get("reduction.oracle_calls", 0),
        "reduction.memo_hit_ratio": counters.get("reduction.memo_hit_ratio", 0.0),
        "reduction.speculative_wasted": counters.get(
            "reduction.speculative_wasted", 0
        ),
        "reduction.print_s": self_s.get("reduction.print", 0.0),
        "reduction.parse_s": self_s.get("reduction.parse", 0.0),
        "reduction.compile_s": inclusive.get("reduction.compile", 0.0),
        "bisect.probe_s": inclusive.get("bisect.probe", 0.0),
        "bisect.probes": counts.get("bisect.probes", 0),
    })
    return metrics


def _enclosing_ops(span, by_id) -> set[str]:
    ops = set()
    parent = by_id.get(span.parent_id)
    while parent is not None:
        if parent.name in (REDUCE_OP, BISECT_OP):
            ops.add(parent.name)
        parent = by_id.get(parent.parent_id)
    return ops


def _layer_of(span, ops: set[str]) -> str | None:
    if span.name == PASS_SPAN:
        return f"passes.{span.attrs.get('pass')}"
    if span.name in ("lang.print", "lang.parse"):
        if REDUCE_OP in ops:
            return "reduction." + span.name.split(".")[1]
        return None
    return span.name if span.name in _LAYER_SPANS else None


def _nearest_layer(span, by_id) -> str | None:
    parent = by_id.get(span.parent_id)
    while parent is not None:
        layer = _layer_of(parent, _enclosing_ops(parent, by_id))
        if layer is not None:
            return layer
        parent = by_id.get(parent.parent_id)
    return None
