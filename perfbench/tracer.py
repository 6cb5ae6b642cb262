"""In-memory span recorder and the patches that time each layer of ``repro``.

The traced run wraps the public entry points of every layer (the tables in
``_module_functions`` and ``_class_methods``, plus the graph-family
builders) for the duration of an :class:`Instrumentation` block and
restores the originals on exit.  Each wrapper records one :class:`Span`
(name, start, end, parent span, op id) or bumps a counter; spans stay in
memory and are written out once, when the run ends.

Nothing under ``src/`` knows it is being traced: the wrappers live here and
are bound into every ``repro.*`` module that imported the wrapped function
by name, so calls from inside the package are seen too.  Calls made inside
the fork-pool children of ``analysis.experiment`` run in another process;
only what they hand back to the parent (``TrialRecord`` rows) is measured.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """Collects spans and counters; ``begin_op``/``end_op`` delimit ops."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[tuple[Optional[int], str], float] = field(default_factory=dict)
    samples: dict[tuple[Optional[int], str], list[float]] = field(default_factory=dict)
    op: Optional[int] = None
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        """End the span ``span_id`` (always the innermost open one)."""
        self.spans[span_id].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed while span {popped} was innermost")

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.op, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault((self.op, name), []).append(value)

    def begin_op(self, op: int) -> int:
        self.op = op
        return self.open("op")

    def end_op(self, span_id: int) -> None:
        self.close(span_id)
        self.op = None

    def write_jsonl(self, path: str) -> None:
        """Write every span, then every counter, as one JSON object a line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )
            for (op, name), value in sorted(self.counters.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
                handle.write(json.dumps({"counter": name, "op": op, "value": value}) + "\n")


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def op_spans(recorder: SpanRecorder, op: int) -> list[Span]:
    return [span for span in recorder.spans if span.op == op]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one op run on one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.span_id: span.duration - covered.get(span.span_id, 0.0) for span in spans}


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` that have no ancestor of the same name."""
    by_id = {span.span_id: span for span in spans}
    chosen = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        nested = False
        while parent is not None and parent in by_id:
            if by_id[parent].name == name:
                nested = True
                break
            parent = by_id[parent].parent
        if not nested:
            chosen.append(span)
    return chosen


def total_s(spans: list[Span], name: str) -> float:
    return sum(span.duration for span in outermost(spans, name))


def self_s(spans: list[Span], name: str) -> float:
    selfs = self_times(spans)
    return sum(selfs[span.span_id] for span in spans if span.name == name)


def unattributed_s(spans: list[Span]) -> float:
    """Op wall time that no top-level span (a direct child of the op) covers."""
    selfs = self_times(spans)
    return sum(selfs[span.span_id] for span in spans if span.name == "op")


# ----------------------------------------------------------------------
# Patching
# ----------------------------------------------------------------------
def _spanned(recorder: SpanRecorder, name: str, original: Callable, after=None) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_id = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span_id)
        if after is not None:
            after(recorder, result)
        return result

    return wrapper


def _counted(recorder: SpanRecorder, name: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        recorder.count(name)
        return original(*args, **kwargs)

    return wrapper


def _after_generator(recorder: SpanRecorder, graph: Any) -> None:
    recorder.count("graphs.generators.edges", graph.num_edges)


def _after_edge_run(recorder: SpanRecorder, metrics: Any) -> None:
    recorder.count("simulation.edge_engine.rounds", metrics.rounds)
    recorder.count("simulation.edge_engine.activations", metrics.activations)
    recorder.count("simulation.edge_engine.rumor_deliveries", metrics.rumor_deliveries)


def _after_run_batch(recorder: SpanRecorder, per_rep: Any) -> None:
    recorder.count("simulation.batch_engine.rounds", sum(m.rounds for m in per_rep))
    recorder.count("simulation.batch_engine.activations", sum(m.activations for m in per_rep))
    recorder.count("simulation.batch_engine.rumor_deliveries", sum(m.rumor_deliveries for m in per_rep))
    recorder.count("simulation.batch_engine.lost_exchanges", sum(m.lost_exchanges for m in per_rep))
    recorder.count(
        "simulation.batch_engine.suppressed_exchanges", sum(m.suppressed_exchanges for m in per_rep)
    )


def _after_calibrate(recorder: SpanRecorder, result: Any) -> None:
    later = result.generations[1:]
    recorder.count("analysis.calibrate.simulations", result.total_simulations)
    recorder.count("analysis.calibrate.accepted", sum(g.acceptance_count for g in later))
    recorder.count("analysis.calibrate.proposals", sum(g.simulations for g in later))


def _edge_step(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_id = recorder.open("simulation.edge_engine.step")
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(span_id)
            span = recorder.spans[span_id]
            recorder.sample("simulation.edge_engine.step_ms", span.duration * 1e3)

    return wrapper


def _apply_events(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(graph, events, *args, **kwargs):
        events = list(events)
        recorder.count("simulation.dynamics.apply_events.calls")
        recorder.count("simulation.dynamics.events", len(events))
        span_id = recorder.open("simulation.dynamics.apply_events")
        try:
            return original(graph, events, *args, **kwargs)
        finally:
            recorder.close(span_id)

    return wrapper


def _experiment_run(recorder: SpanRecorder, original: Callable) -> Callable:
    """``Experiment.run`` with a progress hook that sees every TrialRecord."""

    @functools.wraps(original)
    def wrapper(self, *args, progress=None, **kwargs):
        def observe(done, total, record):
            recorder.count("analysis.experiment.shards")
            recorder.count("analysis.experiment.busy_s", record.wall_seconds)
            if progress is not None:
                progress(done, total, record)

        span_id = recorder.open("analysis.experiment.run")
        try:
            return original(self, *args, progress=observe, **kwargs)
        finally:
            recorder.close(span_id)

    return wrapper


def _experiment_pool(recorder: SpanRecorder, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(self, pending, worker_count, *args, **kwargs):
        span_id = recorder.open("analysis.experiment.pool")
        try:
            return original(self, pending, worker_count, *args, **kwargs)
        finally:
            recorder.close(span_id)
            workers = min(worker_count, len(pending))
            recorder.count("analysis.experiment.capacity_s", workers * recorder.spans[span_id].duration)

    return wrapper


def _calibrate(recorder: SpanRecorder, original: Callable) -> Callable:
    """``calibrate`` with a progress hook that timestamps each generation."""

    @functools.wraps(original)
    def wrapper(*args, progress=None, **kwargs):
        last = [time.perf_counter()]

        def observe(generation):
            now = time.perf_counter()
            recorder.sample("analysis.calibrate.generation_s", now - last[0])
            last[0] = now
            if progress is not None:
                progress(generation)

        span_id = recorder.open("analysis.calibrate")
        try:
            result = original(*args, progress=observe, **kwargs)
        finally:
            recorder.close(span_id)
        _after_calibrate(recorder, result)
        return result

    return wrapper


def _module_functions() -> list[tuple[str, str, Any]]:
    """(module, function name, wrapper factory) for each wrapped function."""
    spanned = lambda name, after=None: (lambda rec, fn: _spanned(rec, name, fn, after))  # noqa: E731
    counted = lambda name: (lambda rec, fn: _counted(rec, name, fn))  # noqa: E731
    return [
        ("repro.scenario", "prepare_scenario", spanned("scenario.prepare")),
        ("repro.scenario", "build_dynamics", spanned("scenario.build_dynamics")),
        ("repro.scenario", "build_fault_plan", spanned("scenario.build_fault_plan")),
        ("repro.gossip.base", "require_connected", spanned("gossip.require_connected")),
        ("repro.simulation.protocol", "create_engine", spanned("simulation.create_engine")),
        ("repro.simulation.dynamics", "apply_events", _apply_events),
        ("repro.core.conductance", "weighted_conductance_profile", spanned("core.conductance.profile")),
        ("repro.core.conductance", "critical_weighted_conductance", spanned("core.conductance.critical")),
        ("repro.core.conductance", "average_weighted_conductance", spanned("core.conductance.average")),
        ("repro.core.conductance", "classical_conductance", spanned("core.conductance.classical")),
        ("repro.core.conductance", "weight_ell_conductance", counted("core.conductance.weight_ell.calls")),
        ("repro.graphs.cuts", "cut_edges", counted("graphs.cuts.cut_edges.calls")),
        ("repro.core.bounds", "extract_parameters", spanned("core.bounds.extract_parameters")),
        ("repro.core.relation", "check_theorem5", spanned("core.relation.check_theorem5")),
        ("repro.core.bottleneck", "find_bottleneck", spanned("core.bottleneck.find_bottleneck")),
        ("repro.core.bottleneck", "suggest_upgrades", spanned("core.bottleneck.suggest_upgrades")),
        ("repro.analysis.calibrate", "calibrate", _calibrate),
    ]


def _class_methods() -> list[tuple[str, str, str, Any]]:
    """(module, class, method name, wrapper factory) for each wrapped method."""
    spanned = lambda name, after=None: (lambda rec, fn: _spanned(rec, name, fn, after))  # noqa: E731
    return [
        ("repro.store", "GraphStore", "checkout", spanned("store.checkout")),
        ("repro.graphs.indexed", "IndexedGraph", "__init__", spanned("graphs.indexed.snapshot")),
        ("repro.graphs.weighted_graph", "WeightedGraph", "is_connected", spanned("graphs.indexed.is_connected")),
        ("repro.graphs.indexed", "CSRGraph", "is_connected", spanned("graphs.indexed.is_connected")),
        ("repro.gossip.base", "GossipAlgorithm", "run", spanned("gossip.run")),
        ("repro.simulation.edge_engine", "EdgeEngine", "run", spanned("simulation.edge_engine.run", _after_edge_run)),
        ("repro.simulation.edge_engine", "EdgeEngine", "step", _edge_step),
        (
            "repro.simulation.batch_engine",
            "BatchEngine",
            "run_batch",
            spanned("simulation.batch_engine.run_batch", _after_run_batch),
        ),
        ("repro.simulation.batch_engine", "BatchEngine", "informed_curve", spanned("simulation.batch_engine.informed_curve")),
        ("repro.analysis.experiment", "Experiment", "run", _experiment_run),
        ("repro.analysis.experiment", "Experiment", "_run_pool", _experiment_pool),
    ]


class Instrumentation:
    """Context manager: wrap every layer entry point, restore on exit.

    A module-level function is rebound in *every* loaded ``repro.*`` module
    that holds it under the same name (``from .x import f`` copies the
    reference), so intra-package callers hit the wrapper too.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _rebind_everywhere(self, original: Any, attribute: str, replacement: Any) -> None:
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            if module.__dict__.get(attribute) is original:
                self._undo.append((module, attribute, original))
                setattr(module, attribute, replacement)

    def __enter__(self) -> "Instrumentation":
        import repro.scenario as scenario

        try:
            for module_name, attribute, factory in _module_functions():
                original = getattr(sys.modules[module_name], attribute)
                self._rebind_everywhere(original, attribute, factory(self.recorder, original))
            for module_name, class_name, attribute, factory in _class_methods():
                cls = getattr(sys.modules[module_name], class_name)
                original = cls.__dict__[attribute]
                self._undo.append((cls, attribute, original))
                setattr(cls, attribute, factory(self.recorder, original))
            families = scenario.GRAPH_FAMILIES
            for family, builder in list(families.items()):
                self._undo.append((families, family, builder))
                families[family] = _spanned(self.recorder, "graphs.generators.build", builder, _after_generator)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            target, attribute, original = self._undo.pop()
            if isinstance(target, dict):
                target[attribute] = original
            else:
                setattr(target, attribute, original)

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


def import_layers() -> None:
    """Import every module the patches name, so rebinding sees them all."""
    import importlib

    for module_name, _attribute, _factory in _module_functions():
        importlib.import_module(module_name)
    for module_name, _cls, _attribute, _factory in _class_methods():
        importlib.import_module(module_name)
    for module_name in ("repro", "repro.core", "repro.gossip", "repro.simulation", "repro.analysis"):
        importlib.import_module(module_name)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric -> unit.  Times are medians over the traced ops of each
#: op's value; counts and ratios come from the first traced op, whose
#: inputs depend on the seed alone, so they repeat exactly.
LAYER_METRICS: dict[str, str] = {
    "graphs.generators.build_s": "s",
    "graphs.generators.edges": "count",
    "store.checkout_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.builds": "count",
    "store.hit_ratio": "ratio",
    "graphs.indexed.snapshots": "count",
    "graphs.indexed.snapshot_s": "s",
    "graphs.indexed.is_connected_s": "s",
    "scenario.prepare.self_s": "s",
    "scenario.build_dynamics_s": "s",
    "scenario.build_fault_plan_s": "s",
    "gossip.run.self_s": "s",
    "gossip.require_connected_s": "s",
    "simulation.create_engine_s": "s",
    "simulation.edge_engine.rounds": "count",
    "simulation.edge_engine.step_s": "s",
    "simulation.edge_engine.step_p50_ms": "ms",
    "simulation.edge_engine.run.self_s": "s",
    "simulation.edge_engine.activations": "count",
    "simulation.edge_engine.useful_ratio": "ratio",
    "simulation.batch_engine.run_batch.self_s": "s",
    "simulation.batch_engine.rounds": "count",
    "simulation.batch_engine.activations": "count",
    "simulation.batch_engine.lost_exchanges": "count",
    "simulation.batch_engine.suppressed_exchanges": "count",
    "simulation.batch_engine.useful_ratio": "ratio",
    "simulation.batch_engine.informed_curve_s": "s",
    "simulation.dynamics.apply_events.calls": "count",
    "simulation.dynamics.apply_events_s": "s",
    "simulation.dynamics.events": "count",
    "core.conductance.profile_s": "s",
    "core.conductance.critical_s": "s",
    "core.conductance.average_s": "s",
    "core.conductance.classical_s": "s",
    "core.conductance.weight_ell.calls": "count",
    "graphs.cuts.cut_edges.calls": "count",
    "core.bounds.extract_parameters_s": "s",
    "core.relation.check_theorem5_s": "s",
    "core.bottleneck.suggest_upgrades_s": "s",
    "core.bottleneck.candidates": "count",
    "analysis.experiment.shards": "count",
    "analysis.experiment.pool_s": "s",
    "analysis.experiment.busy_s": "s",
    "analysis.experiment.utilization": "ratio",
    "analysis.calibrate.generation_s": "s",
    "analysis.calibrate.simulations": "count",
    "analysis.calibrate.acceptance_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def op_times(recorder: SpanRecorder, op: int) -> dict[str, float]:
    """The time metrics of one traced op."""
    spans = op_spans(recorder, op)
    get = lambda name: recorder.counters.get((op, name), 0.0)  # noqa: E731
    pool = total_s(spans, "analysis.experiment.pool")
    return {
        "graphs.generators.build_s": total_s(spans, "graphs.generators.build"),
        "store.checkout_s": self_s(spans, "store.checkout"),
        "graphs.indexed.snapshot_s": total_s(spans, "graphs.indexed.snapshot"),
        "graphs.indexed.is_connected_s": total_s(spans, "graphs.indexed.is_connected"),
        "scenario.prepare.self_s": self_s(spans, "scenario.prepare"),
        "scenario.build_dynamics_s": total_s(spans, "scenario.build_dynamics"),
        "scenario.build_fault_plan_s": total_s(spans, "scenario.build_fault_plan"),
        "gossip.run.self_s": self_s(spans, "gossip.run"),
        "gossip.require_connected_s": total_s(spans, "gossip.require_connected"),
        "simulation.create_engine_s": total_s(spans, "simulation.create_engine"),
        "simulation.edge_engine.step_s": total_s(spans, "simulation.edge_engine.step"),
        "simulation.edge_engine.run.self_s": self_s(spans, "simulation.edge_engine.run"),
        "simulation.batch_engine.run_batch.self_s": self_s(spans, "simulation.batch_engine.run_batch"),
        "simulation.batch_engine.informed_curve_s": total_s(spans, "simulation.batch_engine.informed_curve"),
        "simulation.dynamics.apply_events_s": total_s(spans, "simulation.dynamics.apply_events"),
        "core.conductance.profile_s": total_s(spans, "core.conductance.profile"),
        "core.conductance.critical_s": total_s(spans, "core.conductance.critical"),
        "core.conductance.average_s": total_s(spans, "core.conductance.average"),
        "core.conductance.classical_s": total_s(spans, "core.conductance.classical"),
        "core.bounds.extract_parameters_s": total_s(spans, "core.bounds.extract_parameters"),
        "core.relation.check_theorem5_s": total_s(spans, "core.relation.check_theorem5"),
        "core.bottleneck.suggest_upgrades_s": total_s(spans, "core.bottleneck.suggest_upgrades"),
        "analysis.experiment.pool_s": pool,
        "analysis.experiment.busy_s": get("analysis.experiment.busy_s"),
        "analysis.experiment.utilization": _ratio(
            get("analysis.experiment.busy_s"), get("analysis.experiment.capacity_s")
        ),
        "trace.unattributed_s": unattributed_s(spans),
    }


def op_counts(recorder: SpanRecorder, op: int, store_delta: dict[str, int]) -> dict[str, float]:
    """The count and ratio metrics of one traced op."""
    spans = op_spans(recorder, op)
    get = lambda name: recorder.counters.get((op, name), 0)  # noqa: E731
    by_id = {span.span_id: span for span in spans}
    candidates = sum(
        1
        for span in spans
        if span.name == "core.conductance.critical"
        and span.parent in by_id
        and by_id[span.parent].name == "core.bottleneck.suggest_upgrades"
    )
    lookups = store_delta["hits"] + store_delta["misses"] + store_delta["disk_hits"]
    return {
        "graphs.generators.edges": get("graphs.generators.edges"),
        "store.hits": store_delta["hits"],
        "store.misses": store_delta["misses"],
        "store.builds": store_delta["builds"],
        "store.hit_ratio": _ratio(store_delta["hits"] + store_delta["disk_hits"], lookups),
        "graphs.indexed.snapshots": sum(1 for span in spans if span.name == "graphs.indexed.snapshot"),
        "simulation.edge_engine.rounds": get("simulation.edge_engine.rounds"),
        "simulation.edge_engine.activations": get("simulation.edge_engine.activations"),
        "simulation.edge_engine.useful_ratio": _ratio(
            get("simulation.edge_engine.rumor_deliveries"), get("simulation.edge_engine.activations")
        ),
        "simulation.batch_engine.rounds": get("simulation.batch_engine.rounds"),
        "simulation.batch_engine.activations": get("simulation.batch_engine.activations"),
        "simulation.batch_engine.lost_exchanges": get("simulation.batch_engine.lost_exchanges"),
        "simulation.batch_engine.suppressed_exchanges": get("simulation.batch_engine.suppressed_exchanges"),
        "simulation.batch_engine.useful_ratio": _ratio(
            get("simulation.batch_engine.rumor_deliveries"), get("simulation.batch_engine.activations")
        ),
        "simulation.dynamics.apply_events.calls": get("simulation.dynamics.apply_events.calls"),
        "simulation.dynamics.events": get("simulation.dynamics.events"),
        "core.conductance.weight_ell.calls": get("core.conductance.weight_ell.calls"),
        "graphs.cuts.cut_edges.calls": get("graphs.cuts.cut_edges.calls"),
        "core.bottleneck.candidates": candidates,
        "analysis.experiment.shards": get("analysis.experiment.shards"),
        "analysis.calibrate.simulations": get("analysis.calibrate.simulations"),
        "analysis.calibrate.acceptance_ratio": _ratio(
            get("analysis.calibrate.accepted"), get("analysis.calibrate.proposals")
        ),
    }


def layer_metrics(
    recorder: SpanRecorder,
    ops: list[int],
    store_deltas: dict[int, dict[str, int]],
    untraced_wall: list[float],
    traced_wall: list[float],
) -> dict[str, float]:
    """Every per-layer metric of a traced run (see :data:`LAYER_METRICS`)."""
    per_op = [op_times(recorder, op) for op in ops]
    metrics = {name: statistics.median(row[name] for row in per_op) for name in per_op[0]}
    metrics.update(op_counts(recorder, ops[0], store_deltas[ops[0]]))
    steps = [value for op in ops for value in recorder.samples.get((op, "simulation.edge_engine.step_ms"), [])]
    metrics["simulation.edge_engine.step_p50_ms"] = statistics.median(steps) if steps else 0.0
    generations = [value for op in ops for value in recorder.samples.get((op, "analysis.calibrate.generation_s"), [])]
    metrics["analysis.calibrate.generation_s"] = statistics.median(generations) if generations else 0.0
    metrics["trace.overhead_s"] = statistics.median(
        traced - untraced for traced, untraced in zip(traced_wall, untraced_wall)
    )
    missing = set(LAYER_METRICS) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metrics[name] for name in LAYER_METRICS}
