"""Round-indexed topology dynamics: the event model both engines share.

The paper fixes the weighted graph for the lifetime of a run.  This module
lifts that restriction: a :class:`TopologyDynamics` supplies, for every
round, a sequence of :class:`TopologyEvent` mutations — edge additions and
removals, latency drift, and node churn — that the simulation engines apply
to the live graph.  Deterministic *generators* of such schedules (Markov
churn, periodic latency oscillation, adversarial slow-bridge flapping) live
in :mod:`repro.graphs.dynamics`; this module owns only the event vocabulary,
the schedule containers, and the single shared applier, so that the
reference and fast backends interpret a schedule identically.

Semantics contract (honoured bit-for-bit by both engines)
---------------------------------------------------------
* The events for round ``r`` are applied at the **start** of round ``r`` —
  after the round counter advances, *before* due exchanges deliver — so a
  removal can cancel an exchange that would otherwise have completed that
  very round.
* Removing an edge (directly, or implicitly through a ``node-leave``) drops
  every in-flight exchange travelling over it.  Dropped exchanges were paid
  for as activations but deliver nothing; they are counted in
  :attr:`SimulationMetrics.lost_exchanges`.  Re-adding the edge — later or
  even by a subsequent event of the same round — does not resurrect them.
* A latency change applies to exchanges initiated from that round on;
  exchanges already in flight complete at the latency they were initiated
  with (content entered the channel under the old latency).
* The node universe only grows: a ``node-leave`` removes the node's
  incident edges (an edgeless node neither initiates nor receives, and
  consumes no randomness, keeping the two backends' random streams
  aligned) but keeps the node and its accumulated knowledge; a
  ``node-join`` restores edges.  Removing a node from the graph object
  itself mid-run is a :class:`~repro.graphs.weighted_graph.GraphError`.
* Fault events (``node-crash``, ``edge-fault``) mutate engine-held
  :class:`FaultState` rather than the graph: a crashed node keeps its edges
  (neighbours still pick — and waste exchanges on — it, so random streams
  are unchanged) but never initiates, and every exchange touching a crashed
  node or faulted edge runs its full latency and then delivers nothing,
  counted in :attr:`SimulationMetrics.suppressed_exchanges`.  Completion
  predicates are restricted to non-crashed nodes while any crash is active.
  This is the crash-stop model of :mod:`repro.simulation.faults`, compiled
  onto the shared pipeline so both backends replay it bit-identically.
* Event application is *forgiving*: removing an absent edge, re-adding a
  present one, or drifting the latency of a churned-out edge is a no-op.
  This lets independently generated schedules (churn + drift) compose
  without coordinating, and — because the graph is the only state touched —
  guarantees the two backends see identical post-event topology.

Engines receive a dynamics object via the ``dynamics=`` argument of
:func:`repro.simulation.protocol.create_engine` (surfaced as the
``dynamics=`` knob on ``GossipAlgorithm.run`` and ``--dynamics`` on the
CLI).  Note that the engine applies events to the graph you passed in — the
network itself evolves; pass ``graph.copy()`` if you need the original
afterwards.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..graphs.weighted_graph import NodeId, WeightedGraph

__all__ = [
    "EVENT_KINDS",
    "FAULT_EVENT_KINDS",
    "FaultState",
    "TopologyEvent",
    "TopologyDynamics",
    "ScheduleDynamics",
    "ComposedDynamics",
    "apply_event",
    "apply_events",
]

EVENT_KINDS = (
    "add-edge",
    "remove-edge",
    "set-latency",
    "node-leave",
    "node-join",
    "node-crash",
    "edge-fault",
)

#: The event kinds that mutate engine fault state instead of the graph.
#: ``node-crash`` is crash-stop: the node stays in the graph (neighbours
#: still see — and waste exchanges on — it) but never initiates, never
#: responds usefully, and its knowledge is frozen.  ``edge-fault`` silences
#: an edge the same way: it remains selectable, but exchanges over it are
#: suppressed at delivery time.  Both are permanent for the rest of the run.
FAULT_EVENT_KINDS = ("node-crash", "edge-fault")

_NO_EVENTS: tuple["TopologyEvent", ...] = ()


@dataclass(frozen=True)
class TopologyEvent:
    """One topology mutation, scheduled for the start of a round.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    u:
        The node the event concerns (first endpoint for edge events).
    v:
        Second endpoint for edge events; unused for node events.
    latency:
        New latency for ``add-edge`` / ``set-latency``.
    edges:
        For ``node-join``: the ``(peer, latency)`` pairs to restore.
    """

    kind: str
    u: NodeId
    v: Optional[NodeId] = None
    latency: Optional[int] = None
    edges: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; choose from {EVENT_KINDS}")
        if self.kind in ("add-edge", "remove-edge", "set-latency", "edge-fault") and self.v is None:
            raise ValueError(f"{self.kind} events need both endpoints")
        if self.kind in ("add-edge", "set-latency") and (
            not isinstance(self.latency, int) or self.latency < 1
        ):
            raise ValueError(f"{self.kind} events need a positive integer latency")


class FaultState:
    """Accumulated crash-stop / edge-fault state, fed by fault events.

    Both engines hold one of these and pass it to :func:`apply_events`; a
    ``node-crash`` or ``edge-fault`` event lands here instead of mutating
    the graph (fault events never bump the graph version, so they never
    force the fast backend to re-snapshot its CSR core).  State only grows:
    faults are permanent for the rest of the run, matching the legacy
    crash-stop :class:`~repro.simulation.faults.FaultPlan` model.

    The label-based sets are authoritative (the reference engine reads
    them directly).  Backends that keep index-based mirrors pass hooks:
    ``on_crash(node)`` and ``on_drop(u, v)`` run once per *new* fault, so
    a repeated event never touches the mirrors twice.
    """

    __slots__ = ("crashed", "dropped", "_on_crash", "_on_drop")

    def __init__(
        self,
        on_crash: Optional[Callable[[NodeId], None]] = None,
        on_drop: Optional[Callable[[NodeId, NodeId], None]] = None,
    ) -> None:
        self.crashed: set = set()
        self.dropped: set = set()
        self._on_crash = on_crash
        self._on_drop = on_drop

    @property
    def active(self) -> bool:
        """Whether any fault has fired yet (engines skip all checks until then)."""
        return bool(self.crashed or self.dropped)

    def crash(self, node: NodeId) -> None:
        """Mark ``node`` as crash-stopped (idempotent)."""
        if node not in self.crashed:
            self.crashed.add(node)
            if self._on_crash is not None:
                self._on_crash(node)

    def drop_edge(self, u: NodeId, v: NodeId) -> None:
        """Mark the edge ``{u, v}`` as permanently faulted (idempotent)."""
        key = frozenset((u, v))
        if key not in self.dropped:
            self.dropped.add(key)
            if self._on_drop is not None:
                self._on_drop(u, v)

    def is_crashed(self, node: NodeId) -> bool:
        """Whether ``node`` has crash-stopped."""
        return node in self.crashed

    def suppresses(self, u: NodeId, v: NodeId) -> bool:
        """Whether an exchange between ``u`` and ``v`` delivers nothing."""
        return u in self.crashed or v in self.crashed or frozenset((u, v)) in self.dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultState(crashed={len(self.crashed)}, dropped={len(self.dropped)})"


def apply_event(
    graph: WeightedGraph,
    event: TopologyEvent,
    severed: Optional[set] = None,
    faults: Optional[FaultState] = None,
) -> None:
    """Apply one event to ``graph`` with the module's forgiving semantics.

    When ``severed`` is given, every edge actually removed (directly or via
    ``node-leave``) is recorded into it as a frozenset of its endpoints.
    Fault events (:data:`FAULT_EVENT_KINDS`) are routed into ``faults``
    instead of the graph; applying one without a fault state is an error —
    silently dropping a fault would turn a robustness experiment into a
    fault-free run.
    """
    kind = event.kind
    if kind in FAULT_EVENT_KINDS:
        if faults is None:
            raise ValueError(
                f"{kind} events need a FaultState to apply to; drive them through an "
                "engine (which owns one) rather than a bare graph"
            )
        # Unlike graph events, fault events are NOT forgiving about unknown
        # nodes: a typo'd label would silently turn a robustness run
        # fault-free, and the two backends must agree on the outcome —
        # so both reject it here, at the shared layer.  (Imported lazily:
        # repro.graphs package init imports this module.)
        from ..graphs.weighted_graph import GraphError

        for endpoint in (event.u,) if kind == "node-crash" else (event.u, event.v):
            if not graph.has_node(endpoint):
                raise GraphError(
                    f"{kind} event names {endpoint!r}, which is not in the graph"
                )
        if kind == "node-crash":
            faults.crash(event.u)
        else:
            faults.drop_edge(event.u, event.v)
    elif kind == "add-edge":
        _put_edge(graph, event.u, event.v, event.latency)
    elif kind == "remove-edge":
        if graph.has_edge(event.u, event.v):
            graph.remove_edge(event.u, event.v)
            if severed is not None:
                severed.add(frozenset((event.u, event.v)))
    elif kind == "set-latency":
        if graph.has_edge(event.u, event.v):
            if graph.latency(event.u, event.v) != event.latency:
                graph.set_latency(event.u, event.v, event.latency)
    elif kind == "node-leave":
        if graph.has_node(event.u):
            for neighbor in graph.neighbors(event.u):
                graph.remove_edge(event.u, neighbor)
                if severed is not None:
                    severed.add(frozenset((event.u, neighbor)))
    elif kind == "node-join":
        graph.add_node(event.u)
        for peer, latency in event.edges:
            if graph.has_node(peer) and peer != event.u:
                _put_edge(graph, event.u, peer, latency)


def _put_edge(graph: WeightedGraph, u: NodeId, v: NodeId, latency: int) -> None:
    """Add edge ``{u, v}``, updating the latency if it already exists."""
    if graph.has_edge(u, v):
        if graph.latency(u, v) != latency:
            graph.set_latency(u, v, latency)
    else:
        graph.add_edge(u, v, latency)


def apply_events(
    graph: WeightedGraph,
    events: Iterable[TopologyEvent],
    faults: Optional[FaultState] = None,
) -> set:
    """Apply a round's events to ``graph`` (and ``faults``) in order.

    Returns the edge keys (frozensets of endpoints) removed at any point
    during application — even if a later event of the same round re-added
    the edge — so engines can cancel in-flight exchanges per the module
    contract rather than diffing only the round's net topology change.
    Fault events accumulate into ``faults`` (see :class:`FaultState`).
    """
    severed: set = set()
    for event in events:
        apply_event(graph, event, severed, faults)
    return severed


@runtime_checkable
class TopologyDynamics(Protocol):
    """The surface engines drive a dynamics object through.

    Implementations must be *pure round functions*: ``events_for_round(r)``
    returns the same sequence every time it is asked about round ``r``, and
    asking about one round has no effect on another.  That is what lets the
    same object be consulted by either backend (or by both, in a parity
    check, via two engines over two equal graphs) with identical results.
    """

    def events_for_round(self, round_number: int) -> Sequence[TopologyEvent]:
        """The events applied at the start of round ``round_number``."""
        ...


class ScheduleDynamics:
    """A precomputed round → events schedule (the common concrete form).

    Parameters
    ----------
    events_by_round:
        Mapping from round number (>= 1) to the events applied at the start
        of that round.  Rounds without an entry have no events; rounds past
        the last entry leave the topology frozen in its final state.
    name:
        Human-readable label, used by result tables and ``--dynamics``
        reporting (``str(schedule)`` returns it).
    """

    def __init__(
        self,
        events_by_round: Mapping[int, Sequence[TopologyEvent]],
        name: str = "schedule",
    ) -> None:
        cleaned: dict[int, tuple[TopologyEvent, ...]] = {}
        for round_number, events in events_by_round.items():
            if not isinstance(round_number, int) or round_number < 1:
                raise ValueError(f"schedule rounds must be positive ints, got {round_number!r}")
            events = tuple(events)
            if events:
                cleaned[round_number] = events
        self._events = cleaned
        self.name = name

    @property
    def horizon(self) -> int:
        """The last round with scheduled events (0 for an empty schedule)."""
        return max(self._events, default=0)

    @property
    def num_events(self) -> int:
        """Total number of scheduled events."""
        return sum(len(events) for events in self._events.values())

    def events_for_round(self, round_number: int) -> tuple[TopologyEvent, ...]:
        """The events applied at the start of ``round_number``."""
        return self._events.get(round_number, _NO_EVENTS)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduleDynamics(name={self.name!r}, horizon={self.horizon}, events={self.num_events})"


class ComposedDynamics:
    """Concatenate several dynamics: per round, parts contribute in order.

    Composition is left-to-right within every round, and the forgiving
    event-application semantics make overlapping schedules (e.g. latency
    drift on an edge that churn has currently removed) safe no-ops.
    """

    def __init__(self, parts: Sequence[TopologyDynamics], name: Optional[str] = None) -> None:
        self.parts = tuple(parts)
        self.name = name if name is not None else "+".join(str(part) for part in self.parts)

    def events_for_round(self, round_number: int) -> tuple[TopologyEvent, ...]:
        """All parts' events for ``round_number``, concatenated in order."""
        events: list[TopologyEvent] = []
        for part in self.parts:
            events.extend(part.events_for_round(round_number))
        return tuple(events)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComposedDynamics({list(self.parts)!r})"
