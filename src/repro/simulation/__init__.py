"""Latency-aware synchronous gossip simulator with pluggable backends.

Architecture
------------
Simulation runs behind one abstract surface,
:class:`~repro.simulation.protocol.EngineProtocol` (seeding, stepping,
running, completion queries), with two registered backends:

* ``"reference"`` — :class:`~repro.simulation.engine.GossipEngine`: the
  original per-node-callback engine over :class:`KnowledgeState` rumor
  sets.  It runs *any* exchange policy (arbitrary Python callbacks) and is
  the correctness oracle; its behaviour is frozen bit-for-bit.
* ``"fast"`` — :class:`~repro.simulation.fast_engine.FastEngine`: per-node
  knowledge as integer bitsets over the cached
  :class:`~repro.graphs.indexed.IndexedGraph` CSR core, payload snapshots
  as ints, batched per-round neighbour draws, and incrementally maintained
  informed counts so completion predicates are O(1).  It runs only
  *declarative* :class:`~repro.simulation.protocol.RoundPolicySpec`
  policies.
* ``"batch"`` — :class:`~repro.simulation.batch_engine.BatchEngine`: the
  one vectorized round kernel.  It runs ``reps`` replications of one
  declarative scenario as a single numpy computation (knowledge as an
  ``(n, reps, words)`` uint64 bitplane tensor; one independent numpy
  Generator per replication, seeded ``derive_seed(seed, "rep", r)``; one
  draw, one latency argsort and one knowledge scatter per round over every
  edge slot).  Driven through
  :meth:`~repro.simulation.batch_engine.BatchEngine.run_batch` with a
  :class:`~repro.simulation.protocol.BatchPolicySpec`; replication ``r``
  is bit-for-bit the sequential numpy-mode fast-backend run with the same
  seed label.  Its up-front memory guard raises
  :class:`~repro.simulation.protocol.SimulationError` instead of OOM-ing.
* ``"edge"`` — :class:`~repro.simulation.edge_engine.EdgeEngine`: the
  single-run view of that kernel (``reps=1``), with the fast backend's
  ``step``/``run`` surface over
  :class:`~repro.simulation.protocol.RoundPolicySpec` policies (numpy
  Generator rng, seeded ``derive_seed(seed, "rep", 0)``).  ``"auto"``
  prefers it from
  :data:`~repro.simulation.protocol.EDGE_AUTO_NODE_THRESHOLD` nodes up.

The capability contract
-----------------------
Algorithms declare which policy shape they need via
:class:`~repro.simulation.protocol.PolicyCapability`:

* ``UNIFORM_RANDOM`` — the per-round choice is declarative (uniform-random
  neighbour or round-robin cursor, with an optional informed/uninformed
  gate).  Both backends run it, with **identical** seeded trajectories:
  ``rng.choice(neighbors)`` (reference) and ``rng.randrange(degree)``
  (fast) consume the same random stream, and both engines sweep nodes in
  the same order.
* ``ARBITRARY_CALLBACK`` — the policy inspects per-node state in Python.
  Only the reference backend runs it.

When ``engine="auto"`` (the default on ``GossipAlgorithm.run``),
:func:`~repro.simulation.protocol.resolve_backend` picks ``"fast"`` exactly
when the algorithm declares ``UNIFORM_RANDOM`` and no event trace is
requested, and ``"reference"`` otherwise.  Requesting ``engine="fast"`` for
a callback-only algorithm raises
:class:`~repro.simulation.protocol.EngineSelectionError`.

Topology dynamics
-----------------
Both backends optionally run under a
:class:`~repro.simulation.dynamics.TopologyDynamics`: a round-indexed
schedule of :class:`~repro.simulation.dynamics.TopologyEvent` mutations
(edge add/remove, latency drift, node churn) applied to the live graph at
the start of every round.  The two backends share one event applier and one
semantics contract (see :mod:`repro.simulation.dynamics`), so a seeded
declarative run under a given schedule is bit-identical across backends;
in-flight exchanges over removed edges are dropped and counted in
``SimulationMetrics.lost_exchanges``.  Deterministic schedule generators
(Markov churn, periodic latency drift, slow-bridge flapping) live in
:mod:`repro.graphs.dynamics`.

Modules
-------
* :mod:`~repro.simulation.protocol` — backend protocol, capabilities,
  policy specs, and the backend registry,
* :mod:`~repro.simulation.engine` — the reference round/exchange engine,
* :mod:`~repro.simulation.fast_engine` — the bitset fast backend,
* :mod:`~repro.simulation.batch_engine` — the vectorized round kernel,
* :mod:`~repro.simulation.edge_engine` — its single-run view,
* :mod:`~repro.simulation.dynamics` — topology-dynamics events, schedules,
  and the shared applier,
* :mod:`~repro.simulation.messages` — rumors and per-node knowledge,
* :mod:`~repro.simulation.metrics` — time / message / activation counters,
* :mod:`~repro.simulation.tracing` — optional event traces (reference only),
* :mod:`~repro.simulation.rng` — deterministic seed derivation,
* :mod:`~repro.simulation.faults` — crash/edge-drop fault plans, compiled
  onto the dynamics event pipeline so both backends replay them,
* :mod:`~repro.simulation.golden` — golden-trace capture: seeded
  trajectories committed as ``tests/golden/`` fixtures and replayed on
  both backends by the parity tests (imported on demand, not re-exported
  here, since it depends on :mod:`repro.gossip`).
"""

from .dynamics import (
    ComposedDynamics,
    FaultState,
    ScheduleDynamics,
    TopologyDynamics,
    TopologyEvent,
    apply_event,
    apply_events,
)
from .batch_engine import BatchEngine
from .edge_engine import EdgeEngine
from .engine import ExchangePolicy, GossipEngine, NodeView, PendingExchange
from .fast_engine import FastEngine
from .faults import (
    FaultPlan,
    FaultyEngine,
    compile_fault_plan,
    random_crash_plan,
    random_edge_drop_plan,
)
from .messages import KnowledgeState, Rumor
from .metrics import SimulationMetrics
from .protocol import (
    ENGINE_BACKENDS,
    EDGE_AUTO_NODE_THRESHOLD,
    BatchCapability,
    BatchPolicySpec,
    EngineProtocol,
    EngineSelectionError,
    PolicyCapability,
    RoundPolicySpec,
    SimulationError,
    available_backends,
    create_engine,
    register_engine,
    resolve_backend,
    set_default_backend,
)
from .rng import (
    derive_seed,
    make_numpy_rng,
    make_rng,
    replication_rngs,
    replication_seed,
    spawn_rngs,
)
from .tracing import EventTrace, TraceEvent

__all__ = [
    "ENGINE_BACKENDS",
    "EDGE_AUTO_NODE_THRESHOLD",
    "BatchCapability",
    "BatchEngine",
    "BatchPolicySpec",
    "ComposedDynamics",
    "EdgeEngine",
    "EngineProtocol",
    "EngineSelectionError",
    "EventTrace",
    "ExchangePolicy",
    "FastEngine",
    "FaultPlan",
    "FaultState",
    "FaultyEngine",
    "GossipEngine",
    "KnowledgeState",
    "NodeView",
    "PendingExchange",
    "PolicyCapability",
    "RoundPolicySpec",
    "Rumor",
    "ScheduleDynamics",
    "SimulationError",
    "SimulationMetrics",
    "TopologyDynamics",
    "TopologyEvent",
    "TraceEvent",
    "apply_event",
    "apply_events",
    "available_backends",
    "compile_fault_plan",
    "create_engine",
    "derive_seed",
    "make_numpy_rng",
    "make_rng",
    "random_crash_plan",
    "random_edge_drop_plan",
    "register_engine",
    "replication_rngs",
    "replication_seed",
    "resolve_backend",
    "set_default_backend",
    "spawn_rngs",
]
