"""The vectorized round kernel: R seeded runs of one scenario as numpy arrays.

The paper's claims are about *distributions* of spreading times, so every
experiment runs many seeded replications of the same scenario, and its
largest single runs have 10^6 nodes.  :class:`BatchEngine` serves both by
simulating ``reps`` replications in lockstep, each round one set of array
operations over every (node, replication) cell:

* **knowledge** is an ``(n_nodes, reps, words)`` uint64 bitplane tensor —
  bit ``b`` of a node's words is rumor ``b``, exactly the fast backend's
  integer bitsets laid out as a matrix, so merging a delivery is a
  vectorized ``bitwise_or`` and informed counts are ``bitwise_count``
  reductions (runs with at most 64 rumors collapse to one flat uint64
  plane);
* **neighbour choice** consumes one independent numpy Generator per
  replication, seeded ``derive_seed(seed, "rep", r)`` (see
  :mod:`repro.simulation.rng`): each round, replication ``r`` draws one
  uniform float per node and maps it to a neighbour slot through the shared
  :func:`~repro.simulation.rng.uniform_slot_offsets` helper — the identical
  draw-and-map a sequential numpy-mode ``FastEngine`` run performs, which
  is what makes batched column ``r`` **bit-for-bit equal** to that
  sequential run;
* **latency gating** batches in-flight exchanges by completion round (one
  latency sort per round hands each completion round a contiguous slice),
  with payload snapshots gathered as row blocks at initiation time;
* **dynamics and faults** ride the existing shared applier: the one
  scenario-seeded schedule mutates the one shared graph (all replications
  see the same topology trajectory, by construction of the scenario seed
  derivation), and crash/edge-fault state applies as node/edge masks across
  every replication column.

Replications complete independently: a column whose stop predicate holds is
frozen — it stops initiating and drawing, its still-pending exchanges are
discarded at delivery time (the vectorized form of ``drain=True``), and its
metrics are materialized at its own completion round — so each
replication's :class:`~repro.simulation.metrics.SimulationMetrics` matches
the sequential run that would have stopped there.

Memory guard
------------
The engine estimates its array footprint up front (knowledge tensor, CSR
arrays, worst-case in-flight pipeline) and raises
:class:`~repro.simulation.protocol.SimulationError` with the estimate
instead of OOM-ing — most importantly for all-to-all seeding, whose
knowledge tensor is ``reps * n^2/8`` bytes.

The engine registers itself as the ``"batch"`` backend and is driven
through :meth:`run_batch` (the
:class:`~repro.simulation.protocol.BatchCapability` surface) with a
:class:`~repro.simulation.protocol.BatchPolicySpec`.  Its one-replication
case is the ``"edge"`` backend,
:class:`~repro.simulation.edge_engine.EdgeEngine`, which adds the
single-run ``step``/``run`` surface on top of this kernel.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from typing import Any, Optional

import numpy as np

from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from .dynamics import FaultState, TopologyDynamics, apply_events
from .messages import Rumor
from .metrics import SimulationMetrics
from .protocol import BatchPolicySpec, SimulationError, register_engine
from .rng import uniform_slot_offsets

__all__ = ["BatchEngine", "DEFAULT_MEMORY_LIMIT"]

#: Default memory budget for the engine's arrays (bytes).
DEFAULT_MEMORY_LIMIT = 4 * 1024**3

#: Upper bound on the activation ring buffers (entries per buffer).
_RING_BUFFER_CAP = 8_388_608


@register_engine("batch")
class BatchEngine:
    """Run ``reps`` replications of one declarative scenario vectorized.

    Parameters
    ----------
    graph:
        The shared network.  Like the other backends the engine applies
        dynamics events to the graph you pass in; hand it a copy if you
        need the original afterwards.
    reps:
        Number of independent replications (columns).
    blocking:
        If true, a node with an in-flight exchange skips its turn in that
        replication until the exchange completes.
    dynamics:
        Optional :class:`~repro.simulation.dynamics.TopologyDynamics`
        applied at the start of every round — one shared schedule for all
        replications, matching the scenario-seed derivation discipline.
    """

    #: Backend name used in guard messages.
    _backend = "batch"
    #: Byte budget checked by the memory guard.
    _memory_limit = DEFAULT_MEMORY_LIMIT
    #: Skip per-edge activation counters above this many CSR slots
    #: (``None``: always count).
    _activation_slot_limit: Optional[int] = None

    def __init__(
        self,
        graph: WeightedGraph,
        reps: int,
        blocking: bool = False,
        dynamics: Optional[TopologyDynamics] = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise GraphError("cannot simulate on an empty graph")
        if not isinstance(reps, int) or reps < 1:
            raise ValueError(f"reps must be a positive integer, got {reps!r}")
        self.graph = graph
        self.reps = reps
        self.blocking = blocking
        self.dynamics = dynamics
        self.round = 0
        self._idx = graph.indexed()
        self._graph_version = graph.version
        limit = self._activation_slot_limit
        self._track_activations = limit is None or self._idx.indices.size <= limit
        self._load_csr()
        n = self._idx.num_nodes
        self._words = 1
        self._check_memory(words=1, action="constructing the engine")
        # Knowledge bitplanes and per-(node, replication) state.
        self._know = np.zeros((n, reps, 1), dtype=np.uint64)
        # Per-(replication, node) state is laid out replication-major so
        # per-round broadcasts and the per-replication draw rows stay
        # contiguous.  Outstanding-exchange counts are only consulted by
        # the blocking rule, so they are tracked only when blocking is on.
        self._outstanding = np.zeros((reps, n), dtype=np.int64) if blocking else None
        self._cursors = np.zeros((reps, n), dtype=np.int64)
        # Cache of the acting pattern and its nonzero indices for ungated,
        # non-blocking rounds: the pattern there is a pure function of the
        # live-replication set, the crash mask, and the degree vector, so a
        # mask epoch (bumped whenever any of those change) keys the reuse.
        self._mask_epoch = 0
        self._acting_cache: Optional[tuple[tuple, np.ndarray, np.ndarray, np.ndarray]] = None
        self._acting_counts: Optional[tuple[tuple, np.ndarray]] = None
        # Rumor registry (shared across replications: every column is the
        # same scenario, so bit b means the same rumor everywhere).
        self._rumors: list[Rumor] = []
        self._rumor_bit: dict[Rumor, int] = {}
        self._bit_origin: list[int] = []
        self._seeded_origins: set[int] = set()
        # Per-replication metric accumulators.
        self._activations = np.zeros(reps, dtype=np.int64)
        self._messages = np.zeros(reps, dtype=np.int64)
        self._deliveries = np.zeros(reps, dtype=np.int64)
        self._payload_sent = np.zeros(reps, dtype=np.int64)
        self._max_payload = np.zeros(reps, dtype=np.int64)
        self._lost = np.zeros(reps, dtype=np.int64)
        self._suppressed = np.zeros(reps, dtype=np.int64)
        # Edge-activation accounting: each round's (slot, rep) pairs are
        # appended to fixed int32 ring buffers and folded into the
        # (edge, rep) count matrix by one bincount per buffer-full (a
        # scatter-add every round would touch the whole matrix every round).
        # A round parks at most n * reps pairs; buffers of two rounds'
        # volume fold at most every other round.  Larger buffers measured
        # no faster and raised the peak memory of single large runs.
        self._edge_counts: Optional[np.ndarray] = None
        self._folded_activations: list[Counter] = [Counter() for _ in range(reps)]
        self._act_fill = 0
        if self._track_activations:
            self._edge_counts = np.zeros((self._idx.num_edges, reps), dtype=np.int64)
            buffer_size = min(_RING_BUFFER_CAP, 2 * n * reps)
            self._act_slots = np.empty(buffer_size, dtype=np.int32)
            self._act_reps = np.empty(buffer_size, dtype=np.int32)
        # Completion bookkeeping.
        self._active = np.ones(reps, dtype=bool)
        self._completion_round = np.full(reps, -1, dtype=np.int64)
        # In-flight exchanges, batched by completion round: each entry is
        # (initiator idx, responder idx, rep idx, payload_i, payload_j) —
        # or, on static non-blocking single-word runs, the initiator and
        # responder columns hold flattened (node * reps + rep) indices so
        # delivery can scatter without recomputing them.
        self._due: dict[int, list[tuple]] = {}
        self._lin_due = dynamics is None and not blocking
        self._lin_entries = False
        # Single-rumor static runs carry one-bit payloads; storing them as
        # booleans shrinks the in-flight pipeline's memory traffic 8x.
        self._bool_payloads = False
        # Fault state: label-based sets (shared applier) + index mirrors.
        self._fault_state = FaultState(on_crash=self._on_crash, on_drop=self._on_edge_fault)
        self._crashed_mask = np.zeros(n, dtype=bool)
        self._dropped_keys: set[int] = set()
        self._dropped_keys_arr: Optional[np.ndarray] = None
        self._deferred_faults: list[tuple] = []
        # Reused per-round work buffers (allocation is expensive relative
        # to arithmetic on small-bandwidth hosts).
        self._acting_buffer = np.empty((reps, n), dtype=bool)
        self._draw_buffer = np.zeros((reps, n))
        # SIR recovery state, initialized lazily on first contact with the
        # "sir" gate (a run_batch under it, or one of the sir_* masks).
        self._sir_infected_at: Optional[np.ndarray] = None  # (n, reps) int64, -1 = never
        self._sir_recovered: Optional[np.ndarray] = None  # (n, reps) bool
        # Optional per-round informed-count curve for one tracked rumor.
        self._curve_rumor: Optional[Rumor] = None
        self._curve: list[np.ndarray] = []
        self._informed_cache: Optional[tuple[int, int, np.ndarray]] = None
        # Running per-replication popcount of the knowledge tensor (know
        # only changes at seeding and delivery, so the delivery delta chain
        # keeps it current without a fresh full pass per round).
        self._popcounts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # CSR snapshots and the memory guard
    # ------------------------------------------------------------------
    def _load_csr(self) -> None:
        """Materialize the current IndexedGraph snapshot as numpy arrays."""
        idx = self._idx
        self._indptr = np.asarray(idx.indptr, dtype=np.int64)
        self._indices = np.asarray(idx.indices, dtype=np.int64)
        self._latencies = np.asarray(idx.latencies, dtype=np.int64)
        self._degrees = np.diff(self._indptr)
        self._starts = self._indptr[:-1]
        if self._track_activations:  # edge ids are built lazily on CSR-direct graphs
            self._slot_edge_ids = np.asarray(idx.slot_edge_id, dtype=np.int64)
        self._set_latency_sortkey()

    def _set_latency_sortkey(self) -> None:
        """Build the radix-sortable latency copy for the per-round grouping.

        Stable argsort over int16 is O(k); graphs with latencies beyond the
        int16 range fall back to the int64 array (comparison sort).
        """
        if self._latencies.size and int(self._latencies.max()) < 32767:
            self._latencies_sortkey = self._latencies.astype(np.int16)
        else:  # pragma: no cover - latencies this large do not occur in the suite
            self._latencies_sortkey = self._latencies

    def _estimate_bytes(self, words: int) -> dict[str, int]:
        """Estimate the engine's array footprint at ``words`` knowledge words.

        Three dominant terms: the ``(n, reps, words)`` uint64 knowledge
        tensor, the CSR arrays (four int64 planes plus the int16 sort key,
        the per-edge activation counts and their ring buffers), and the
        worst-case in-flight pipeline — every (node, replication) cell
        keeps one exchange per round alive for up to the maximum edge
        latency, each carrying three index columns and two payloads.
        """
        n = self._idx.num_nodes
        reps = self.reps
        slots = int(self._indices.size)
        know = n * reps * words * 8
        csr = slots * (8 * 4 + 2) + (n + 1) * 8
        if self._track_activations:
            csr += slots * reps * 8
        max_latency = int(self._latencies.max()) if slots else 1
        pipeline = n * reps * max(1, max_latency) * (24 + 16 * words)
        return {"knowledge": know, "csr": csr, "pipeline": pipeline, "total": know + csr + pipeline}

    def _check_memory(self, words: int, action: str) -> None:
        """Raise :class:`SimulationError` when the estimate exceeds the limit."""
        estimate = self._estimate_bytes(words)
        if estimate["total"] > self._memory_limit:
            detail = ", ".join(
                f"{key}={value / 1024**3:.2f} GiB"
                for key, value in estimate.items()
                if key != "total"
            )
            raise SimulationError(
                f"{self._backend} backend refuses {action}: estimated footprint "
                f"{estimate['total'] / 1024**3:.2f} GiB ({detail}) for "
                f"n={self._idx.num_nodes}, reps={self.reps}, {words * 64} rumor bits "
                f"exceeds the {self._memory_limit / 1024**3:.2f} GiB memory limit; "
                "lower n or reps, or seed fewer rumors (all-to-all needs n^2/8 bytes "
                "per replication)"
            )

    @property
    def num_nodes(self) -> int:
        """Current number of nodes in the simulated snapshot."""
        return self._idx.num_nodes

    # ------------------------------------------------------------------
    # Seeding knowledge (identical across every replication column)
    # ------------------------------------------------------------------
    def _ensure_words(self, words: int) -> None:
        """Grow the knowledge tensor to ``words`` uint64 words (guarded)."""
        if words <= self._words:
            return
        self._check_memory(words=words, action=f"growing to {words * 64} rumor bits")
        pad = np.zeros(self._know.shape[:2] + (words - self._words,), dtype=np.uint64)
        self._know = np.concatenate([self._know, pad], axis=2)
        self._words = words

    def seed_rumor(self, origin: NodeId, payload: Any = None) -> Rumor:
        """Give ``origin`` a fresh rumor (in every replication) and return it."""
        origin_index = self._idx.index.get(origin)
        if origin_index is None:
            raise GraphError(f"node {origin!r} is not in the simulated graph")
        rumor = Rumor(origin=origin, payload=payload)
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            bit = len(self._rumors)
            self._rumor_bit[rumor] = bit
            self._rumors.append(rumor)
            self._bit_origin.append(origin_index)
            self._seeded_origins.add(origin_index)
            self._ensure_words(bit // 64 + 1)
        word, offset = divmod(bit, 64)
        self._know[origin_index, :, word] |= np.uint64(1 << offset)
        self._popcounts = None
        self._informed_cache = None
        return rumor

    def seed_all_rumors(self) -> dict[NodeId, Rumor]:
        """Give every node its own rumor (the all-to-all starting condition).

        Seeded in label order, so rumor bit ``b`` originates at node index
        ``b`` — the invariant :meth:`all_to_all_complete_mask` relies on.
        The knowledge tensor is grown once up front, so the memory guard
        fires before any per-node work.
        """
        self._ensure_words(max(1, -(-self._idx.num_nodes // 64)))
        return {node: self.seed_rumor(node) for node in self._idx.labels}

    def track_curve(self, rumor: Rumor) -> None:
        """Record per-round informed counts of ``rumor`` during :meth:`run_batch`."""
        self._curve_rumor = rumor

    # ------------------------------------------------------------------
    # Completion predicates (one boolean per replication)
    # ------------------------------------------------------------------
    def informed_counts(self, rumor: Rumor) -> np.ndarray:
        """How many nodes know ``rumor`` in each replication (raw counts).

        Memoized per (round, rumor): the completion predicate and the curve
        recorder both ask every round, and the scan is a full pass over the
        knowledge tensor.
        """
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return np.zeros(self.reps, dtype=np.int64)
        cached = self._informed_cache
        if cached is not None and cached[0] == self.round and cached[1] == bit:
            return cached[2]
        word, offset = divmod(bit, 64)
        informed = (self._know[:, :, word] & np.uint64(1 << offset)) != 0
        counts = informed.sum(axis=0)
        self._informed_cache = (self.round, bit, counts)
        return counts

    def dissemination_complete_mask(self, rumor: Rumor) -> np.ndarray:
        """Per-replication: does every non-crashed node know ``rumor``?"""
        bit = self._rumor_bit.get(rumor)
        if bit is None:
            return np.zeros(self.reps, dtype=bool)
        if self._crashed_mask.any():
            word, offset = divmod(bit, 64)
            informed = (self._know[:, :, word] & np.uint64(1 << offset)) != 0
            survivors = ~self._crashed_mask
            return informed[survivors].sum(axis=0) == int(survivors.sum())
        return self.informed_counts(rumor) == self._idx.num_nodes

    def all_to_all_complete_mask(self) -> np.ndarray:
        """Per-replication: does every survivor know a rumor from every survivor?"""
        n = self._idx.num_nodes
        if len(self._seeded_origins) < n:
            return np.zeros(self.reps, dtype=bool)
        survivors = np.nonzero(~self._crashed_mask)[0]
        mask = np.zeros(self._words, dtype=np.uint64)
        np.bitwise_or.at(
            mask,
            survivors >> 6,
            np.uint64(1) << (survivors & np.int64(63)).astype(np.uint64),
        )
        satisfied = ((self._know & mask) == mask).all(axis=2)
        return satisfied[survivors].all(axis=0)

    # ------------------------------------------------------------------
    # SIR recovery (the "sir" gate: informed nodes forget after k rounds)
    # ------------------------------------------------------------------
    def _sir_ensure(self) -> None:
        """Initialize SIR state, marking currently-informed cells infected.

        Mirrors the single-run backends: the seeded source is marked at the
        current round (round 0 when the stop mask is first evaluated before
        any step), identically in every replication column.
        """
        if self._sir_infected_at is not None:
            return
        know_any = (self._know != 0).any(axis=2)  # (n, reps)
        self._sir_infected_at = np.where(know_any, self.round, -1).astype(np.int64)
        self._sir_recovered = np.zeros(know_any.shape, dtype=bool)

    def _sir_transition(self, forget_after: int) -> None:
        """Vectorized post-delivery SIR transition across live replications.

        Frozen (completed) replications are excluded — their columns stay
        at the state the matching sequential run stopped in.  Expiry and
        marking touch disjoint (node, rep) cells, so one pass suffices.
        """
        infected_at = self._sir_infected_at
        recovered = self._sir_recovered
        know_any = (self._know != 0).any(axis=2)
        alive = ~recovered
        if self._crashed_mask.any():
            alive &= ~self._crashed_mask[:, None]
        if not self._active.all():
            alive &= self._active[None, :]
        expire = alive & (infected_at >= 0) & (self.round - infected_at >= forget_after)
        if expire.any():
            recovered[expire] = True
            self._know[expire] = 0
            self._popcounts = None
            self._informed_cache = None
        mark = alive & (infected_at < 0) & know_any
        infected_at[mark] = self.round

    def sir_ever_complete_mask(self) -> np.ndarray:
        """Per-replication: has every survivor been infected at some point?"""
        self._sir_ensure()
        ever = self._sir_infected_at >= 0
        if self._crashed_mask.any():
            ever = ever[~self._crashed_mask]
        return ever.all(axis=0)

    def sir_quiescent_mask(self) -> np.ndarray:
        """Per-replication: has the rumor died out (no infected survivor,
        no infectious payload in flight)?"""
        self._sir_ensure()
        know_any = (self._know != 0).any(axis=2)
        if self._crashed_mask.any():
            know_any = know_any[~self._crashed_mask]
        quiescent = ~know_any.any(axis=0)
        if quiescent.any() and self._due:
            inflight = np.zeros(self.reps, dtype=bool)
            for batches in self._due.values():
                for entry in batches:
                    rep_ids, payload_i, payload_j = entry[2], entry[3], entry[4]
                    if payload_i.dtype == np.bool_:
                        infectious = payload_i | payload_j
                    else:
                        infectious = (payload_i != 0) | (payload_j != 0)
                    if infectious.any():
                        inflight[rep_ids[infectious]] = True
            quiescent &= ~inflight
        return quiescent

    def sir_stats(self) -> list[dict]:
        """Per-replication survivor-side SIR tallies (frozen at completion)."""
        self._sir_ensure()
        survivors = ~self._crashed_mask
        ever = (self._sir_infected_at >= 0)[survivors].sum(axis=0)
        recovered = self._sir_recovered[survivors].sum(axis=0)
        infected = (self._know != 0).any(axis=2)[survivors].sum(axis=0)
        return [
            {
                "ever_informed": int(ever[rep]),
                "recovered": int(recovered[rep]),
                "infected": int(infected[rep]),
            }
            for rep in range(self.reps)
        ]

    # ------------------------------------------------------------------
    # Fault events (node-crash / edge-fault, via the shared applier)
    # ------------------------------------------------------------------
    def _on_crash(self, label: NodeId) -> None:
        """Mask a newly crashed node out of every replication column."""
        i = self._idx.index.get(label)
        if i is None:
            self._deferred_faults.append(("crash", label))
            return
        self._crashed_mask[i] = True
        self._mask_epoch += 1

    def _on_edge_fault(self, u: NodeId, v: NodeId) -> None:
        """Register a faulted edge as a pair of directed suppression keys."""
        iu, iv = self._idx.index.get(u), self._idx.index.get(v)
        if iu is None or iv is None:
            self._deferred_faults.append(("edge", u, v))
            return
        self._dropped_keys.add((iu << 32) | iv)
        self._dropped_keys.add((iv << 32) | iu)
        self._dropped_keys_arr = None

    def _apply_deferred_faults(self) -> None:
        """Replay fault bookkeeping parked for a mid-round CSR re-snapshot."""
        deferred, self._deferred_faults = self._deferred_faults, []
        for entry in deferred:
            if entry[0] == "crash":
                if self._idx.index.get(entry[1]) is None:
                    raise GraphError(
                        f"node-crash event names {entry[1]!r}, which is not in the simulated graph"
                    )
                self._on_crash(entry[1])
            else:
                self._on_edge_fault(entry[1], entry[2])
        if self._deferred_faults:  # still unresolved after a resync: a real bug
            raise GraphError(
                f"fault events reference nodes unknown to the engine: {self._deferred_faults!r}"
            )

    # ------------------------------------------------------------------
    # Topology changes (dynamics events and direct graph mutation)
    # ------------------------------------------------------------------
    def _begin_round(self) -> None:
        """Advance the round counter and bring the shared topology up to date."""
        self.round += 1
        severed: set = set()
        events_only = self.graph.version == self._graph_version
        if self.dynamics is not None:
            events = self.dynamics.events_for_round(self.round)
            if events:
                severed = apply_events(self.graph, events, self._fault_state)
        if self.graph.version != self._graph_version:
            self._resync_topology(severed, events_only)
        if self._deferred_faults:
            self._apply_deferred_faults()

    def _resync_topology(self, severed: set, events_only: bool) -> None:
        """Re-snapshot the CSR core after the shared graph mutated.

        Same contract as the fast backend: node indices are stable (the
        universe only grows), latency-only changes keep every slot-indexed
        structure valid, and in-flight exchanges over severed or removed
        directed pairs are dropped and counted as lost per replication.
        """
        old = self._idx
        new = self.graph.indexed()
        if new.labels[: old.num_nodes] != old.labels:
            raise GraphError(
                "nodes were removed or reordered mid-run; engines only support edge "
                "mutations and appended nodes (use a 'node-leave' dynamics event to "
                "churn a node out without deleting it)"
            )
        severed_pairs: set[tuple[int, int]] = set()
        for key in severed:
            u, v = tuple(key)
            iu, iv = old.index.get(u), old.index.get(v)
            if iu is not None and iv is not None:
                severed_pairs.add((iu, iv))
                severed_pairs.add((iv, iu))
        if np.array_equal(new.indptr, old.indptr) and np.array_equal(new.indices, old.indices):
            # Latency-only change (e.g. drift): slots line up one-to-one.
            if severed_pairs:
                self._drop_pending_over(severed_pairs)
            self._idx = new
            self._latencies = np.asarray(new.latencies, dtype=np.int64)
            self._set_latency_sortkey()
            self._graph_version = self.graph.version
            return
        self._fold_activations(old)
        added = new.num_nodes - old.num_nodes
        if added:
            def _pad(array: np.ndarray, axis: int) -> np.ndarray:
                shape = list(array.shape)
                shape[axis] = added
                return np.concatenate([array, np.zeros(shape, dtype=array.dtype)], axis=axis)

            self._know = _pad(self._know, 0)
            if self._outstanding is not None:
                self._outstanding = _pad(self._outstanding, 1)
            self._cursors = _pad(self._cursors, 1)
            self._crashed_mask = _pad(self._crashed_mask, 0)
            if self._sir_infected_at is not None:
                self._sir_infected_at = np.concatenate(
                    [self._sir_infected_at, np.full((added, self.reps), -1, dtype=np.int64)]
                )
                self._sir_recovered = _pad(self._sir_recovered, 0)
        self._acting_cache = None
        if events_only:
            removed = severed_pairs
        else:
            removed = (old.directed_pairs() - new.directed_pairs()) | severed_pairs
        if removed:
            self._drop_pending_over(removed)
        self._idx = new
        self._load_csr()
        if self._track_activations:
            self._edge_counts = np.zeros((new.num_edges, self.reps), dtype=np.int64)
        self._mask_epoch += 1
        self._graph_version = self.graph.version

    def _drop_pending_over(self, removed: set[tuple[int, int]]) -> None:
        """Drop in-flight exchanges travelling over removed directed pairs."""
        removed_keys = np.fromiter(
            ((i << 32) | j for i, j in removed), dtype=np.int64, count=len(removed)
        )
        for completes_at, batches in list(self._due.items()):
            kept: list[tuple] = []
            changed = False
            for entry in batches:
                initiators, responders, rep_ids = entry[0], entry[1], entry[2]
                if self._lin_entries:
                    initiators = initiators // self.reps
                    responders = responders // self.reps
                keys = (initiators << 32) | responders
                drop = np.isin(keys, removed_keys)
                if not drop.any():
                    kept.append(entry)
                    continue
                changed = True
                if self._outstanding is not None:
                    np.subtract.at(self._outstanding, (rep_ids[drop], initiators[drop]), 1)
                # Completed replications' leftover exchanges are already
                # drained in spirit — only live replications pay for losses.
                lost = drop & self._active[rep_ids]
                if lost.any():
                    self._lost += np.bincount(rep_ids[lost], minlength=self.reps)
                keep = ~drop
                if keep.any():
                    kept.append(tuple(part[keep] for part in entry))
            if changed:
                if kept:
                    self._due[completes_at] = kept
                else:
                    del self._due[completes_at]

    # ------------------------------------------------------------------
    # Edge-activation accounting
    # ------------------------------------------------------------------
    def _record_activations(self, slots_f: np.ndarray, reps_f: np.ndarray) -> None:
        """Park one round's (slot, rep) activation pairs in the ring buffers.

        Parked slots reference the current CSR snapshot, so the buffers are
        always flushed before a snapshot swap (:meth:`_fold_activations`).
        """
        if self._act_fill + slots_f.size > self._act_slots.size:
            self._flush_activations()
        if slots_f.size > self._act_slots.size:  # pragma: no cover - huge single round
            linear = self._slot_edge_ids[slots_f] * self.reps + reps_f
            self._edge_counts += np.bincount(
                linear, minlength=self._idx.num_edges * self.reps
            ).reshape(self._edge_counts.shape)
            return
        self._act_slots[self._act_fill : self._act_fill + slots_f.size] = slots_f
        self._act_reps[self._act_fill : self._act_fill + slots_f.size] = reps_f
        self._act_fill += slots_f.size

    def _flush_activations(self) -> None:
        """Fold the parked activation pairs into the edge-count matrix."""
        if not self._act_fill:
            return
        linear = (
            self._slot_edge_ids[self._act_slots[: self._act_fill]] * self.reps
            + self._act_reps[: self._act_fill]
        )
        counts = np.bincount(linear, minlength=self._idx.num_edges * self.reps)
        self._edge_counts += counts.reshape(self._edge_counts.shape)
        self._act_fill = 0

    def _edge_keys(self, idx) -> list[tuple[str, str]]:
        """Canonical (repr-sorted) label pair per edge id of a CSR snapshot."""
        keys: list[Optional[tuple[str, str]]] = [None] * idx.num_edges
        reprs = [repr(label) for label in idx.labels]
        sources = idx.slot_sources()
        forward = sources < idx.indices  # each edge's one i < j slot
        for edge_id, i, j in zip(
            idx.slot_edge_id[forward].tolist(),
            sources[forward].tolist(),
            idx.indices[forward].tolist(),
        ):
            first, second = reprs[i], reprs[j]
            keys[edge_id] = (first, second) if first <= second else (second, first)
        return keys  # type: ignore[return-value]

    def _fold_activations(self, idx) -> None:
        """Fold a retiring snapshot's per-edge counts into per-rep counters."""
        if not self._track_activations:
            return
        self._flush_activations()
        if not self._edge_counts.any():
            return
        keys = self._edge_keys(idx)
        for rep in range(self.reps):
            column = self._edge_counts[:, rep]
            nonzero = np.nonzero(column)[0]
            if nonzero.size:
                counter = self._folded_activations[rep]
                for edge_id in nonzero:
                    counter[keys[edge_id]] += int(column[edge_id])

    # ------------------------------------------------------------------
    # Core stepping
    # ------------------------------------------------------------------
    @staticmethod
    def _concat_batches(batches: list[tuple]) -> tuple:
        """Concatenate a round's due batches into one five-array block."""
        if len(batches) == 1:
            return batches[0]
        return tuple(np.concatenate(parts) for parts in zip(*batches))

    def _deliver_due_exchanges(self) -> None:
        """Deliver every exchange whose latency has elapsed this round.

        Exchanges belonging to replications that completed while the
        exchange was in flight are discarded here (the vectorized
        ``drain``); fault-suppressed exchanges count per replication.
        Linear entries (static non-blocking single-word runs) carry
        flattened knowledge indices; such runs have no faults and no
        outstanding counts, so only the merge reads those indices.
        """
        batches = self._due.pop(self.round, None)
        if batches is None:
            return
        initiators, responders, rep_ids, payload_i, payload_j = self._concat_batches(batches)
        if self._outstanding is not None:
            np.subtract.at(self._outstanding, (rep_ids, initiators), 1)
            if (self._outstanding < 0).any():
                raise RuntimeError(
                    "outstanding-exchange underflow: an exchange completed that was "
                    "never accounted as initiated"
                )
        if not self._active.all():
            alive = self._active[rep_ids]
            if not alive.any():
                return
            if not alive.all():
                initiators = initiators[alive]
                responders = responders[alive]
                rep_ids = rep_ids[alive]
                payload_i = payload_i[alive]
                payload_j = payload_j[alive]
        if self._crashed_mask.any() or self._dropped_keys:
            suppressed = self._crashed_mask[initiators] | self._crashed_mask[responders]
            if self._dropped_keys:
                if self._dropped_keys_arr is None:
                    self._dropped_keys_arr = np.fromiter(
                        self._dropped_keys, dtype=np.int64, count=len(self._dropped_keys)
                    )
                keys = (initiators << 32) | responders
                suppressed |= np.isin(keys, self._dropped_keys_arr)
            if suppressed.any():
                self._suppressed += np.bincount(rep_ids[suppressed], minlength=self.reps)
                delivered = ~suppressed
                initiators = initiators[delivered]
                responders = responders[delivered]
                rep_ids = rep_ids[delivered]
                payload_i = payload_i[delivered]
                payload_j = payload_j[delivered]
                if not initiators.size:
                    return
        know = self._know
        if self._popcounts is None:
            self._popcounts = np.bitwise_count(know).sum(axis=(0, 2), dtype=np.int64)
        before = self._popcounts
        if self._words == 1:
            flat = know.reshape(-1)
            if self._lin_entries:
                lin_i, lin_j = initiators, responders
            else:
                lin_i = initiators * self.reps + rep_ids
                lin_j = responders * self.reps + rep_ids
            if len(self._rumors) == 1:
                # Single-rumor runs carry one-bit payloads, so the OR-merge
                # degenerates to a duplicate-safe constant scatter.
                if payload_i.dtype == np.bool_:
                    sel_j, sel_i = payload_i, payload_j
                    sizes = payload_i.astype(np.int64)
                    sizes += payload_j
                else:
                    sel_j = payload_i != 0
                    sel_i = payload_j != 0
                    sizes = (payload_i + payload_j).astype(np.int64)
                if self._sir_infected_at is not None:
                    # Under SIR, recovered (node, rep) cells ignore the
                    # payload (the exchange still completes and is charged)
                    # — a recovered cell must never re-enter the knowledge.
                    rec_flat = self._sir_recovered.reshape(-1)
                    sel_j = sel_j & ~rec_flat[lin_j]
                    sel_i = sel_i & ~rec_flat[lin_i]
                flat[lin_j[sel_j]] = np.uint64(1)
                flat[lin_i[sel_i]] = np.uint64(1)
            else:
                np.bitwise_or.at(flat, lin_j, payload_i)
                np.bitwise_or.at(flat, lin_i, payload_j)
                sizes = (np.bitwise_count(payload_i) + np.bitwise_count(payload_j)).astype(
                    np.int64
                )
        else:
            np.bitwise_or.at(know, (responders, rep_ids), payload_i)
            np.bitwise_or.at(know, (initiators, rep_ids), payload_j)
            sizes = (
                np.bitwise_count(payload_i).sum(axis=1, dtype=np.int64)
                + np.bitwise_count(payload_j).sum(axis=1, dtype=np.int64)
            )
        if self.reps == 1:  # one column: totals, without the float-weighted bincount
            self._messages += 2 * rep_ids.size
            self._payload_sent += int(sizes.sum())
        else:
            self._messages += 2 * np.bincount(rep_ids, minlength=self.reps)
            self._payload_sent += np.bincount(
                rep_ids, weights=sizes, minlength=self.reps
            ).astype(np.int64)
        if sizes.size and int(sizes.max()) > int(self._max_payload.min()):
            np.maximum.at(self._max_payload, rep_ids, sizes)
        after = np.bitwise_count(know).sum(axis=(0, 2), dtype=np.int64)
        self._deliveries += after - before
        self._popcounts = after
        if len(self._rumors) == 1:
            # Single-rumor runs: the post-merge popcount IS the round's
            # informed count per replication (initiations never change
            # knowledge), so the completion predicate and curve reuse it.
            self._informed_cache = (self.round, 0, after)

    def _step(self, policy: BatchPolicySpec) -> None:
        """Advance every active replication by one round.

        All per-round matrices are built over the *live* replication rows
        only (``active_rows``), so late rounds — where a handful of
        straggler replications are still running — cost proportionally to
        the stragglers, not to the full batch width.
        """
        self._begin_round()
        self._deliver_due_exchanges()
        if policy.gate == "sir":
            self._sir_transition(policy.forget_after)

        n = self._idx.num_nodes
        reps = self.reps
        degrees = self._degrees
        active_rows: Optional[np.ndarray] = None
        n_rows = reps
        if not self._active.all():
            active_rows = np.nonzero(self._active)[0]
            n_rows = active_rows.size
            if not n_rows:
                return
        if self._acting_buffer.shape != (reps, n):
            self._acting_buffer = np.empty((reps, n), dtype=bool)
            self._draw_buffer = np.zeros((reps, n))
        cacheable = policy.gate == "all" and not self.blocking
        cache_key = (self._mask_epoch, n_rows, n)
        cached = self._acting_cache
        if cacheable and cached is not None and cached[0] == cache_key:
            acting, rows_f, nodes_f = cached[1], cached[2], cached[3]
        else:
            acting = self._acting_buffer[:n_rows]
            acting[:] = True
            if self.blocking:
                outstanding = (
                    self._outstanding if active_rows is None else self._outstanding[active_rows]
                )
                acting &= outstanding == 0
            if policy.gate == "sir":
                recovered = self._sir_recovered.T
                if active_rows is not None:
                    recovered = recovered[active_rows]
                acting &= ~recovered
            elif policy.gate != "all":
                informed = (self._know != 0).any(axis=2).T
                if active_rows is not None:
                    informed = informed[active_rows]
                acting &= informed if policy.gate == "informed-only" else ~informed
            if self._crashed_mask.any():
                acting &= ~self._crashed_mask[None, :]
            acting &= (degrees > 0)[None, :]
            rows_f, nodes_f = np.nonzero(acting)
            if cacheable:
                self._acting_cache = (cache_key, acting.copy(), rows_f, nodes_f)
                acting = self._acting_cache[1]

        if policy.select == "uniform-random":
            draws = self._draw_buffer[:n_rows]
            if active_rows is None:
                for rep, rng in enumerate(policy.rngs):
                    draws[rep] = rng.random(n)
            else:
                rngs = policy.rngs
                for row, rep in enumerate(active_rows.tolist()):
                    draws[row] = rngs[rep].random(n)
            offsets = uniform_slot_offsets(draws, degrees[None, :])
        else:
            cursors = self._cursors if active_rows is None else self._cursors[active_rows]
            offsets = cursors % np.maximum(degrees, 1)[None, :]
            if active_rows is None:
                self._cursors += acting
            else:
                self._cursors[active_rows] += acting

        if not nodes_f.size:
            return
        reps_f = rows_f if active_rows is None else active_rows[rows_f]
        if nodes_f.size == offsets.size:
            # Everyone acts: the (row-major) nonzero order is exactly the
            # raveled matrix order, so skip the per-entry gathers.
            offsets += self._starts[None, :]
            slots_f = offsets.ravel()
        else:
            slots_f = self._starts[nodes_f] + offsets[rows_f, nodes_f]
        if self._outstanding is not None:
            if active_rows is None:
                self._outstanding += acting
            else:
                self._outstanding[active_rows] += acting
        if self._track_activations:
            self._record_activations(slots_f, reps_f)
        if cacheable:
            if self._acting_counts is None or self._acting_counts[0] != cache_key:
                self._acting_counts = (cache_key, acting.sum(axis=1))
            counts = self._acting_counts[1]
        else:
            counts = acting.sum(axis=1)
        if active_rows is None:
            self._activations += counts
        else:
            self._activations[active_rows] += counts
        # Group the round's initiations by latency with one radix sort, then
        # hand each completion round a contiguous slice (payloads are
        # gathered in sorted order, so the slices alias one snapshot block).
        sortkeys_f = self._latencies_sortkey[slots_f]
        order = np.argsort(sortkeys_f, kind="stable")
        slots_s = slots_f[order]
        nodes_s = nodes_f[order]
        reps_s = reps_f if reps == 1 else reps_f[order]  # one column: all rep ids are 0
        latencies_s = sortkeys_f[order]
        responders_s = self._indices[slots_s]
        if self._words == 1:
            flat = self._know.reshape(-1)
            if reps == 1:  # node indices are the flattened knowledge indices
                lin_i, lin_j = nodes_s, responders_s
            else:
                lin_i = nodes_s * reps + reps_s
                lin_j = responders_s * reps + reps_s
            if self._bool_payloads:
                payload_i = flat[lin_i] != 0
                payload_j = flat[lin_j] != 0
            else:
                payload_i = flat[lin_i]
                payload_j = flat[lin_j]
        else:
            payload_i = self._know[nodes_s, reps_s]
            payload_j = self._know[responders_s, reps_s]
        if self._lin_entries:
            first, second = lin_i, lin_j
        else:
            first, second = nodes_s, responders_s
        boundaries = np.nonzero(np.diff(latencies_s))[0] + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), latencies_s.size]
        for lo, hi in zip(starts, ends):
            completes_at = self.round + int(latencies_s[lo])
            self._due.setdefault(completes_at, []).append(
                (
                    first[lo:hi],
                    second[lo:hi],
                    reps_s[lo:hi],
                    payload_i[lo:hi],
                    payload_j[lo:hi],
                )
            )

    def run_batch(
        self,
        policy: BatchPolicySpec,
        stop_mask: Callable[["BatchEngine"], np.ndarray],
        max_rounds: int = 1_000_000,
    ) -> list[SimulationMetrics]:
        """Run rounds until every replication satisfies ``stop_mask``.

        ``stop_mask`` maps the engine to a ``(reps,)`` boolean array; a
        replication whose entry turns true is frozen at the current round.
        Returns one :class:`~repro.simulation.metrics.SimulationMetrics`
        per replication, in replication order.  Raises ``RuntimeError`` if
        any replication fails to complete within ``max_rounds`` rounds,
        like the sequential backends.
        """
        if not isinstance(policy, BatchPolicySpec):
            raise TypeError(
                "BatchEngine runs BatchPolicySpec policies; see repro.simulation.protocol"
            )
        if policy.select == "uniform-random" and len(policy.rngs) != self.reps:
            raise ValueError(
                f"policy carries {len(policy.rngs)} replication rngs but the engine "
                f"runs {self.reps} replications"
            )
        self._prepare(policy)
        if self._curve_rumor is not None:
            self._curve.append(self.informed_counts(self._curve_rumor))
        self._finish(np.asarray(stop_mask(self), dtype=bool))
        while self._active.any():
            if self.round >= max_rounds:
                raise RuntimeError(
                    f"simulation did not reach the stop condition within {max_rounds} rounds"
                )
            self._step(policy)
            self._finish(np.asarray(stop_mask(self), dtype=bool))
            if self._curve_rumor is not None:
                self._curve.append(self.informed_counts(self._curve_rumor))
        keys = self._final_edge_keys()
        return [self._materialize_metrics(rep, keys) for rep in range(self.reps)]

    def _prepare(self, policy: BatchPolicySpec) -> None:
        """Validate the seeding against ``policy`` and pick the due-entry layout."""
        if policy.gate == "sir":
            if len(self._rumors) != 1:
                raise ValueError(
                    "the 'sir' gate runs single-rumor (one-to-all) tasks only; "
                    f"{len(self._rumors)} rumors are seeded"
                )
            self._sir_ensure()
        self._lin_entries = self._lin_due and self._words == 1
        self._bool_payloads = self._lin_entries and len(self._rumors) == 1

    def _finish(self, mask: np.ndarray) -> None:
        """Freeze replications whose stop predicate turned true this round."""
        newly = mask & self._active
        if newly.any():
            self._completion_round[newly] = self.round
            self._active &= ~mask
            self._mask_epoch += 1

    # ------------------------------------------------------------------
    # Per-replication materialization
    # ------------------------------------------------------------------
    def informed_curve(self, rep: int) -> list[int]:
        """The tracked rumor's informed counts per round for replication ``rep``.

        Entry ``k`` is the count after round ``k``'s deliveries and
        initiations (entry 0 is the seeded state); the curve is truncated
        at the replication's own completion round.
        """
        if self._curve_rumor is None:
            raise RuntimeError("no rumor was tracked; call track_curve() before run_batch()")
        end = int(self._completion_round[rep])
        points = self._curve if end < 0 else self._curve[: end + 1]
        return [int(counts[rep]) for counts in points]

    def _final_edge_keys(self) -> Optional[list[tuple[str, str]]]:
        """Flush parked activations; the final snapshot's keys per edge id.

        ``None`` when per-edge counters are not tracked.
        """
        if not self._track_activations:
            return None
        self._flush_activations()
        return self._edge_keys(self._idx)

    def _materialize_metrics(
        self, rep: int, keys: Optional[list[tuple[str, str]]]
    ) -> SimulationMetrics:
        """Build the reference-format metrics object of one replication.

        ``keys`` is the shared canonical label pair per edge id of the
        final CSR snapshot (computed once in :meth:`run_batch`).
        """
        metrics = SimulationMetrics()
        completion = int(self._completion_round[rep])
        metrics.rounds = completion if completion >= 0 else self.round
        if completion >= 0:
            metrics.completion_time = float(completion)
        self._fill_counters(metrics, rep)
        metrics.edge_activations = self._activation_counter(rep, keys)
        return metrics

    def _fill_counters(self, metrics: SimulationMetrics, rep: int) -> None:
        """Copy replication ``rep``'s scalar counters into ``metrics``."""
        metrics.activations = int(self._activations[rep])
        metrics.messages = int(self._messages[rep])
        metrics.rumor_deliveries = int(self._deliveries[rep])
        metrics.payload_rumors_sent = int(self._payload_sent[rep])
        metrics.max_payload_size = int(self._max_payload[rep])
        metrics.lost_exchanges = int(self._lost[rep])
        metrics.suppressed_exchanges = int(self._suppressed[rep])

    def _activation_counter(self, rep: int, keys: Optional[list[tuple[str, str]]]) -> Counter:
        """Replication ``rep``'s per-edge activation counts, keyed by label pair."""
        if keys is None:
            return Counter()
        # Zero-count entries are kept: Counter equality (3.10+) treats them
        # as absent, and building the dict without a filter stays C-speed.
        data = dict(zip(keys, self._edge_counts[:, rep].tolist()))
        folded = self._folded_activations[rep]
        if folded:
            for key, count in folded.items():
                data[key] = data.get(key, 0) + count
        return Counter(data)
