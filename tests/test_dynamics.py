"""Tests for the dynamic-topology subsystem.

Covers the event model and schedules (:mod:`repro.simulation.dynamics`),
the deterministic generators (:mod:`repro.graphs.dynamics`), and — most
importantly — the cross-backend contract: a seeded schedule produces
bit-identical per-round informed counts on ``engine="reference"`` and
``engine="fast"``, a no-op schedule reproduces the static run exactly, and
direct graph mutation mid-run is either safely resynchronized (edges,
appended nodes) or rejected loudly (node removal) instead of silently
serving a stale CSR snapshot.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip import FloodingGossip, PushPullGossip, SpannerBroadcast, Task
from repro.graphs import (
    markov_churn,
    path_graph,
    periodic_latency_drift,
    slow_bridge_flapping,
    two_cluster_slow_bridge,
    weighted_erdos_renyi,
)
from repro.graphs.weighted_graph import GraphError
from repro.simulation import (
    ComposedDynamics,
    PolicyCapability,
    RoundPolicySpec,
    ScheduleDynamics,
    TopologyEvent,
    apply_events,
    create_engine,
    make_rng,
)


def _bridge_graph():
    return two_cluster_slow_bridge(5, fast_latency=1, slow_latency=8, bridges=1)


def _er_graph():
    return weighted_erdos_renyi(24, 0.25, seed=7)


def _trace(graph, backend, schedule, policy_seed=11, select="uniform-random", max_rounds=5000):
    """Step one engine to completion; return (informed counts, metrics)."""
    engine, _ = create_engine(
        graph, backend, capability=PolicyCapability.UNIFORM_RANDOM, dynamics=schedule
    )
    rumor = engine.seed_rumor(graph.nodes()[0])
    rng = make_rng(policy_seed, "dyn-test") if select == "uniform-random" else None
    spec = RoundPolicySpec(select=select, rng=rng)
    counts = [len(engine.informed_nodes(rumor))]
    while not engine.dissemination_complete(rumor):
        assert engine.round < max_rounds, "run did not complete"
        engine.step(spec)
        counts.append(len(engine.informed_nodes(rumor)))
    return counts, engine.metrics


# ----------------------------------------------------------------------
# Event model and schedules
# ----------------------------------------------------------------------
class TestEventModel:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            TopologyEvent("teleport", 0)
        with pytest.raises(ValueError):
            TopologyEvent("remove-edge", 0)  # missing second endpoint
        with pytest.raises(ValueError):
            TopologyEvent("add-edge", 0, 1)  # missing latency
        with pytest.raises(ValueError):
            TopologyEvent("set-latency", 0, 1, latency=0)

    def test_forgiving_application(self):
        graph = path_graph(4)
        apply_events(
            graph,
            [
                TopologyEvent("remove-edge", 0, 3),  # absent: no-op
                TopologyEvent("remove-edge", 0, 1),
                TopologyEvent("remove-edge", 0, 1),  # already gone: no-op
                TopologyEvent("add-edge", 1, 2, latency=5),  # present: retune latency
                TopologyEvent("set-latency", 0, 1, latency=9),  # absent: no-op
            ],
        )
        assert not graph.has_edge(0, 1)
        assert graph.latency(1, 2) == 5

    def test_node_leave_and_join(self):
        graph = path_graph(4)
        apply_events(graph, [TopologyEvent("node-leave", 1)])
        assert graph.degree(1) == 0
        assert graph.has_node(1)
        apply_events(graph, [TopologyEvent("node-join", 1, edges=((0, 1), (2, 1)))])
        assert sorted(graph.neighbors(1)) == [0, 2]

    def test_schedule_validation_and_lookup(self):
        event = TopologyEvent("remove-edge", 0, 1)
        schedule = ScheduleDynamics({3: [event], 5: []}, name="demo")
        assert schedule.events_for_round(3) == (event,)
        assert schedule.events_for_round(4) == ()
        assert schedule.horizon == 3  # the empty round-5 entry is dropped
        assert schedule.num_events == 1
        assert str(schedule) == "demo"
        with pytest.raises(ValueError):
            ScheduleDynamics({0: [event]})

    def test_composed_dynamics_concatenates_in_order(self):
        first = ScheduleDynamics({1: [TopologyEvent("remove-edge", 0, 1)]}, name="a")
        second = ScheduleDynamics({1: [TopologyEvent("add-edge", 0, 1, latency=2)]}, name="b")
        composed = ComposedDynamics([first, second])
        assert [event.kind for event in composed.events_for_round(1)] == ["remove-edge", "add-edge"]
        assert str(composed) == "a+b"


# ----------------------------------------------------------------------
# Deterministic generators
# ----------------------------------------------------------------------
class TestGenerators:
    def test_markov_churn_is_deterministic(self):
        schedules = [
            markov_churn(_bridge_graph(), horizon=50, leave_prob=0.1, rejoin_prob=0.3, seed=4)
            for _ in range(2)
        ]
        rounds = range(1, 51)
        assert [schedules[0].events_for_round(r) for r in rounds] == [
            schedules[1].events_for_round(r) for r in rounds
        ]
        different = markov_churn(
            _bridge_graph(), horizon=50, leave_prob=0.1, rejoin_prob=0.3, seed=5
        )
        assert any(
            schedules[0].events_for_round(r) != different.events_for_round(r) for r in rounds
        )

    def test_markov_churn_respects_protect_and_restores_at_horizon(self):
        graph = _bridge_graph()
        protected = graph.nodes()[0]
        schedule = markov_churn(
            graph, horizon=30, leave_prob=0.5, rejoin_prob=0.1, seed=2, protect=(protected,)
        )
        replay = graph.copy()
        for round_number in range(1, 31):
            for event in schedule.events_for_round(round_number):
                assert event.u != protected
            apply_events(replay, list(schedule.events_for_round(round_number)))
        assert replay == graph  # horizon restores the original topology

    def test_latency_drift_bounds_and_restoration(self):
        graph = _bridge_graph()
        schedule = periodic_latency_drift(graph, horizon=64, amplitude=0.9, period=16, seed=3)
        base = {frozenset((e.u, e.v)): e.latency for e in graph.edge_list()}
        replay = graph.copy()
        seen_events = 0
        for round_number in range(1, 65):
            events = schedule.events_for_round(round_number)
            seen_events += len(events)
            for event in events:
                assert event.kind == "set-latency"
                assert event.latency >= 1
                assert event.latency <= round(base[frozenset((event.u, event.v))] * 1.9)
            apply_events(replay, events)
        assert seen_events > 0
        assert schedule.events_for_round(65) == ()  # past the horizon
        assert replay == graph  # the horizon settles every edge back at base

    def test_drift_self_heals_after_churn_restores_base_latency(self):
        """A churn rejoin at base latency must snap back onto the drift curve.

        Regression: the drift schedule used to emit only value *transitions*,
        so an edge restored at base latency by a ``node-join`` silently sat
        off the documented formula until the sinusoid next moved.
        """
        graph = path_graph(2)
        graph.set_latency(0, 1, 16)
        drift = periodic_latency_drift(graph, horizon=40, amplitude=0.5, period=16, seed=1)
        churn_like = ScheduleDynamics(
            {
                5: [TopologyEvent("node-leave", 1)],
                9: [TopologyEvent("node-join", 1, edges=((0, 16),))],
            },
            name="leave-rejoin",
        )
        churned = graph.copy()
        pure = graph.copy()
        composed = ComposedDynamics([churn_like, drift])
        for round_number in range(1, 13):
            apply_events(churned, composed.events_for_round(round_number))
            apply_events(pure, drift.events_for_round(round_number))
        # From the rejoin round on, the churned edge must match the edge
        # that only ever drifted.
        assert churned.latency(0, 1) == pure.latency(0, 1)

    def test_bridge_flapping_targets_slowest_edge(self):
        graph = _bridge_graph()
        slowest = max(graph.edge_list(), key=lambda e: e.latency)
        schedule = slow_bridge_flapping(graph, horizon=40, period=10)
        touched = {
            frozenset((event.u, event.v))
            for r in range(1, 41)
            for event in schedule.events_for_round(r)
        }
        assert touched == {frozenset((slowest.u, slowest.v))}
        replay = graph.copy()
        for round_number in range(1, 41):
            apply_events(replay, list(schedule.events_for_round(round_number)))
        assert replay == graph  # the bridge ends restored at its base latency


# ----------------------------------------------------------------------
# Cross-backend parity (the acceptance criterion)
# ----------------------------------------------------------------------
def _schedule_for(name, graph):
    if name == "churn":
        return markov_churn(graph, horizon=60, leave_prob=0.08, rejoin_prob=0.35, seed=13)
    if name == "drift":
        return periodic_latency_drift(graph, horizon=60, amplitude=0.6, period=12, seed=13)
    if name == "flap":
        return slow_bridge_flapping(graph, horizon=60, period=8)
    return ComposedDynamics(
        [
            markov_churn(graph, horizon=60, leave_prob=0.08, rejoin_prob=0.35, seed=13),
            periodic_latency_drift(graph, horizon=60, amplitude=0.6, period=12, seed=13),
        ]
    )


class TestBackendParity:
    @pytest.mark.parametrize("scenario", ["churn", "drift", "flap", "churn+drift"])
    @pytest.mark.parametrize("builder", [_bridge_graph, _er_graph])
    def test_informed_counts_identical_across_backends(self, scenario, builder):
        reference_counts, reference_metrics = _trace(
            builder(), "reference", _schedule_for(scenario, builder())
        )
        fast_counts, fast_metrics = _trace(builder(), "fast", _schedule_for(scenario, builder()))
        assert fast_counts == reference_counts
        assert fast_metrics.rounds == reference_metrics.rounds
        assert fast_metrics.activations == reference_metrics.activations
        assert fast_metrics.messages == reference_metrics.messages
        assert fast_metrics.lost_exchanges == reference_metrics.lost_exchanges

    def test_round_robin_parity_under_churn(self):
        reference_counts, _ = _trace(
            _er_graph(), "reference", _schedule_for("churn", _er_graph()), select="round-robin"
        )
        fast_counts, _ = _trace(
            _er_graph(), "fast", _schedule_for("churn", _er_graph()), select="round-robin"
        )
        assert fast_counts == reference_counts

    def test_algorithm_run_parity_under_dynamics(self):
        results = {}
        for backend in ("reference", "fast"):
            graph = _er_graph()
            schedule = _schedule_for("churn+drift", graph)
            results[backend] = PushPullGossip(task=Task.ONE_TO_ALL).run(
                graph, source=graph.nodes()[0], seed=3, engine=backend, dynamics=schedule
            )
        fast, reference = results["fast"], results["reference"]
        assert fast.time == reference.time
        assert fast.rounds_simulated == reference.rounds_simulated
        assert fast.metrics.lost_exchanges == reference.metrics.lost_exchanges
        assert fast.metrics.edge_activations == reference.metrics.edge_activations
        assert fast.details["dynamics"] == reference.details["dynamics"]


# ----------------------------------------------------------------------
# Lost-exchange semantics
# ----------------------------------------------------------------------
class TestLostExchanges:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_removal_drops_in_flight_exchange(self, backend):
        """An exchange over a removed edge never delivers and is counted."""
        graph = path_graph(2)
        graph.set_latency(0, 1, 5)
        schedule = ScheduleDynamics(
            {3: [TopologyEvent("remove-edge", 0, 1)], 7: [TopologyEvent("add-edge", 0, 1, latency=1)]},
            name="cut",
        )
        engine, _ = create_engine(
            graph, backend, capability=PolicyCapability.UNIFORM_RANDOM, dynamics=schedule
        )
        rumor = engine.seed_rumor(0)
        spec = RoundPolicySpec(select="round-robin")
        for _ in range(6):
            engine.step(spec)
        # Rounds 1-2 initiated two latency-5 exchanges from node 0 (node 1,
        # uninformed, also gossips but delivery is what we track); the
        # removal at round 3 must cancel everything in flight.
        assert not engine.dissemination_complete(rumor)
        assert engine.metrics.lost_exchanges > 0
        for _ in range(4):
            if engine.dissemination_complete(rumor):
                break
            engine.step(spec)
        assert engine.dissemination_complete(rumor)  # via the re-added fast edge

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_same_round_remove_and_readd_still_drops(self, backend):
        """Re-adding a removed edge within the same round does not resurrect.

        The round's *net* topology change is nil (and with a single edge the
        CSR layout is bit-identical too), so this pins the contract that
        drops follow the events actually applied, not the net diff.
        """
        graph = path_graph(2)
        graph.set_latency(0, 1, 5)
        schedule = ScheduleDynamics(
            {
                3: [
                    TopologyEvent("remove-edge", 0, 1),
                    TopologyEvent("add-edge", 0, 1, latency=5),
                ]
            },
            name="same-round-flap",
        )
        engine, _ = create_engine(
            graph, backend, capability=PolicyCapability.UNIFORM_RANDOM, dynamics=schedule
        )
        rumor = engine.seed_rumor(0)
        spec = RoundPolicySpec(select="round-robin")
        for _ in range(6):
            engine.step(spec)
        # The latency-5 exchanges initiated in rounds 1-2 would deliver at
        # rounds 6-7; the round-3 flap must have cancelled them.
        assert engine.metrics.lost_exchanges > 0
        assert not engine.dissemination_complete(rumor)

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_same_round_flap_drops_when_adjacency_order_changes(self, backend):
        """Same contract when the re-add lands at a different adjacency slot.

        On ``path_graph(3)`` re-adding ``{0, 1}`` moves it behind ``{1, 2}``
        in node 1's adjacency, so the fast backend takes the full re-snapshot
        route rather than the layout-identical shortcut.
        """
        graph = path_graph(3)
        graph.set_latency(0, 1, 6)
        graph.set_latency(1, 2, 6)
        schedule = ScheduleDynamics(
            {
                2: [
                    TopologyEvent("remove-edge", 0, 1),
                    TopologyEvent("add-edge", 0, 1, latency=6),
                ]
            },
            name="reordering-flap",
        )
        engine, _ = create_engine(
            graph, backend, capability=PolicyCapability.UNIFORM_RANDOM, dynamics=schedule
        )
        engine.seed_rumor(0)
        spec = RoundPolicySpec(select="round-robin")
        for _ in range(2):
            engine.step(spec)
        assert engine.metrics.lost_exchanges > 0

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_drift_does_not_affect_in_flight_exchanges(self, backend):
        """A latency change applies to future initiations only."""
        graph = path_graph(2)
        graph.set_latency(0, 1, 4)
        schedule = ScheduleDynamics(
            {2: [TopologyEvent("set-latency", 0, 1, latency=50)]}, name="slowdown"
        )
        engine, _ = create_engine(
            graph, backend, capability=PolicyCapability.UNIFORM_RANDOM, dynamics=schedule
        )
        rumor = engine.seed_rumor(0)
        spec = RoundPolicySpec(select="round-robin")
        for _ in range(5):
            engine.step(spec)
        # The round-1 exchange was initiated at latency 4 and must deliver
        # at round 5 even though the edge now has latency 50.
        assert engine.dissemination_complete(rumor)
        assert engine.metrics.lost_exchanges == 0


# ----------------------------------------------------------------------
# No-op schedule == static run (hypothesis property)
# ----------------------------------------------------------------------
class TestNoOpSchedule:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        n=st.integers(min_value=4, max_value=24),
        backend=st.sampled_from(["reference", "fast"]),
    )
    def test_noop_schedule_reproduces_static_run(self, seed, n, backend):
        """An empty schedule must not perturb the trajectory in any way."""
        static_counts, static_metrics = _trace(
            weighted_erdos_renyi(n, 0.4, seed=seed), backend, None, policy_seed=seed
        )
        noop_counts, noop_metrics = _trace(
            weighted_erdos_renyi(n, 0.4, seed=seed),
            backend,
            ScheduleDynamics({}, name="noop"),
            policy_seed=seed,
        )
        assert noop_counts == static_counts
        assert noop_metrics.as_dict() == static_metrics.as_dict()
        assert noop_metrics.edge_activations == static_metrics.edge_activations


# ----------------------------------------------------------------------
# Direct mutation mid-run: safe resync or loud failure (bugfix)
# ----------------------------------------------------------------------
class TestMidRunMutation:
    @pytest.mark.parametrize("backend", ["reference", "fast", "edge"])
    def test_edge_removal_between_steps_is_resynced(self, backend):
        """The engine must not serve pre-mutation adjacency from a stale cache."""
        graph = path_graph(3)
        engine, _ = create_engine(graph, backend, capability=PolicyCapability.UNIFORM_RANDOM)
        rumor = engine.seed_rumor(0)
        spec = RoundPolicySpec(select="round-robin")
        engine.step(spec)
        graph.remove_edge(1, 2)
        for _ in range(5):
            engine.step(spec)
        # Node 2 is unreachable after the cut: nothing may deliver to it.
        assert len(engine.informed_nodes(rumor)) <= 2
        graph.add_edge(1, 2, latency=1)
        for _ in range(5):
            engine.step(spec)
        assert engine.dissemination_complete(rumor)

    @pytest.mark.parametrize("backend", ["reference", "fast", "edge"])
    def test_node_removal_between_steps_raises(self, backend):
        graph = path_graph(4)
        engine, _ = create_engine(graph, backend, capability=PolicyCapability.UNIFORM_RANDOM)
        engine.seed_rumor(0)
        spec = RoundPolicySpec(select="round-robin")
        engine.step(spec)
        graph.remove_node(3)
        with pytest.raises(GraphError, match="removed"):
            engine.step(spec)

    @pytest.mark.parametrize("backend", ["reference", "fast", "edge"])
    def test_appended_node_between_steps_is_adopted(self, backend):
        graph = path_graph(3)
        engine, _ = create_engine(graph, backend, capability=PolicyCapability.UNIFORM_RANDOM)
        rumor = engine.seed_rumor(0)
        spec = RoundPolicySpec(select="round-robin")
        engine.step(spec)
        graph.add_edge(2, 3, latency=1)  # a brand-new node joins the network
        for _ in range(8):
            engine.step(spec)
        assert engine.dissemination_complete(rumor)
        assert 3 in engine.informed_nodes(rumor)


# ----------------------------------------------------------------------
# Surface: algorithm knob and metric plumbing
# ----------------------------------------------------------------------
class TestSurface:
    def test_unsupported_algorithm_rejects_dynamics(self):
        graph = _er_graph()
        schedule = ScheduleDynamics({}, name="noop")
        with pytest.raises(GraphError, match="does not support topology dynamics"):
            SpannerBroadcast().run(graph, dynamics=schedule)

    def test_local_broadcast_task_rejects_dynamics(self):
        """Churn makes the local-broadcast predicate vacuously easier.

        The predicate is relative to each node's current neighbour set, so
        a churned-out node would count as complete without ever hearing
        from the neighbours of the settled topology — reject loudly.
        """
        from repro.gossip import PushPullGossip, RandomizedLocalBroadcast

        graph = _er_graph()
        schedule = ScheduleDynamics({}, name="noop")
        with pytest.raises(GraphError, match="local broadcast"):
            RandomizedLocalBroadcast().run(graph, dynamics=schedule)
        with pytest.raises(GraphError, match="local broadcast"):
            PushPullGossip(task=Task.LOCAL_BROADCAST).run(graph, dynamics=schedule)

    def test_flooding_reports_dynamics_details(self):
        graph = _bridge_graph()
        schedule = markov_churn(graph, horizon=40, leave_prob=0.1, rejoin_prob=0.4, seed=6)
        result = FloodingGossip(task=Task.ONE_TO_ALL).run(
            graph, source=graph.nodes()[0], seed=6, dynamics=schedule
        )
        assert result.complete
        assert result.details["dynamics"] == str(schedule)
        assert result.details["lost_exchanges"] == result.metrics.lost_exchanges

    def test_lost_exchanges_round_trips_through_as_dict_and_merge(self):
        from repro.simulation import SimulationMetrics

        first, second = SimulationMetrics(), SimulationMetrics()
        first.record_lost(2)
        second.record_lost(3)
        first.merge(second)
        assert first.lost_exchanges == 5
        assert first.as_dict()["lost_exchanges"] == 5
