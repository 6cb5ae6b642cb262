"""Unit tests for fault injection (repro.simulation.faults)."""

from __future__ import annotations

import pytest

from repro.graphs import GraphError, clique, path_graph, weighted_erdos_renyi
from repro.simulation import (
    FaultPlan,
    FaultState,
    FaultyEngine,
    GossipEngine,
    TopologyEvent,
    apply_events,
    compile_fault_plan,
    random_crash_plan,
    random_edge_drop_plan,
)
from repro.simulation.rng import make_rng

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


class TestFaultPlan:
    def test_crash_and_drop_predicates(self):
        plan = FaultPlan(node_crashes={1: 5}, edge_drops={frozenset((0, 2)): 3})
        assert not plan.is_node_crashed(1, 4)
        assert plan.is_node_crashed(1, 5)
        assert not plan.is_edge_dropped(0, 2, 2)
        assert plan.is_edge_dropped(2, 0, 3)
        assert not plan.is_edge_dropped(0, 1, 10)

    def test_surviving_nodes(self):
        graph = clique(4)
        plan = FaultPlan(node_crashes={0: 2, 1: 10})
        assert plan.surviving_nodes(graph, 5) == {1, 2, 3}

    def test_merge_takes_earliest(self):
        a = FaultPlan(node_crashes={0: 5})
        b = FaultPlan(node_crashes={0: 3, 1: 7})
        merged = a.merge(b)
        assert merged.node_crashes == {0: 3, 1: 7}

    def test_random_crash_plan_respects_fraction_and_protection(self):
        graph = clique(20)
        plan = random_crash_plan(graph, crash_fraction=0.5, crash_round=4, seed=1, protect={0})
        assert 0 not in plan.node_crashes
        assert len(plan.node_crashes) == round(0.5 * 19)
        assert all(round_number == 4 for round_number in plan.node_crashes.values())

    def test_random_crash_plan_validation(self):
        with pytest.raises(GraphError):
            random_crash_plan(clique(4), crash_fraction=1.5, crash_round=1)
        with pytest.raises(GraphError):
            random_crash_plan(clique(4), crash_fraction=0.5, crash_round=-1)

    def test_random_edge_drop_plan(self):
        graph = clique(10)
        plan = random_edge_drop_plan(graph, drop_fraction=0.2, drop_round=2, seed=3)
        assert len(plan.edge_drops) == round(0.2 * graph.num_edges)
        with pytest.raises(GraphError):
            random_edge_drop_plan(graph, drop_fraction=-0.1, drop_round=2)


class TestCompileFaultPlan:
    def test_events_land_on_their_rounds(self):
        plan = FaultPlan(
            node_crashes={1: 5, 2: 0},
            edge_drops={frozenset((0, 3)): 4},
        )
        schedule = compile_fault_plan(plan)
        assert [event.kind for event in schedule.events_for_round(5)] == ["node-crash"]
        # Round-0 faults clamp to round 1 (engines only act from round 1).
        assert schedule.events_for_round(1)[0].u == 2
        (drop,) = schedule.events_for_round(4)
        assert drop.kind == "edge-fault" and {drop.u, drop.v} == {0, 3}

    def test_canonical_event_order_is_repr_sorted(self):
        """Same plan content -> same schedule, independent of dict/frozenset
        iteration order (which varies across processes for string labels)."""
        plan_a = FaultPlan(
            node_crashes={"delta": 2, "alpha": 2},
            edge_drops={frozenset(("x", "y")): 2, frozenset(("a", "b")): 2},
        )
        plan_b = FaultPlan(
            node_crashes={"alpha": 2, "delta": 2},
            edge_drops={frozenset(("b", "a")): 2, frozenset(("y", "x")): 2},
        )
        events_a = compile_fault_plan(plan_a).events_for_round(2)
        events_b = compile_fault_plan(plan_b).events_for_round(2)
        assert events_a == events_b
        assert [event.u for event in events_a] == ["alpha", "delta", "a", "x"]

    def test_empty_plan_compiles_to_empty_schedule(self):
        schedule = compile_fault_plan(FaultPlan())
        assert schedule.horizon == 0 and schedule.num_events == 0
        assert FaultPlan().empty

    def test_plan_draws_are_cross_run_stable(self):
        graph = clique(12)
        assert (
            random_crash_plan(graph, 0.5, 2, seed=9).node_crashes
            == random_crash_plan(graph, 0.5, 2, seed=9).node_crashes
        )
        assert (
            random_edge_drop_plan(graph, 0.3, 2, seed=9).edge_drops
            == random_edge_drop_plan(graph, 0.3, 2, seed=9).edge_drops
        )


class TestFaultEvents:
    def test_fault_events_need_a_fault_state(self):
        graph = clique(4)
        with pytest.raises(ValueError, match="FaultState"):
            apply_events(graph, [TopologyEvent("node-crash", 0)])

    def test_fault_events_accumulate_without_touching_the_graph(self):
        graph = clique(4)
        version = graph.version
        faults = FaultState()
        apply_events(
            graph,
            [TopologyEvent("node-crash", 0), TopologyEvent("edge-fault", 1, 2)],
            faults,
        )
        assert graph.version == version  # no CSR resync needed
        assert graph.has_edge(1, 2)  # the edge stays; only deliveries stop
        assert faults.is_crashed(0)
        assert faults.suppresses(1, 2) and faults.suppresses(2, 1)
        assert faults.suppresses(0, 3)  # any exchange touching a crashed node
        assert not faults.suppresses(1, 3)

    def test_fault_hooks_fire_once_per_new_fault(self):
        crashes, drops = [], []
        faults = FaultState(on_crash=crashes.append, on_drop=lambda u, v: drops.append((u, v)))
        events = [
            TopologyEvent("node-crash", 0),
            TopologyEvent("edge-fault", 1, 2),
            TopologyEvent("node-crash", 0),  # repeats are no-ops
            TopologyEvent("edge-fault", 2, 1),  # same undirected edge
        ]
        apply_events(clique(4), events, faults)
        assert crashes == [0]
        assert drops == [(1, 2)]
        assert faults.crashed == {0} and faults.dropped == {frozenset((1, 2))}

    def test_edge_fault_event_requires_both_endpoints(self):
        with pytest.raises(ValueError, match="both endpoints"):
            TopologyEvent("edge-fault", 0)

    def test_fault_events_reject_unknown_nodes_on_both_backends(self):
        """A typo'd label must fail loudly — and identically — everywhere.

        Silently ignoring it (as a forgiving graph event would) would turn
        a robustness run fault-free on one backend while the other raised.
        """
        from repro.gossip import PushPullGossip, Task

        plan = FaultPlan(node_crashes={"no-such-node": 2})
        for engine in ("reference", "fast"):
            graph = clique(6)
            with pytest.raises(GraphError, match="no-such-node"):
                PushPullGossip(task=Task.ALL_TO_ALL).run(
                    graph, seed=1, engine=engine, faults=plan, max_rounds=50
                )

    def test_suppressed_exchanges_are_counted_not_messaged(self):
        graph = path_graph(2)
        engine = GossipEngine(graph, dynamics=compile_fault_plan(FaultPlan(node_crashes={1: 1})))
        engine.seed_rumor(0)
        rng = make_rng(0, "suppress")
        for _ in range(4):
            engine.step(lambda view: rng.choice(view.neighbors) if view.neighbors else None)
        assert engine.metrics.suppressed_exchanges > 0
        assert engine.metrics.messages == 0
        assert engine.metrics.activations > 0


class TestFaultyEngine:
    def test_shim_is_deprecated(self):
        with pytest.warns(DeprecationWarning, match="dynamics event pipeline"):
            FaultyEngine(clique(4), FaultPlan())

    def test_no_faults_behaves_like_plain_engine(self):
        graph = clique(8)
        rng_a, rng_b = make_rng(1, "a"), make_rng(1, "a")
        plain = GossipEngine(graph)
        plain.seed_all_rumors()
        faulty = FaultyEngine(graph, FaultPlan())
        faulty.seed_all_rumors()
        policy_a = lambda view: rng_a.choice(view.neighbors)
        policy_b = lambda view: rng_b.choice(view.neighbors)
        a = plain.run(policy_a, stop_condition=lambda e: e.all_to_all_complete(), max_rounds=500)
        b = faulty.run(policy_b, stop_condition=lambda e: e.all_to_all_complete(), max_rounds=500)
        assert a.rounds == b.rounds

    def test_crashed_node_never_learns_and_is_excluded(self):
        graph = clique(8)
        plan = FaultPlan(node_crashes={7: 1})
        engine = FaultyEngine(graph, plan)
        engine.seed_all_rumors()
        rng = make_rng(2, "crash")
        engine.run(
            lambda view: rng.choice(view.neighbors),
            stop_condition=lambda e: e.all_to_all_complete(),
            max_rounds=500,
        )
        # Node 7 crashed before exchanging anything: it knows only its own rumor.
        assert engine.knowledge[7].origins() == {7}
        # Survivors completed all-to-all among themselves.
        survivors = plan.surviving_nodes(graph, engine.round)
        for node in survivors:
            assert engine.knowledge[node].origins() >= survivors

    def test_dropped_edge_blocks_dissemination_on_a_path(self):
        graph = path_graph(4)
        plan = FaultPlan(edge_drops={frozenset((1, 2)): 0})
        engine = FaultyEngine(graph, plan)
        rumor = engine.seed_rumor(0)
        rng = make_rng(3, "drop")
        with pytest.raises(RuntimeError):
            engine.run(
                lambda view: rng.choice(view.neighbors),
                stop_condition=lambda e: all(e.knowledge[n].knows(rumor) for n in graph.nodes()),
                max_rounds=200,
            )
        assert not engine.knowledge[3].knows(rumor)

    def test_push_pull_robust_to_moderate_crashes(self):
        graph = weighted_erdos_renyi(24, 0.3, seed=4)
        plan = random_crash_plan(graph, crash_fraction=0.2, crash_round=3, seed=4)
        engine = FaultyEngine(graph, plan)
        engine.seed_all_rumors()
        rng = make_rng(4, "robust")
        metrics = engine.run(
            lambda view: rng.choice(view.neighbors),
            stop_condition=lambda e: e.all_to_all_complete(),
            max_rounds=5000,
        )
        assert metrics.completion_time is not None

    def test_exchange_in_flight_when_crash_happens_is_suppressed(self):
        graph = path_graph(2)
        graph.set_latency(0, 1, 5)
        plan = FaultPlan(node_crashes={1: 3})
        engine = FaultyEngine(graph, plan)
        rumor = engine.seed_rumor(0)
        engine.initiate_exchange(0, 1)
        for _ in range(8):
            engine.step(lambda view: None)
        # The exchange would have completed at round 5, after node 1 crashed.
        assert not engine.knowledge[1].knows(rumor)
