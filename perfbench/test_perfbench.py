"""Tests of the benchmark itself: every output check rejects a wrong answer,
tracing records spans, leaves outputs unchanged and restores the code, and
the launcher keeps the run length fixed.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from repro.scenario import GraphSpec, ScenarioSpec, build_graph, load_named_scenario, run_scenario  # noqa: E402


def small_edge_spec(seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        name="t",
        algorithm="push-pull",
        task="one-to-all",
        graph=GraphSpec("erdos-renyi", 300, "uniform"),
        seed=seed,
        engine="edge",
    )


def small_graph(nodes: int, seed: int):
    return build_graph(ScenarioSpec(name="t", graph=GraphSpec("erdos-renyi", nodes, "uniform"), seed=seed))


# ----------------------------------------------------------------------
# edge-er160k
# ----------------------------------------------------------------------
def test_edge_op_check_accepts_a_complete_run_and_rejects_broken_ones():
    result = run_scenario(small_edge_spec())
    assert workloads.check_edge_op(result, 300) == []
    assert workloads.check_edge_op(result, 301)  # one node never informed
    incomplete = dataclasses.replace(result, complete=False)
    assert workloads.check_edge_op(incomplete, 300)
    wrong_engine = dataclasses.replace(result, details={"engine": "fast"})
    assert workloads.check_edge_op(wrong_engine, 300)


def test_edge_parity_check_accepts_batch_replica_and_rejects_another_seed():
    spec = small_edge_spec()
    edge = run_scenario(spec)
    key = (workloads.trajectory(edge), workloads.activations_digest(edge))
    replica = run_scenario(spec.patched({"engine": "batch"})).results[0]
    assert workloads.check_edge_parity(key, replica) == []
    other = run_scenario(spec.patched({"engine": "batch", "seed": 4})).results[0]
    assert workloads.check_edge_parity(key, other)


# ----------------------------------------------------------------------
# batch-churn-crash
# ----------------------------------------------------------------------
def batch_spec() -> ScenarioSpec:
    return load_named_scenario("calib-pushpull-er48").patched({"engine": "batch", "reps": 4})


def test_batch_op_check_rejects_missing_or_incomplete_replications():
    result = run_scenario(batch_spec())
    assert workloads.check_batch_op(result, 4) == []
    assert workloads.check_batch_op(result, 5)
    result.results[1] = dataclasses.replace(result.results[1], complete=False)
    assert workloads.check_batch_op(result, 4)


def test_batch_parity_check_accepts_fast_loop_and_rejects_reordered_rows():
    spec = batch_spec()
    rows = [workloads.replication_key(row) for row in run_scenario(spec).results]
    fast = run_scenario(spec.patched({"engine": "fast", "reps": 2}))
    assert workloads.check_batch_parity(rows, fast) == []
    assert workloads.check_batch_parity(rows[1:], fast)
    assert workloads.check_batch_parity(rows[:1], fast)


def test_alive_connected_detects_a_node_cut_off_by_crashes():
    from repro.scenario import prepare_scenario

    prepared = prepare_scenario(batch_spec())
    assert workloads.alive_connected(prepared)
    source_neighbors = prepared.graph.neighbors(prepared.source)
    victim = next(node for node in prepared.graph.nodes() if node != prepared.source and node not in source_neighbors)
    crashed = dict(prepared.fault_plan.node_crashes)
    crashed.update({neighbor: 2 for neighbor in prepared.graph.neighbors(victim)})
    crashed.pop(victim, None)
    cut_off = dataclasses.replace(prepared, fault_plan=dataclasses.replace(prepared.fault_plan, node_crashes=crashed))
    assert not workloads.alive_connected(cut_off)


# ----------------------------------------------------------------------
# conductance-exact
# ----------------------------------------------------------------------
def test_critical_check_matches_the_per_cut_oracle_and_rejects_other_values():
    import repro.core as core

    graph = small_graph(7, 1)
    params = core.extract_parameters(graph)
    phi, ell, witness = workloads.oracle_profile(graph)
    assert witness is not None
    assert workloads.check_critical(params, (phi, ell)) == []
    assert workloads.check_critical(dataclasses.replace(params, phi_star=params.phi_star * 1.5), (phi, ell))
    assert workloads.check_critical(dataclasses.replace(params, ell_star=params.ell_star + 1), (phi, ell))


def test_theorem5_check_rejects_a_violated_sandwich_and_disagreeing_paths():
    import repro.core as core

    graph = small_graph(7, 2)
    params = core.extract_parameters(graph)
    report = core.check_theorem5(graph)
    assert workloads.check_theorem5_report(params, report) == []
    assert workloads.check_theorem5_report(params, dataclasses.replace(report, phi_avg=report.upper * 2))
    assert workloads.check_theorem5_report(dataclasses.replace(params, phi_avg=params.phi_avg / 2), report)


def test_upgrade_check_rejects_a_worsening_or_misreported_suggestion():
    import repro.core.bottleneck as bottleneck

    graph = small_graph(6, 5)
    before = workloads.oracle_profile(graph)[:2]
    upgrades = bottleneck.suggest_upgrades(graph, budget=1)
    assert upgrades
    edge, ratio = upgrades[0]
    upgraded = graph.copy()
    upgraded.set_latency(edge.u, edge.v, 1)
    after = [workloads.oracle_profile(upgraded)[:2]]
    assert workloads.check_upgrades(before, upgrades, after) == []
    assert workloads.check_upgrades(before, [(edge, ratio + 1.0)], after)
    worse = [(before[0] / 2, before[1])]
    assert workloads.check_upgrades(before, [(edge, before[1] / (before[0] / 2))], worse)


def test_cut_threshold_pairs_counts_every_proper_cut():
    assert workloads.cut_threshold_pairs(3, 2) == 3 * 2
    assert workloads.cut_threshold_pairs(10, 1) == 511


# ----------------------------------------------------------------------
# calibrate-abc
# ----------------------------------------------------------------------
def fake_fit(low: float, high: float):
    generation = SimpleNamespace(
        index=0, epsilon=1.0, thetas=[{"x": low}, {"x": high}], distances=[0.1, 0.2],
        weights=[0.5, 0.5], attempts=[1, 1], accepted=[True, True],
    )
    return SimpleNamespace(
        observed=[1.0, 2.0],
        generations=[generation],
        interval=lambda path, mass=0.9: (low, high),
    )


def test_self_test_check_rejects_a_truth_outside_the_interval():
    assert workloads.check_self_test(fake_fit(0.1, 0.3), {"x": 0.25}) == []
    assert workloads.check_self_test(fake_fit(0.3, 0.5), {"x": 0.25})


def test_same_posterior_check_rejects_any_changed_number():
    first = workloads.posterior_key(fake_fit(0.1, 0.3))
    assert workloads.check_same_posterior(first, workloads.posterior_key(fake_fit(0.1, 0.3))) == []
    assert workloads.check_same_posterior(first, workloads.posterior_key(fake_fit(0.1, 0.30000001)))


# ----------------------------------------------------------------------
# The span recorder
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        tracer.Span(0, "op", 0.0, 10.0, None, 0),
        tracer.Span(1, "a", 1.0, 6.0, 0, 0),
        tracer.Span(2, "b", 2.0, 3.0, 1, 0),
        tracer.Span(3, "a", 7.0, 8.0, 0, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {0: 4.0, 1: 4.0, 2: 1.0, 3: 1.0}
    assert tracer.total_s(spans, "a") == 6.0
    assert tracer.self_s(spans, "a") == 5.0
    assert tracer.unattributed_s(spans) == 4.0


def test_outermost_skips_spans_nested_under_the_same_name():
    spans = [
        tracer.Span(0, "a", 0.0, 4.0, None, 0),
        tracer.Span(1, "x", 1.0, 3.0, 0, 0),
        tracer.Span(2, "a", 1.5, 2.5, 1, 0),
    ]
    assert [span.span_id for span in tracer.outermost(spans, "a")] == [0]


def test_instrumentation_traces_layers_keeps_outputs_and_restores_code():
    import repro.gossip.base as base
    import repro.scenario as scenario
    import repro.simulation.edge_engine as edge_engine

    tracer.import_layers()
    originals = (
        scenario.prepare_scenario,
        base.require_connected,
        edge_engine.EdgeEngine.__dict__["run"],
        dict(scenario.GRAPH_FAMILIES),
    )
    spec = small_edge_spec(7)
    untraced = run_scenario(spec)
    recorder = tracer.SpanRecorder()
    with tracer.Instrumentation(recorder):
        assert scenario.prepare_scenario is not originals[0]
        span = recorder.begin_op(0)
        traced = run_scenario(spec)
        recorder.end_op(span)
    assert (
        scenario.prepare_scenario,
        base.require_connected,
        edge_engine.EdgeEngine.__dict__["run"],
        dict(scenario.GRAPH_FAMILIES),
    ) == originals
    assert workloads.trajectory(traced) == workloads.trajectory(untraced)
    names = {span.name for span in recorder.spans}
    assert {"op", "scenario.prepare", "gossip.run", "simulation.edge_engine.run", "simulation.edge_engine.step"} <= names
    times = tracer.op_times(recorder, 0)
    assert times["simulation.edge_engine.step_s"] > 0
    assert times["trace.unattributed_s"] >= 0
    assert recorder.counters[(0, "simulation.edge_engine.rounds")] == traced.rounds_simulated


def test_instrumentation_restores_code_when_the_op_raises():
    import repro.scenario as scenario

    tracer.import_layers()
    original = scenario.prepare_scenario
    with pytest.raises(ZeroDivisionError):
        with tracer.Instrumentation(tracer.SpanRecorder()):
            1 / 0
    assert scenario.prepare_scenario is original


def test_launcher_refuses_a_run_length_other_than_benchmark_json(capsys):
    import run

    assert run.main(["--workload", "conductance-exact", "--seconds", str(run.run_seconds() + 1)]) == 2
    assert "differs from run_seconds" in capsys.readouterr().err
