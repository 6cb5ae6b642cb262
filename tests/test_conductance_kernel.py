"""Parity of the exact conductance kernel with the per-cut formulas.

Every exact quantity in :mod:`repro.core.conductance` is read off one
vectorized scan over the cut-side table.  The per-cut ``cut_*`` functions
over :func:`enumerate_cuts` stay the oracle: the kernel must return the same
float (``==``, not approximately) and the *first* minimizing cut in
enumeration order.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import (
    average_weighted_conductance,
    check_theorem5,
    classical_conductance,
    conductance,
    critical_weighted_conductance,
    cut_average_conductance,
    cut_weight_ell_conductance,
    find_bottleneck,
    weight_ell_conductance,
    weighted_conductance_profile,
)
from repro.graphs import GraphError, WeightedGraph, clique, cycle_graph, dumbbell, star
from repro.graphs.cuts import cut_side_table, enumerate_cut_node_sets, enumerate_cuts


def oracle_min(graph: WeightedGraph, formula) -> tuple[float, object]:
    """Minimum of ``formula(cut)`` over all cuts and the first cut attaining it."""
    best, witness = math.inf, None
    for cut in enumerate_cuts(graph):
        value = formula(cut)
        if value < best:
            best, witness = value, cut
    return best, witness


def oracle_critical(graph: WeightedGraph) -> tuple[float, int, object]:
    """(φ*, ℓ*, witness): first maximal φ_ℓ/ℓ over ascending latencies."""
    best_ratio, best = -math.inf, None
    for ell in graph.distinct_latencies():
        phi, witness = oracle_min(graph, lambda cut: cut_weight_ell_conductance(graph, cut, ell))
        if phi / ell > best_ratio:
            best_ratio, best = phi / ell, (phi, ell, witness)
    return best


def random_graph(seed: int) -> WeightedGraph:
    """A small random graph with shuffled labels; may be disconnected."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    graph = WeightedGraph(labels)
    p = rng.uniform(0.2, 0.9)
    latencies = rng.choice([[1], [1, 2], [1, 3, 5, 9], [1, 2, 4, 8, 16, 64], list(range(1, 40))])
    for i, u in enumerate(labels):
        for v in labels[i + 1 :]:
            if rng.random() < p:
                graph.add_edge(u, v, rng.choice(latencies))
    if graph.num_edges == 0:
        graph.add_edge(labels[0], labels[-1], rng.choice(latencies))
    return graph


def with_isolated_node() -> WeightedGraph:
    graph = clique(4)
    graph.set_latency(0, 1, 5)
    graph.add_node(4)
    return graph


def mixed_cycle() -> WeightedGraph:
    graph = cycle_graph(8)
    for i in range(0, 8, 2):
        graph.set_latency(i, i + 1, 4)
    return graph


TIE_HEAVY = {
    "cycle": lambda: cycle_graph(8),
    "mixed-cycle": mixed_cycle,
    "dumbbell": lambda: dumbbell(4, bridge_latency=8),
    "long-dumbbell": lambda: dumbbell(3, bridge_latency=2, bridge_length=3),
    "star": lambda: star(6),
    "isolated-node": with_isolated_node,
}


def assert_matches_oracle(graph: WeightedGraph) -> None:
    latencies = graph.distinct_latencies()
    # Every threshold, plus values below, between and above the latencies.
    thresholds = sorted(set(latencies) | {1, latencies[-1] + 7} | {ell + 1 for ell in latencies})
    for ell in thresholds:
        result = weight_ell_conductance(graph, ell)
        expected = oracle_min(graph, lambda cut: cut_weight_ell_conductance(graph, cut, ell))
        assert (result.value, result.witness) == expected, ell
    average = average_weighted_conductance(graph)
    assert (average.value, average.witness) == oracle_min(graph, lambda cut: cut_average_conductance(graph, cut))
    classical = classical_conductance(graph)
    top = oracle_min(graph, lambda cut: cut_weight_ell_conductance(graph, cut, latencies[-1]))
    assert (classical.value, classical.witness) == top

    phi_star, ell_star, witness = oracle_critical(graph)
    assert critical_weighted_conductance(graph) == (phi_star, ell_star)
    profile = weighted_conductance_profile(graph)
    assert (profile.critical_phi, profile.critical_latency, profile.critical_witness) == (phi_star, ell_star, witness)
    assert profile.phi_avg == average.value
    assert profile.classical_phi == classical.value
    assert profile.phi_by_latency == {ell: weight_ell_conductance(graph, ell).value for ell in latencies}
    assert check_theorem5(graph).witness_upper == cut_average_conductance(graph, witness)
    report = find_bottleneck(graph)
    assert (report.phi_star, report.ell_star, report.cut) == (phi_star, ell_star, witness)


class TestCutSideTable:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_rows_follow_enumeration_order(self, n):
        graph = WeightedGraph(range(n))
        rows = [frozenset(side.nonzero()[0].tolist()) for side in cut_side_table(n)]
        assert rows == list(enumerate_cut_node_sets(graph))

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            cut_side_table(4)[0, 1] = True

    def test_no_cuts_below_two_nodes(self):
        assert cut_side_table(1).shape == (0, 1)


@pytest.fixture(params=[None, 5], ids=["one-block", "5-cut-blocks"])
def scan_block(request, monkeypatch):
    """Run a test with the default block size and with tiny blocks, so ties span blocks."""
    if request.param is not None:
        monkeypatch.setattr(conductance, "_SCAN_BLOCK", request.param)


class TestKernelParity:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs(self, seed, scan_block):
        assert_matches_oracle(random_graph(seed))

    @pytest.mark.parametrize("name", sorted(TIE_HEAVY))
    def test_tie_heavy_graphs(self, name, scan_block):
        assert_matches_oracle(TIE_HEAVY[name]())

    def test_two_nodes(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 3)
        assert_matches_oracle(graph)
        assert weight_ell_conductance(graph, 3).value == 1.0
        assert weight_ell_conductance(graph, 3).witness.side == frozenset({"b"})

    def test_volume_zero_side_gives_zero(self):
        graph = with_isolated_node()
        result = average_weighted_conductance(graph)
        assert result.value == 0.0
        assert cut_average_conductance(graph, result.witness) == 0.0

    def test_threshold_below_every_latency(self):
        graph = dumbbell(3, bridge_latency=8)
        for edge in graph.edge_list():
            graph.set_latency(edge.u, edge.v, edge.latency + 2)
        result = weight_ell_conductance(graph, 2)
        assert result.value == 0.0
        assert result.witness == next(enumerate_cuts(graph))

    def test_threshold_between_latencies(self):
        graph = dumbbell(3, bridge_latency=8)
        between = weight_ell_conductance(graph, 5)
        assert between == weight_ell_conductance(graph, 1)
        assert between.value == 0.0

    @pytest.mark.parametrize("ell", [0, -3])
    def test_threshold_below_one_is_rejected(self, ell):
        with pytest.raises(GraphError):
            weight_ell_conductance(cycle_graph(5), ell)

    def test_largest_exact_graph(self):
        graph = clique(18)
        result = weight_ell_conductance(graph, 1)
        # Balanced cut of K18: 9·9 crossing edges over volume 9·17.
        assert result.value == 81 / 153
        # The first balanced side in enumeration order, across many blocks.
        assert result.witness.side == frozenset(range(1, 10))
