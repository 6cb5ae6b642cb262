"""Batch-engine topology resync: dropped in-flight exchanges and folded counts.

A churned round re-snapshots the CSR core, drops the in-flight exchanges
over removed directed pairs, and folds the retiring snapshot's per-edge
activation counts away.  Both must leave every output bit-for-bit where the
per-entry reference loops left it — including the *insertion order* of each
replication's ``edge_activations`` Counter, which ``==`` ignores but
``SimulationMetrics.most_common`` breaks ties by.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs import WeightedGraph, weighted_erdos_renyi
from repro.scenario import load_named_scenario, run_scenario
from repro.simulation import (
    BatchEngine,
    BatchPolicySpec,
    PolicyCapability,
    RoundPolicySpec,
    ScheduleDynamics,
    create_engine,
    make_numpy_rng,
    replication_rngs,
)

# SHA-256 of repr(list(edge_activations.items())) plus the lost and
# suppressed counts of each replication of churn-crash-pushpull-er48 at
# reps=8, recorded from the per-entry Counter fold this engine replaced.
ORDER_DIGESTS = [
    "8bbbd0fa9ba0564ce1cd23a96d1c3853a06c1c5d89a0e33aad4b075a39921fc9",
    "aaecc789334bcb4d42c7b28c664dade6d8a7210956a7b0e39f5284ff48168e1a",
    "bb31d6afb3da03931e26f7294a9a439ff32dfaab663d5c50f70ab4f16e7c2fe5",
    "6b07ac6529acd18be7eee259dcae09cf1c3ece825960b1656e4bdf5d4e384fb7",
    "c32fa916c502494a66013022bdbea2d0fc48bad9c08413af74e12d22a0487649",
    "61b0bfe76b24bfab975de64f0a23ac1cf7de7f5193975e42e9a228ab67479740",
    "af04515af2a62411c52c2a5524c31106819fdee57ab94bc0fbb3222fd69f1589",
    "0fa5109bc8ffe0c09bbf7018ba45b443f74202ccdf0a213651d2583244293287",
]


def order_digest(metrics) -> str:
    blob = (
        repr(list(metrics.edge_activations.items()))
        + f"|{metrics.lost_exchanges}|{metrics.suppressed_exchanges}"
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_churned_batch_keeps_activation_key_order_and_loss_counts():
    spec = load_named_scenario("churn-crash-pushpull-er48").patched({"engine": "batch"})
    replicated = run_scenario(spec, reps=8)
    digests = [order_digest(row.metrics) for row in replicated.results]
    assert digests == ORDER_DIGESTS


def test_dict_built_edge_ids_follow_first_appearance_order():
    """The lazy pairing reproduces a setdefault walk over the CSR slots."""
    graph = weighted_erdos_renyi(30, 0.2, seed=4)
    idx = graph.indexed()
    edge_ids: dict[tuple[int, int], int] = {}
    expected = []
    for i, j in zip(idx.slot_sources().tolist(), idx.indices.tolist()):
        expected.append(edge_ids.setdefault((min(i, j), max(i, j)), len(edge_ids)))
    assert idx.slot_edge_id.tolist() == expected
    assert idx.num_edges == len(edge_ids)


# ----------------------------------------------------------------------
# Direct mid-run mutation: an edge removed, re-added, removed again
# ----------------------------------------------------------------------
REPS = 3
SEED = 12
TOGGLED = (0, 4)  # removed after round 8, re-added after 12, removed after 16
RETIRED = (2, 6)  # removed after round 12
LAST_ROUND = 22


def ring_with_chords() -> WeightedGraph:
    """A 12-node ring (latencies 1-3) with slow chords (latency 4)."""
    graph = WeightedGraph()
    for i in range(12):
        graph.add_edge(i, (i + 1) % 12, latency=1 + i % 3)
    for i in range(0, 12, 2):
        graph.add_edge(i, (i + 4) % 12, latency=4)
    return graph


def mutate(graph: WeightedGraph, round_no: int, stop: int) -> None:
    """The mutation schedule, applied after round ``round_no`` ran."""
    if round_no >= stop:
        return
    if round_no == 8:
        graph.remove_edge(*TOGGLED)
    elif round_no == 12:
        graph.add_edge(*TOGGLED, latency=4)
        graph.remove_edge(*RETIRED)
    elif round_no == 16:
        graph.remove_edge(*TOGGLED)


def label_key(u, v) -> tuple[str, str]:
    return tuple(sorted((repr(u), repr(v))))


def inflight_over(engine: BatchEngine, pair: tuple[int, int]) -> tuple[np.ndarray, set]:
    """Per-rep count of pending exchanges over ``pair`` (either direction),
    and the completion rounds holding them."""
    codes = np.array([(pair[0] << 32) | pair[1], (pair[1] << 32) | pair[0]], dtype=np.int64)
    per_rep = np.zeros(engine.reps, dtype=np.int64)
    rounds = set()
    for completes_at, batches in engine._due.items():
        for entry in batches:
            initiators, responders, rep_ids = entry[0], entry[1], entry[2]
            if engine._lin_entries:
                initiators, responders = initiators // engine.reps, responders // engine.reps
            hit = np.isin((initiators << 32) | responders, codes)
            if hit.any():
                per_rep += np.bincount(rep_ids[hit], minlength=engine.reps)
                rounds.add(completes_at)
    return per_rep, rounds


def batch_run(stop: int, dynamics=None):
    """Run the mutation schedule on the batch engine up to round ``stop``.

    Returns the per-rep metrics, the final graph, and the lost exchanges
    observed across the first removal next to the in-flight count over the
    removed pair just before it (plus the completion rounds holding those).
    """
    graph = ring_with_chords()
    engine = BatchEngine(graph, reps=REPS, dynamics=dynamics)
    engine.seed_rumor(0)
    policy = BatchPolicySpec(
        select="uniform-random", gate="all", rngs=tuple(replication_rngs(SEED, REPS))
    )
    probe: dict = {}

    def stop_mask(eng: BatchEngine) -> np.ndarray:
        if eng.round == 8:
            probe["expected"], probe["rounds"] = inflight_over(eng, TOGGLED)
            probe["lost_before"] = eng._lost.copy()
        elif eng.round == 9:
            probe["observed"] = eng._lost - probe["lost_before"]
        mutate(graph, eng.round, stop)
        return np.full(REPS, eng.round >= stop)

    metrics = engine.run_batch(policy, stop_mask, max_rounds=100)
    return metrics, graph, probe


def fast_run(rep: int, dynamics=None):
    """The sequential numpy-mode oracle of replication ``rep``."""
    graph = ring_with_chords()
    engine, _ = create_engine(
        graph, "fast", capability=PolicyCapability.UNIFORM_RANDOM, dynamics=dynamics
    )
    engine.seed_rumor(0)
    spec = RoundPolicySpec(
        select="uniform-random", gate="all", rng=make_numpy_rng(SEED, "rep", rep)
    )

    def stop_condition(eng) -> bool:
        mutate(graph, eng.round, LAST_ROUND)
        return eng.round >= LAST_ROUND

    return engine.run(spec, stop_condition=stop_condition, max_rounds=100)


@pytest.mark.parametrize("dynamics", [None, ScheduleDynamics({}, name="noop")])
def test_fold_across_snapshots_sums_counts_and_keeps_first_seen_order(dynamics):
    first_snapshot, _, _ = batch_run(stop=8, dynamics=dynamics)
    readded, _, _ = batch_run(stop=16, dynamics=dynamics)
    final, graph, probe = batch_run(stop=LAST_ROUND, dynamics=dynamics)
    toggled, retired = label_key(*TOGGLED), label_key(*RETIRED)
    idx = graph.indexed()
    final_keys = [None] * idx.num_edges
    for edge_id, i, j in zip(
        idx.slot_edge_id.tolist(), idx.slot_sources().tolist(), idx.indices.tolist()
    ):
        final_keys[edge_id] = label_key(idx.labels[i], idx.labels[j])
    assert toggled not in final_keys and retired not in final_keys
    initial = ring_with_chords().indexed()
    ids = {
        label_key(initial.labels[i], initial.labels[j]): edge_id
        for edge_id, i, j in zip(
            initial.slot_edge_id.tolist(),
            initial.slot_sources().tolist(),
            initial.indices.tolist(),
        )
    }
    assert ids[toggled] < ids[retired]  # first seen in the same fold, toggled first
    for rep in range(REPS):
        counter = final[rep].edge_activations
        before = first_snapshot[rep].edge_activations[toggled]
        assert before > 0 and first_snapshot[rep].edge_activations[retired] > 0
        # The re-added snapshot contributed, and its count sums onto the
        # first snapshot's under the same key.
        assert readded[rep].edge_activations[toggled] > before
        assert counter[toggled] == readded[rep].edge_activations[toggled]
        # Final-snapshot edges in edge-id order, then folded-only edges in
        # first-seen order: the re-add must not move the toggled key.
        assert list(counter) == final_keys + [toggled, retired]
        oracle = fast_run(rep, dynamics=dynamics)
        assert counter == oracle.edge_activations
        assert final[rep].as_dict() == oracle.as_dict()
    # The first removal drops exactly the exchanges pending over the pair,
    # which span several completion rounds.
    assert len(probe["rounds"]) >= 2
    assert probe["expected"].sum() > 0
    assert probe["observed"].tolist() == probe["expected"].tolist()
