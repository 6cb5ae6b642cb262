"""The four benchmark workloads: inputs, the timed op, and output checks.

Each workload turns the run's ``--seed`` into a deterministic stream of op
inputs (``inputs(op)``), runs one op through the same public API the CLI
calls (``run(inputs)``, the only timed call), and reduces the op's output to
an :class:`OpSummary`: a fingerprint that two runs of the same inputs must
share bit for bit, the op's work units, and the problems its output checks
found.  ``oracle`` runs the expensive cross-checks once per run, on op 0.

The check functions (``check_*``) are pure functions of outputs so the
benchmark's tests can feed them wrong answers.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import astuple, dataclass, field
from typing import Any, Callable

import repro.core as core
import repro.core.bottleneck as bottleneck
import repro.scenario as scenario
import repro.store as store
from repro.analysis.calibrate import CalibrationConfig, ParamPrior
from repro.core.conductance import cut_weight_ell_conductance
from repro.graphs.cuts import cut_edges, enumerate_cuts
from repro.simulation.rng import derive_seed

# ``repro.analysis`` re-exports the ``calibrate`` function under the
# submodule's name, so reach the module itself through the import system.
calibration = importlib.import_module("repro.analysis.calibrate")

#: Set-up is the same work whatever the workload seed, so ``setup_s``
#: varies only with the machine.
WARM_UP_SEED = 0


@dataclass
class OpSummary:
    """What one op leaves behind once its (possibly large) output is dropped."""

    fingerprint: Any
    work: float
    problems: list[str] = field(default_factory=list)
    keep: Any = None


def trajectory(result: Any) -> tuple:
    """The bit-for-bit comparison key of one single run (the engines' parity key)."""
    return (result.rounds_simulated, result.time, tuple(sorted(result.metrics.as_dict().items())))


def activations_digest(result: Any) -> tuple[int, int]:
    """Order-free digest of a run's per-edge activation counter."""
    # Unary plus drops zero counts, which Counter equality ignores too.
    counter = +result.metrics.edge_activations
    return (len(counter), hash(frozenset(counter.items())))


def _without_graph_store(build: Callable[[], Any]) -> Any:
    """Run ``build`` with graph caching off, so inputs never warm the store."""
    store.configure_graph_store(enabled=False)
    try:
        return build()
    finally:
        store.configure_graph_store(enabled=True)


# ----------------------------------------------------------------------
# edge-er160k
# ----------------------------------------------------------------------
def check_edge_op(result: Any, n: int) -> list[str]:
    """A one-to-all edge run must complete with every other node informed once."""
    problems = []
    if not result.complete:
        problems.append("run did not complete")
    if result.metrics.rumor_deliveries != n - 1:
        problems.append(f"{result.metrics.rumor_deliveries} deliveries, expected {n - 1}")
    if result.details.get("engine") != "edge":
        problems.append(f"ran on engine {result.details.get('engine')!r}, not 'edge'")
    return problems


def check_edge_parity(edge_key: tuple, oracle: Any) -> list[str]:
    """The edge run must equal replication 0 of the batch engine bit for bit."""
    oracle_key = (trajectory(oracle), activations_digest(oracle))
    if edge_key != oracle_key:
        return [f"edge run {edge_key[0]} differs from batch replication 0 {oracle_key[0]}"]
    return []


class EdgeWorkload:
    """One-to-all push-pull on a fresh ER graph per op, ``engine="edge"``."""

    name = "edge-er160k"
    nodes = 160_000
    #: Every op pays a cold graph build, as a fresh ``repro-gossip run`` does.
    cold_store = True
    setup_loops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _spec(self, nodes: int, seed: int) -> Any:
        return scenario.ScenarioSpec(
            name=self.name,
            algorithm="push-pull",
            task="one-to-all",
            graph=scenario.GraphSpec("erdos-renyi", nodes, "uniform"),
            seed=seed,
            engine="edge",
        )

    def setup(self) -> None:
        # What an op pays before its trajectory: a cold graph build, the
        # CSR index and the scenario prepare at full size.  A small run
        # then warms the engine.
        store.active_graph_store().clear()
        scenario.prepare_scenario(self._spec(self.nodes, derive_seed(WARM_UP_SEED, "edge", "warm-up")))
        scenario.run_scenario(self._spec(2_000, derive_seed(WARM_UP_SEED, "edge", "warm-up")))

    def inputs(self, op: int) -> Any:
        return self._spec(self.nodes, derive_seed(self.seed, "edge", op))

    def run(self, spec: Any) -> Any:
        return scenario.run_scenario(spec)

    def summarize(self, spec: Any, result: Any) -> OpSummary:
        key = (trajectory(result), activations_digest(result))
        # A store hit: the op's own build is still resident.
        slots = 2 * scenario.build_graph(spec).num_edges
        return OpSummary(key, float(slots * result.rounds_simulated), check_edge_op(result, self.nodes))

    def oracle(self, spec: Any, summary: OpSummary) -> list[str]:
        replica = scenario.run_scenario(spec.patched({"engine": "batch"})).results[0]
        return check_edge_parity(summary.fingerprint, replica)


# ----------------------------------------------------------------------
# batch-churn-crash
# ----------------------------------------------------------------------
def alive_connected(prepared: Any) -> bool:
    """Whether every non-crashed node is reachable from the source.

    Churn is restored at the end of its horizon, but a node whose every
    path to the source runs through crashed nodes can never be informed,
    so such a draw cannot complete and is not a valid input.
    """
    crashed = set(prepared.fault_plan.node_crashes) if prepared.fault_plan else set()
    graph = prepared.graph
    seen = {prepared.source}
    stack = [prepared.source]
    while stack:
        node = stack.pop()
        for neighbor in graph.neighbors(node):
            if neighbor not in crashed and neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return len(seen) == graph.num_nodes - len(crashed)


def check_batch_op(result: Any, reps: int) -> list[str]:
    """Every replication of a replicated run must complete."""
    problems = []
    if len(result.results) != reps:
        problems.append(f"{len(result.results)} replications, expected {reps}")
    incomplete = sum(1 for row in result.results if not row.complete)
    if incomplete:
        problems.append(f"{incomplete} replications incomplete")
    return problems


def replication_key(row: Any) -> tuple:
    """Trajectory plus per-edge activations of one replication."""
    return (trajectory(row), tuple(sorted((+row.metrics.edge_activations).items())))


def check_batch_parity(batch_rows: list, fast: Any) -> list[str]:
    """The first replications must equal the sequential numpy-mode fast loop."""
    expected = [replication_key(row) for row in fast.results]
    observed = batch_rows[: len(expected)]
    if len(observed) != len(expected):
        return [f"{len(observed)} batch replications to compare, expected {len(expected)}"]
    return [
        f"replication {rep}: batch {got[0]} != fast {want[0]}"
        for rep, (got, want) in enumerate(zip(observed, expected))
        if got != want
    ]


class BatchWorkload:
    """Replicated push-pull under Markov churn and 25% crashes, ``engine="batch"``."""

    name = "batch-churn-crash"
    nodes = 512
    cold_store = True
    setup_loops = 1
    reps = 32
    parity_reps = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.base = scenario.load_named_scenario("calib-pushpull-er48")

    def _spec(self, nodes: int, reps: int, seed: int) -> Any:
        return self.base.patched(
            {
                "name": self.name,
                "graph.n": nodes,
                "graph.latency": "uniform",
                "seed": seed,
                "engine": "batch",
                "reps": reps,
            }
        )

    def _feasible(self, spec: Any) -> bool:
        return _without_graph_store(lambda: alive_connected(scenario.prepare_scenario(spec)))

    def _first_feasible(self, nodes: int, reps: int, seed: int, *labels: Any) -> Any:
        for attempt in range(100):
            spec = self._spec(nodes, reps, derive_seed(seed, "batch", *labels, attempt))
            if self._feasible(spec):
                return spec
        raise RuntimeError(f"no feasible {nodes}-node scenario for {labels} in 100 draws")

    def setup(self) -> None:
        # A cold full-size prepare (graph build, churn schedule, crash
        # plan), then a small replicated run to warm the engine.
        store.active_graph_store().clear()
        scenario.prepare_scenario(self._first_feasible(self.nodes, self.reps, WARM_UP_SEED, "warm-up"))
        scenario.run_scenario(self._first_feasible(64, 2, WARM_UP_SEED, "warm-up"))

    def inputs(self, op: int) -> Any:
        return self._first_feasible(self.nodes, self.reps, self.seed, op)

    def run(self, spec: Any) -> Any:
        return scenario.run_scenario(spec)

    def summarize(self, spec: Any, result: Any) -> OpSummary:
        rows = [replication_key(row) for row in result.results]
        curves = tuple(tuple(row.details["informed_curve"]) for row in result.results)
        return OpSummary(
            (tuple(rows), curves), float(self.reps), check_batch_op(result, self.reps), keep=rows[: self.parity_reps]
        )

    def oracle(self, spec: Any, summary: OpSummary) -> list[str]:
        fast = scenario.run_scenario(spec.patched({"engine": "fast", "reps": self.parity_reps}))
        return check_batch_parity(summary.keep, fast)


# ----------------------------------------------------------------------
# conductance-exact
# ----------------------------------------------------------------------
def oracle_profile(graph: Any) -> tuple[float, int, Any]:
    """(φ*, ℓ*, witness cut at ℓ*) from the per-cut Definition 1 formula.

    Thresholds ascend and only a strictly larger ratio (or strictly smaller
    φ_ℓ(C)) replaces the incumbent, the tie-break the library documents.
    """
    cuts = list(enumerate_cuts(graph))
    best_ratio, best_phi, best_ell = -math.inf, 0.0, 1
    for ell in graph.distinct_latencies():
        phi = min(cut_weight_ell_conductance(graph, cut, ell) for cut in cuts)
        if phi / ell > best_ratio:
            best_ratio, best_phi, best_ell = phi / ell, phi, ell
    witness, best = None, math.inf
    for cut in cuts:
        value = cut_weight_ell_conductance(graph, cut, best_ell)
        if value < best:
            witness, best = cut, value
    return best_phi, best_ell, witness


def check_theorem5_report(params: Any, report: Any) -> list[str]:
    """Theorem 5 must hold, and both exact paths must agree on (φ*, ℓ*, φ_avg)."""
    problems = []
    if not report.holds():
        problems.append(f"Theorem 5 sandwich violated: {report.as_dict()}")
    mine = (params.phi_star, params.ell_star, params.phi_avg)
    theirs = (report.phi_star, report.ell_star, report.phi_avg)
    if mine != theirs:
        problems.append(f"extract_parameters {mine} != check_theorem5 {theirs}")
    return problems


def check_critical(params: Any, oracle: tuple[float, int]) -> list[str]:
    """(φ*, ℓ*) must equal the per-cut oracle's exactly."""
    if (params.phi_star, params.ell_star) != tuple(oracle):
        return [f"(phi*, ell*) = {(params.phi_star, params.ell_star)}, oracle says {tuple(oracle)}"]
    return []


def check_upgrades(before: tuple[float, int], upgrades: list, after: list[tuple[float, int]]) -> list[str]:
    """Each suggestion's ratio ℓ*/φ* must match the oracle and never exceed the original."""
    phi, ell = before
    ratio = math.inf if phi == 0 else ell / phi
    problems = []
    for (edge, claimed), (new_phi, new_ell) in zip(upgrades, after):
        recomputed = math.inf if new_phi == 0 else new_ell / new_phi
        if claimed != recomputed:
            problems.append(f"upgrade {edge}: claimed ratio {claimed}, oracle {recomputed}")
        if recomputed > ratio:
            problems.append(f"upgrade {edge} worsens ell*/phi* from {ratio} to {recomputed}")
    if len(upgrades) != len(after):
        problems.append(f"{len(upgrades)} suggestions but {len(after)} oracle evaluations")
    return problems


def cut_threshold_pairs(nodes: int, latencies: int) -> int:
    """(cut, threshold) pairs of one exact critical-conductance evaluation."""
    return (2 ** (nodes - 1) - 1) * latencies


class ConductanceWorkload:
    """The ``conductance`` command's exact path plus one bottleneck upgrade."""

    name = "conductance-exact"
    nodes = 10
    cold_store = False
    setup_loops = 1
    upgrade_nodes = 7

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _graph(self, seed: int, nodes: int, *labels: Any) -> Any:
        for attempt in range(100):
            spec = scenario.ScenarioSpec(
                name=self.name,
                graph=scenario.GraphSpec("erdos-renyi", nodes, "uniform"),
                seed=derive_seed(seed, "conductance", *labels, attempt),
            )
            graph = _without_graph_store(lambda: scenario.build_graph(spec))
            # Conductance is zero on a disconnected graph; such a draw is not an input.
            if graph.is_connected():
                return graph
        raise RuntimeError(f"no connected {nodes}-node graph in 100 draws")

    def setup(self) -> None:
        # The command's set-up is a graph build of microseconds, so the
        # first exact evaluation at full size, which warms the kernel,
        # is most of it.
        core.extract_parameters(self._graph(WARM_UP_SEED, self.nodes, "warm-up"))

    def inputs(self, op: int) -> tuple[Any, Any]:
        return self._graph(self.seed, self.nodes, op), self._graph(self.seed, self.upgrade_nodes, op, "upgrade")

    def run(self, graphs: tuple[Any, Any]) -> tuple[Any, Any, Any]:
        graph, small = graphs
        params = core.extract_parameters(graph)
        report = core.check_theorem5(graph)
        upgrades = bottleneck.suggest_upgrades(small, budget=1)
        return params, report, upgrades

    def summarize(self, graphs: tuple[Any, Any], output: tuple[Any, Any, Any]) -> OpSummary:
        graph, small = graphs
        params, report, upgrades = output
        problems = check_theorem5_report(params, report)
        before_phi, before_ell, witness = oracle_profile(small)
        after = []
        for edge, _ratio in upgrades:
            upgraded = small.copy()
            upgraded.set_latency(edge.u, edge.v, 1)
            after.append(oracle_profile(upgraded)[:2])
        problems += check_upgrades((before_phi, before_ell), upgrades, after)
        # suggest_upgrades re-evaluates the critical profile once per slow
        # edge crossing the bottleneck cut; count those pairs from the input.
        trials = 0
        for edge in cut_edges(small, witness):
            if edge.latency > 1:
                trial = small.copy()
                trial.set_latency(edge.u, edge.v, 1)
                trials += cut_threshold_pairs(small.num_nodes, len(trial.distinct_latencies()))
        latencies = len(graph.distinct_latencies())
        pairs = (
            2 * (2 ** (graph.num_nodes - 1) - 1) * (latencies + 1)
            + cut_threshold_pairs(small.num_nodes, len(small.distinct_latencies()))
            + trials
        )
        key = (astuple(params), tuple(sorted(report.as_dict().items())), tuple((repr(e), r) for e, r in upgrades))
        return OpSummary(key, float(pairs), problems, keep=params)

    def oracle(self, graphs: tuple[Any, Any], summary: OpSummary) -> list[str]:
        phi, ell, _witness = oracle_profile(graphs[0])
        return check_critical(summary.keep, (phi, ell))


# ----------------------------------------------------------------------
# calibrate-abc
# ----------------------------------------------------------------------
def posterior_key(result: Any) -> tuple:
    """Every number a fit produces, generation by generation."""
    return (
        tuple(result.observed),
        tuple(
            (
                g.index,
                g.epsilon,
                tuple(tuple(sorted(theta.items())) for theta in g.thetas),
                tuple(g.distances),
                tuple(g.weights),
                tuple(g.attempts),
                tuple(g.accepted),
            )
            for g in result.generations
        ),
    )


def check_self_test(result: Any, truth: dict[str, float]) -> list[str]:
    """The self-test must recover every true parameter inside its 90% interval."""
    problems = []
    for path, value in truth.items():
        low, high = result.interval(path, mass=0.9)
        if not low <= value <= high:
            problems.append(f"{path}={value} outside the posterior 90% interval [{low}, {high}]")
    return problems


def check_same_posterior(first: tuple, again: tuple) -> list[str]:
    """A fit repeated from the same base seed must give a bit-identical posterior."""
    return [] if first == again else ["repeating the fit changed its posterior"]


class CalibrateWorkload:
    """One ABC-SMC self-test fit of ``calib-pushpull-er48`` through the fork pool."""

    name = "calibrate-abc"
    #: Set-up primes the pinned topology; every fit then reuses it.
    cold_store = False
    #: One set-up takes about 35 ms, too short to time alone on a shared
    #: host; each timed set-up call runs it this many times.
    setup_loops = 10
    #: Generation 0 runs exactly ``particles`` simulations, so a wide first
    #: generation keeps a fit's cost steady from seed to seed (about 6%
    #: spread at 64 x 2, against 11% at 32 x 3 and 15% at 16 x 3).
    particles = 64
    generations = 2
    reps = 16

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.base = scenario.load_named_scenario("calib-pushpull-er48")
        self.priors = (
            ParamPrior("faults.crash_fraction", 0.0, 0.6),
            ParamPrior("dynamics.0.rate", 0.0, 0.2),
        )
        self.truth = {prior.path: float(self.base.numeric_leaf(prior.path)) for prior in self.priors}
        # The pool never gets more workers than the machine has CPUs.
        self.config = CalibrationConfig(
            particles=self.particles,
            generations=self.generations,
            reps=self.reps,
            workers=min(2, os.cpu_count() or 1),
            pin_graph=True,
        )

    def setup(self) -> None:
        # The pinned topology is the fit's one graph build; a fresh store
        # makes every repetition of set-up pay it.  The warm-up simulation
        # runs in this process: every generation of a fit forks a new
        # pool, so there is no pool to warm.
        store.active_graph_store().clear()
        graph_seed = derive_seed(self.base.seed, "graph")
        scenario.build_graph(self.base, graph_seed=graph_seed)
        calibration.simulated_mean_curve(
            self.base, {}, derive_seed(WARM_UP_SEED, "warm-up"), self.reps, graph_seed=graph_seed
        )

    def inputs(self, op: int) -> int:
        return derive_seed(self.seed, "calibrate", op)

    def run(self, base_seed: int) -> Any:
        return calibration.calibrate(
            self.base, self.priors, config=self.config, base_seed=base_seed, name=self.name
        )

    def summarize(self, base_seed: int, result: Any) -> OpSummary:
        # One extra simulation produced the self-test's observed curve.
        simulations = result.total_simulations + 1
        return OpSummary(
            posterior_key(result), float(simulations * self.reps), check_self_test(result, self.truth)
        )

    def oracle(self, base_seed: int, summary: OpSummary) -> list[str]:
        return check_same_posterior(summary.fingerprint, posterior_key(self.run(base_seed)))


WORKLOADS = {
    workload.name: workload
    for workload in (EdgeWorkload, BatchWorkload, ConductanceWorkload, CalibrateWorkload)
}
