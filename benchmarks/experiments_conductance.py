"""Experiments about the weighted-conductance definitions and structures.

* E1  — Theorem 5 sandwich across graph families,
* E9  — Theorem 20 / Lemma 19 spanner quality (size, out-degree, stretch),
* E14 — structural checks: the T(k) schedule and DTG iteration growth,
* E23 — sparse spectral conductance at 10^4–10^6 nodes: estimate
  wall-clock, Cheeger certification, small-n oracle parity, and
  predicted-vs-measured push-pull spreading time,
* E25 — exact (φ*, ℓ*): the per-cut loop vs the vectorized cut-matrix
  kernel, with a bit-for-bit parity column.
"""

from __future__ import annotations

import gc as _gc
import math
import statistics
import time as _time

from repro.analysis import ResultTable, loglog_slope
from repro.core import check_theorem5
from repro.core.conductance import (
    critical_weighted_conductance,
    cut_weight_ell_conductance,
    weight_ell_conductance,
    weighted_conductance_profile,
)
from repro.core.spectral import (
    LaplacianOperator,
    fiedler_pair,
    ordering_from_embedding,
    spectral_conductance,
    sweep_cut_conductance,
)
from repro.gossip import dtg_local_broadcast, pattern_schedule
from repro.graphs import (
    assign_latencies,
    barabasi_albert_csr,
    baswana_sen_spanner,
    bimodal_latency,
    clique,
    configuration_model_csr,
    constant_latency,
    cycle_graph,
    dumbbell,
    erdos_renyi,
    enumerate_cuts,
    erdos_renyi_csr,
    grid_graph,
    kronecker_csr,
    power_law_latency,
    random_regular_expander,
    spanner_stretch,
    two_cluster_slow_bridge,
    uniform_latency,
    watts_strogatz_csr,
    weighted_erdos_renyi,
)
from repro.simulation import EdgeEngine, FastEngine, RoundPolicySpec
from repro.simulation.rng import make_numpy_rng

__all__ = [
    "experiment_e1_theorem5",
    "experiment_e9_spanner_quality",
    "experiment_e14_structures",
    "experiment_e23_spectral_scale",
    "experiment_e25_exact_conductance",
]


def _small_families(quick: bool):
    """Named small graphs for exact conductance computation."""
    sizes = [8, 10, 12] if not quick else [8, 10]
    families = []
    for n in sizes:
        families.append((f"clique-{n}-uniform", assign_latencies(clique(n), uniform_latency(1, 32), seed=n)))
        families.append((f"clique-{n}-bimodal", assign_latencies(clique(n), bimodal_latency(1, 64, 0.5), seed=n)))
        families.append((f"cycle-{n}-uniform", assign_latencies(cycle_graph(n), uniform_latency(1, 16), seed=n)))
        families.append((f"er-{n}-powerlaw", assign_latencies(erdos_renyi(n, 0.4, seed=n), power_law_latency(2.0, 256), seed=n)))
    families.append(("slow-bridge-8", two_cluster_slow_bridge(4, fast_latency=1, slow_latency=32)))
    families.append(("slow-bridge-10", two_cluster_slow_bridge(5, fast_latency=1, slow_latency=128)))
    families.append(("dumbbell-10", dumbbell(5, bridge_latency=16)))
    return families


def experiment_e1_theorem5(quick: bool = False) -> ResultTable:
    """E1: verify the Theorem 5 sandwich (φ*/2ℓ* ≤ φ_avg ≤ L·φ*/ℓ*) exactly."""
    table = ResultTable(title="E1: Theorem 5 — phi* vs phi_avg across graph families (exact)")
    lower_ok = 0
    upper_ok = 0
    total = 0
    for name, graph in _small_families(quick):
        report = check_theorem5(graph)
        total += 1
        lower_ok += int(report.lower_holds())
        upper_ok += int(report.upper_holds())
        table.add_row(
            family=name,
            n=graph.num_nodes,
            lmax=graph.max_latency(),
            phi_star=round(report.phi_star, 4),
            ell_star=report.ell_star,
            phi_avg=round(report.phi_avg, 5),
            lower=round(report.lower, 5),
            upper=round(report.upper, 5),
            lower_holds=report.lower_holds(),
            upper_holds=report.upper_holds(),
        )
    table.add_note(f"lower bound held on {lower_ok}/{total} instances (paper: always; proof sound)")
    table.add_note(
        f"claimed upper bound held on {upper_ok}/{total} instances "
        "(see repro.core.relation for the known gap in the paper's proof)"
    )
    return table


def experiment_e9_spanner_quality(quick: bool = False) -> ResultTable:
    """E9: Theorem 20 — spanner size O(n log n), out-degree O(log n), stretch O(log n)."""
    table = ResultTable(title="E9: Baswana-Sen directed spanner quality (Theorem 20 / Lemma 19)")
    sizes = [32, 64] if quick else [32, 64, 128]
    for n in sizes:
        for family, graph in (
            ("clique", assign_latencies(clique(n), uniform_latency(1, 32), seed=n)),
            ("expander", assign_latencies(random_regular_expander(n, 6, seed=n), uniform_latency(1, 32), seed=n)),
            ("er", weighted_erdos_renyi(n, min(1.0, 8.0 / n), seed=n)),
        ):
            spanner = baswana_sen_spanner(graph, seed=n)
            stretch = spanner_stretch(graph, spanner.graph, seed=n)
            log_n = math.log2(n)
            table.add_row(
                family=family,
                n=n,
                graph_edges=graph.num_edges,
                spanner_edges=spanner.num_edges,
                edges_over_nlogn=round(spanner.num_edges / (n * log_n), 3),
                max_out_degree=spanner.max_out_degree(),
                out_degree_over_logn=round(spanner.max_out_degree() / log_n, 3),
                stretch=round(stretch, 2),
                stretch_guarantee=spanner.guaranteed_stretch(),
            )
    table.add_note("edges_over_nlogn and out_degree_over_logn should stay bounded by a constant as n grows")
    table.add_note("stretch must never exceed the 2k-1 guarantee")
    return table


def experiment_e14_structures(quick: bool = False) -> ResultTable:
    """E14: structural checks — T(k) schedule composition and DTG iteration growth."""
    table = ResultTable(title="E14: pattern schedule T(k) and DTG iteration growth (Figures 4-9 intuition)")
    ks = [1, 2, 4, 8, 16, 32] if not quick else [1, 2, 4, 8]
    for k in ks:
        schedule = pattern_schedule(k)
        table.add_row(
            structure="T(k) schedule",
            parameter=k,
            length=len(schedule),
            expected_length=2 * k - 1,
            peak_invocations=schedule.count(k),
            palindrome=schedule == list(reversed(schedule)),
        )
    sizes = [16, 32, 64] if quick else [16, 32, 64, 128]
    iteration_counts = []
    for n in sizes:
        graph = erdos_renyi(n, min(1.0, 6.0 / n), seed=n)
        result = dtg_local_broadcast(graph)
        iteration_counts.append((n, result.iterations))
        table.add_row(
            structure="DTG iterations",
            parameter=n,
            length=result.iterations,
            expected_length=round(math.log2(n), 1),
            peak_invocations=result.rounds,
            palindrome=None,
        )
    if len(iteration_counts) >= 2:
        slope = loglog_slope([n for n, _ in iteration_counts], [max(1, it) for _, it in iteration_counts])
        table.add_note(f"DTG iterations grow with exponent {slope:.2f} in n (logarithmic growth => exponent near 0)")
    table.add_note("T(k) length must equal 2k-1 with a single peak invocation of k-DTG (Lemma 26 structure)")
    return table


_E23_SEED = 23
#: Exact enumeration runs at the smallest size, the dense-eigh parity check
#: at the second, and the sparse path alone above.
_E23_SIZES = (16, 512, 10_000, 100_000, 1_000_000)
_E23_SIZES_QUICK = (16, 512, 1_024)
#: Largest size the measured push-pull run uses the numpy fast backend;
#: above it the edge-vectorized backend takes over (its home turf).
_E23_EDGE_FROM = 100_000
#: Acceptance budget for one sparse conductance estimate at 10^6 nodes.
_E23_ESTIMATE_BUDGET_SECONDS = 60.0

#: family name -> builder (n, seed) -> CSRGraph with unit latencies (so the
#: paper's predicted spreading time reduces to log2(n)/phi with ell* = 1);
#: knobs fixed per family so rows are comparable across sizes.
_E23_FAMILIES = (
    (
        "erdos-renyi",
        lambda n, seed: erdos_renyi_csr(n, min(1.0, 8.0 / n), constant_latency(1), seed=seed),
    ),
    (
        "barabasi-albert",
        lambda n, seed: barabasi_albert_csr(n, m=3, model=constant_latency(1), seed=seed),
    ),
    (
        "watts-strogatz",
        lambda n, seed: watts_strogatz_csr(n, k=8, rewire=0.1, model=constant_latency(1), seed=seed),
    ),
    (
        "power-law",
        lambda n, seed: configuration_model_csr(
            n, gamma=2.5, min_degree=2, model=constant_latency(1), seed=seed
        ),
    ),
    (
        "kronecker",
        lambda n, seed: kronecker_csr(n, edge_factor=8, model=constant_latency(1), seed=seed),
    ),
)

#: Exhaustive 2^(n-1)-1 cut enumeration is the oracle only at the smallest
#: size (the repo-wide exact-path threshold is 18 nodes).
_E23_EXACT_MAX = 16
#: The dense-eigh-vs-sparse parity size: both solvers run, and their swept
#: conductances must agree within this relative tolerance (the same bound
#: the test suite pins; orderings may differ inside near-degenerate
#: eigenspaces, the swept value is the contract).
_E23_DENSE_PARITY_N = 512
_E23_PARITY_RTOL = 1e-6


def _e23_measured_rounds(graph, seed: int) -> int:
    """One push-pull one-to-all run; returns the measured round count."""
    engine_cls = EdgeEngine if graph.num_nodes >= _E23_EDGE_FROM else FastEngine
    engine = engine_cls(graph)
    rumor = engine.seed_rumor(graph.nodes()[0])
    spec = RoundPolicySpec(
        select="uniform-random",
        gate="all",
        rng=make_numpy_rng(seed, "rep", 0),
    )
    metrics = engine.run(spec, lambda eng: eng.dissemination_complete(rumor))
    return metrics.rounds


def _e23_parity(graph, estimate, n: int) -> str:
    """Oracle agreement column: exact enumeration / dense eigh / n/a."""
    if n <= _E23_EXACT_MAX:
        exact = weight_ell_conductance(graph, graph.max_latency()).value
        lower, upper = estimate.cheeger_interval()
        ok = exact <= estimate.phi + 1e-9 and lower - 1e-9 <= exact <= upper + 1e-9
        return "exact-ok" if ok else "MISMATCH"
    if n == _E23_DENSE_PARITY_N:
        # The routed estimate used the dense oracle at this size; run the
        # sparse iteration explicitly and compare swept conductances.
        snapshot = graph.indexed()
        operator = LaplacianOperator.from_indexed(snapshot)
        pair = fiedler_pair(operator, _E23_SEED, "parity", n, tol=1e-8, max_iters=1000)
        order = ordering_from_embedding(pair.embedding, operator.degrees > 0)
        sweep = sweep_cut_conductance(
            snapshot.indptr, snapshot.indices, order, volume_degrees=snapshot.degrees()
        )
        tolerance = _E23_PARITY_RTOL * max(1.0, abs(estimate.phi))
        return "dense-ok" if abs(sweep.value - estimate.phi) <= tolerance else "MISMATCH"
    return "n/a"


def experiment_e23_spectral_scale(quick: bool = False) -> ResultTable:
    """E23: sparse spectral conductance estimation at million-node scale.

    Every row is one (family, size) pair: the spectral estimate's
    wall-clock, its λ2 + Cheeger interval, an oracle-parity column (exact
    enumeration at n=16, dense-vs-sparse sweep agreement at n=512), and
    predicted-vs-measured push-pull spreading time — predicted is the
    paper's ``log2(n)/φ̂`` (unit latencies make ℓ* = 1), measured is one
    seeded push-pull run to completion.  The headline rows (each family at
    10^6 nodes) carry the acceptance target: one sparse estimate in under
    60 seconds, where the dense path would need a 8 TB matrix.
    """
    table = ResultTable(
        title="E23: sparse spectral conductance — 10^4..10^6 nodes, Cheeger-certified"
    )
    sizes = _E23_SIZES_QUICK if quick else _E23_SIZES
    parity_all = True
    headlines: dict[str, dict] = {}
    for family, builder in _E23_FAMILIES:
        for n in sizes:
            # Reclaim the previous row's multi-GB arrays before timing.
            _gc.collect()
            started = _time.perf_counter()
            graph = builder(n, _E23_SEED)
            build_wall = _time.perf_counter() - started
            started = _time.perf_counter()
            # Residual tolerance relaxes above 10^4 nodes: the Rayleigh
            # quotient's eigenvalue error is O(residual^2), so a 1e-4
            # residual still pins lambda2 to ~1e-8 while saving ~100
            # matvec iterations on the slow-mixing million-node families.
            tol = 1e-6 if n <= 10_000 else 1e-4
            estimate = spectral_conductance(graph, seed=_E23_SEED, tol=tol, max_iters=256)
            estimate_wall = _time.perf_counter() - started
            lower, upper = estimate.cheeger_interval()
            parity = _e23_parity(graph, estimate, n)
            parity_all = parity_all and parity != "MISMATCH"
            predicted = math.log2(n) / estimate.phi if estimate.phi > 0 else math.inf
            measured = _e23_measured_rounds(graph, _E23_SEED)
            row = dict(
                topology=f"{family}-{n}",
                family=family,
                n=n,
                edges=graph.num_edges,
                method=estimate.method,
                lambda2=round(estimate.lambda2, 6),
                cheeger_lo=round(lower, 6),
                cheeger_hi=round(upper, 6),
                phi_hat=round(estimate.phi, 6),
                iterations=estimate.iterations,
                converged=estimate.converged,
                estimate_seconds=round(estimate_wall, 3),
                parity=parity,
                predicted_rounds=round(predicted, 1),
                measured_rounds=measured,
                predicted_over_measured=round(predicted / measured, 2) if measured else None,
                build_seconds=round(build_wall, 3),
            )
            table.add_row(**row)
            headlines[family] = row
    table.add_note("phi_hat is the best sweep/random cut; it upper-bounds the true phi and")
    table.add_note("sits inside [lambda2/2, sqrt(2*lambda2)] (Cheeger).  predicted_rounds is")
    table.add_note("the paper's (ell*/phi*)*log2(n) with unit latencies; measured_rounds is one")
    table.add_note(f"seeded push-pull run (edge backend from n={_E23_EDGE_FROM}).  parity:")
    table.add_note("exact-ok = exhaustive enumeration inside the Cheeger interval and below")
    table.add_note("phi_hat at n=16; dense-ok = dense-eigh vs sparse-LOBPCG swept conductance")
    table.add_note(f"within {_E23_PARITY_RTOL} relative at n={_E23_DENSE_PARITY_N}.")
    # Imported lazily: the registry imports this module at load time.
    from .registry import record_bench

    record_bench(
        "E23",
        {
            "quick": quick,
            "solver": "csr-lobpcg-vs-dense-eigh-oracle",
            "parity": parity_all,
            "estimate_budget_seconds": _E23_ESTIMATE_BUDGET_SECONDS,
            "families": {
                family: {
                    "n": row["n"],
                    "edges": row["edges"],
                    "method": row["method"],
                    "lambda2": row["lambda2"],
                    "phi_hat": row["phi_hat"],
                    "iterations": row["iterations"],
                    "converged": row["converged"],
                    "estimate_seconds": row["estimate_seconds"],
                    "predicted_over_measured": row["predicted_over_measured"],
                }
                for family, row in headlines.items()
            },
        },
    )
    return table


_E25_SEED = 25
_E25_SIZES = (6, 8, 10, 12, 14, 16, 18)
_E25_SIZES_QUICK = (6, 8, 10, 12)
#: Largest n the per-cut loop runs at (it costs (2^(n-1)-1)·L·m Python steps).
_E25_LOOP_MAX = 12
_E25_LOOP_MAX_QUICK = 10
#: Kernel timings are the median of this many calls.
_E25_KERNEL_REPEATS = 3


def _e25_loop_critical(graph) -> tuple[float, int, object]:
    """(φ*, ℓ*, witness) the pre-kernel way: Definition 1 per cut, per threshold.

    Thresholds ascend and only a strictly larger ratio (or a strictly
    smaller φ_ℓ(C)) replaces the incumbent, the documented tie-break.
    """
    cuts = list(enumerate_cuts(graph))
    best_ratio, best = -math.inf, None
    for ell in graph.distinct_latencies():
        phi, witness = math.inf, None
        for cut in cuts:
            value = cut_weight_ell_conductance(graph, cut, ell)
            if value < phi:
                phi, witness = value, cut
        if phi / ell > best_ratio:
            best_ratio, best = phi / ell, (phi, ell, witness)
    return best


def experiment_e25_exact_conductance(quick: bool = False) -> ResultTable:
    """E25: exact critical conductance, per-cut loop vs vectorized kernel.

    Each row is one random connected graph (G(n, 1/2), uniform latencies in
    [1, 64]).  ``kernel_seconds`` times ``critical_weighted_conductance``
    (one scan of the cut-side table); ``loop_seconds`` times the per-cut
    Definition 1 loop it replaced, which only runs up to a small n.  The
    ``parity`` column requires the kernel's φ*, ℓ* and witness cut to equal
    the loop's exactly wherever the loop ran.
    """
    table = ResultTable(title="E25: exact (phi*, ell*) — per-cut loop vs cut-matrix kernel")
    sizes = _E25_SIZES_QUICK if quick else _E25_SIZES
    loop_max = _E25_LOOP_MAX_QUICK if quick else _E25_LOOP_MAX
    rows = []
    for n in sizes:
        base = erdos_renyi(n, 0.5, seed=_E25_SEED + n)
        graph = assign_latencies(base, uniform_latency(1, 64), seed=_E25_SEED + n)
        timings = []
        for _ in range(_E25_KERNEL_REPEATS):
            started = _time.perf_counter()
            kernel = critical_weighted_conductance(graph)
            timings.append(_time.perf_counter() - started)
        kernel_seconds = statistics.median(timings)
        loop_seconds = None
        parity = "n/a"
        if n <= loop_max:
            started = _time.perf_counter()
            phi, ell, witness = _e25_loop_critical(graph)
            loop_seconds = _time.perf_counter() - started
            profile = weighted_conductance_profile(graph)
            same = kernel == (phi, ell) and profile.critical_witness == witness
            parity = "bit-for-bit" if same else "MISMATCH"
        row = dict(
            n=n,
            edges=graph.num_edges,
            latencies=len(graph.distinct_latencies()),
            cuts=2 ** (n - 1) - 1,
            loop_seconds=None if loop_seconds is None else round(loop_seconds, 4),
            kernel_seconds=round(kernel_seconds, 5),
            speedup=None if loop_seconds is None else round(loop_seconds / kernel_seconds, 1),
            phi_star=round(kernel[0], 6),
            ell_star=kernel[1],
            parity=parity,
        )
        table.add_row(**row)
        rows.append(row)
    table.add_note("kernel_seconds: median of 3 critical_weighted_conductance calls (one cut-matrix scan);")
    table.add_note(f"loop_seconds: the per-cut Definition 1 loop over every threshold (n <= {loop_max}).")
    table.add_note("parity: kernel (phi*, ell*) and witness cut equal the loop's exactly.")
    # Imported lazily: the registry imports this module at load time.
    from .registry import record_bench

    record_bench(
        "E25",
        {
            "quick": quick,
            "kernel": "cut-matrix-scan-vs-per-cut-loop",
            "parity": all(row["parity"] != "MISMATCH" for row in rows),
            "rows": [
                {
                    key: row[key]
                    for key in ("n", "latencies", "loop_seconds", "kernel_seconds", "speedup", "parity")
                }
                for row in rows
            ],
        },
    )
    return table
