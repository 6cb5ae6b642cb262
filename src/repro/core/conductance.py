"""Weighted conductance: exact computation of φ_ℓ, φ*, ℓ*, and φ_avg.

This module implements the paper's core definitions:

* **Weight-ℓ conductance** (Definition 1):
  ``φ_ℓ(C) = |E_ℓ(C)| / min(Vol(U), Vol(V \\ U))`` for a cut ``C = (U, V\\U)``,
  and ``φ_ℓ(G) = min_C φ_ℓ(C)``.
* **Critical weighted conductance** (Definition 2): ``φ*`` is the ``φ_ℓ(G)``
  whose ratio ``φ_ℓ(G)/ℓ`` is maximal over latencies ``ℓ``; the maximizing
  ``ℓ`` is the critical latency ``ℓ*``.
* **Average cut conductance / average weighted conductance**
  (Definitions 3-4): each cut edge's contribution is down-weighted by the
  upper bound ``2^i`` of its latency class, then minimized over cuts.

Exact computation scans all ``2^(n-1) - 1`` cuts at once: one numpy kernel
(:func:`_scan_cuts`) turns the cut-side table of
:func:`~repro.graphs.cuts.cut_side_table` into every ``φ_ℓ(C)`` and
``φ_avg(C)`` and keeps each column's first minimum, so every quantity and
its witness equal the per-cut ``cut_*`` formulas bit for bit.  It is
restricted to small graphs (``n <= max_exact_nodes``, default 18).  Larger
graphs should use :mod:`repro.core.estimation` or closed forms for the known
gadget families.

When all latencies are 1, ``φ*`` equals the classical conductance and
``φ_avg`` equals exactly half of it, matching the remarks after
Definitions 2 and 4.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.cuts import Cut, cut_edges_within_latency, cut_side_table
from ..graphs.weighted_graph import GraphError, NodeId, WeightedGraph
from .latency_classes import (
    cut_class_counts,
    latency_class_index,
    latency_class_upper_bound,
    nonempty_latency_classes,
)

__all__ = [
    "ConductanceResult",
    "WeightedConductanceProfile",
    "cut_weight_ell_conductance",
    "weight_ell_conductance",
    "critical_weighted_conductance",
    "cut_average_conductance",
    "average_weighted_conductance",
    "classical_conductance",
    "weighted_conductance_profile",
    "DEFAULT_MAX_EXACT_NODES",
]

DEFAULT_MAX_EXACT_NODES = 18

#: Cuts per block of the exact scan: bounds the (block × m) crossing matrix
#: to a few MB even at ``n = DEFAULT_MAX_EXACT_NODES``.
_SCAN_BLOCK = 4096


@dataclass(frozen=True)
class ConductanceResult:
    """The value of a conductance quantity together with its witness cut."""

    value: float
    witness: Optional[Cut]

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class WeightedConductanceProfile:
    """Full weighted-conductance profile of a graph.

    Attributes
    ----------
    phi_by_latency:
        ``{ℓ: φ_ℓ(G)}`` for every candidate latency ℓ considered.
    critical_phi, critical_latency:
        The critical weighted conductance ``φ*`` and critical latency ``ℓ*``.
    phi_avg:
        The average weighted conductance ``φ_avg``.
    classical_phi:
        The classical (unweighted) conductance, for comparison.
    nonempty_classes:
        The number ``L`` of non-empty latency classes.
    max_latency:
        ``ℓmax``.
    critical_witness:
        A cut realizing ``φ*`` at ``ℓ*``.
    """

    phi_by_latency: dict[int, float]
    critical_phi: float
    critical_latency: int
    phi_avg: float
    classical_phi: float
    nonempty_classes: int
    max_latency: int
    critical_witness: Optional[Cut] = None

    def theorem5_lower(self) -> float:
        """Return the Theorem 5 lower bound on φ_avg: ``φ*/(2ℓ*)``."""
        return self.critical_phi / (2 * self.critical_latency)

    def theorem5_upper(self) -> float:
        """Return the Theorem 5 upper bound on φ_avg: ``L·φ*/ℓ*``."""
        return self.nonempty_classes * self.critical_phi / self.critical_latency

    def theorem5_holds(self, tolerance: float = 1e-12) -> bool:
        """Check the Theorem 5 sandwich ``φ*/2ℓ* <= φ_avg <= L·φ*/ℓ*``."""
        return (
            self.theorem5_lower() <= self.phi_avg + tolerance
            and self.phi_avg <= self.theorem5_upper() + tolerance
        )


def _check_exact_feasible(graph: WeightedGraph, max_exact_nodes: int) -> None:
    if graph.num_nodes < 2:
        raise GraphError("conductance is undefined for graphs with fewer than 2 nodes")
    if graph.num_edges == 0:
        raise GraphError("conductance is undefined for graphs with no edges")
    if graph.num_nodes > max_exact_nodes:
        raise GraphError(
            f"exact conductance enumerates 2^(n-1) cuts; n={graph.num_nodes} exceeds the "
            f"limit of {max_exact_nodes}. Use repro.core.estimation for larger graphs."
        )


# ----------------------------------------------------------------------
# The exact kernel: every cut, every threshold, one scan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CutScan:
    """Column-wise minima over every cut, in ``enumerate_cuts`` order.

    ``values[j]`` is the minimum of column ``j`` and ``rows[j]`` the first
    cut-table row attaining it, so witnesses follow the per-cut loop's
    strict-``<`` tie-break.
    """

    nodes: list[NodeId]
    values: list[float]
    rows: list[int]

    def witness(self, column: int) -> Cut:
        """The cut realizing column ``column``'s minimum."""
        side = cut_side_table(len(self.nodes))[self.rows[column]]
        return Cut(frozenset(self.nodes[i] for i in np.flatnonzero(side)))


def _scan_cuts(graph: WeightedGraph, thresholds: Sequence[int], average: bool = False) -> _CutScan:
    """Minimize ``φ_ℓ(C)`` for each ``ℓ`` in ``thresholds`` (then ``φ_avg(C)``) over all cuts.

    Per block of cut-table rows, ``crossing @ weights`` counts each cut's
    edges with latency ``<= ℓ`` (0/1 weight columns) and sums their
    ``1/2^i`` class weights (the ``average`` column).  Both are exact in
    float64 — integer counts and dyadic sums — so the one true division
    per cut rounds exactly like the ``cut_*`` oracles' Python division.
    """
    nodes = graph.nodes()
    position = {node: i for i, node in enumerate(nodes)}
    edges = graph.edge_list()
    tail = np.array([position[edge.u] for edge in edges], dtype=np.intp)
    head = np.array([position[edge.v] for edge in edges], dtype=np.intp)
    latencies = np.array([edge.latency for edge in edges], dtype=np.int64)
    columns = [(latencies <= ell).astype(np.float64) for ell in thresholds]
    if average:
        columns.append(
            np.array([1 / latency_class_upper_bound(latency_class_index(edge.latency)) for edge in edges])
        )
    weights = np.stack(columns, axis=1)
    degrees = np.array([graph.degree(node) for node in nodes], dtype=np.int64)
    total_volume = int(degrees.sum())
    table = cut_side_table(len(nodes))
    best = np.full(weights.shape[1], np.inf)
    best_rows = np.zeros(weights.shape[1], dtype=np.int64)
    for start in range(0, len(table), _SCAN_BLOCK):
        sides = table[start : start + _SCAN_BLOCK]
        crossing = (sides[:, tail] != sides[:, head]).astype(np.float64)
        volume = sides.astype(np.int64) @ degrees
        min_volume = np.minimum(volume, total_volume - volume)[:, None]
        values = np.zeros((len(sides), weights.shape[1]))
        np.divide(crossing @ weights, min_volume, out=values, where=min_volume > 0)
        rows = values.argmin(axis=0)
        minima = values.min(axis=0)
        improved = minima < best
        best[improved] = minima[improved]
        best_rows[improved] = rows[improved] + start
    return _CutScan(nodes=nodes, values=best.tolist(), rows=best_rows.tolist())


# ----------------------------------------------------------------------
# Weight-ℓ conductance
# ----------------------------------------------------------------------
def cut_weight_ell_conductance(graph: WeightedGraph, cut: Cut, ell: int) -> float:
    """Return ``φ_ℓ(C)`` for a single cut (Definition 1)."""
    if ell < 1:
        raise GraphError(f"ell must be >= 1, got {ell}")
    volume = cut.min_volume(graph)
    if volume == 0:
        return 0.0
    crossing = cut_edges_within_latency(graph, cut, ell)
    return len(crossing) / volume


def weight_ell_conductance(
    graph: WeightedGraph, ell: int, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> ConductanceResult:
    """Return ``φ_ℓ(G) = min_C φ_ℓ(C)`` and its first minimizing cut."""
    _check_exact_feasible(graph, max_exact_nodes)
    if ell < 1:
        raise GraphError(f"ell must be >= 1, got {ell}")
    scan = _scan_cuts(graph, [ell])
    return ConductanceResult(value=scan.values[0], witness=scan.witness(0))


# ----------------------------------------------------------------------
# Critical weighted conductance
# ----------------------------------------------------------------------
def _critical(scan: _CutScan, latencies: list[int]) -> tuple[float, int, Cut]:
    """``(φ*, ℓ*, witness)`` from a scan over ``latencies`` (ascending).

    ``ℓ*`` maximizes ``φ_ℓ/ℓ``; ``max`` keeps the first maximum, so ties go
    to the smallest latency.
    """
    column = max(range(len(latencies)), key=lambda j: scan.values[j] / latencies[j])
    return scan.values[column], latencies[column], scan.witness(column)


def _critical_with_witness(graph: WeightedGraph, max_exact_nodes: int) -> tuple[float, int, Cut]:
    """``(φ*, ℓ*)`` plus a cut realizing ``φ*`` at ``ℓ*``, from one scan."""
    _check_exact_feasible(graph, max_exact_nodes)
    latencies = graph.distinct_latencies()
    return _critical(_scan_cuts(graph, latencies), latencies)


def critical_weighted_conductance(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> tuple[float, int]:
    """Return ``(φ*, ℓ*)`` (Definition 2) exactly.

    Only the distinct latencies present in the graph need to be considered:
    ``φ_ℓ`` is a step function of ℓ that changes only at edge-latency values,
    and the ratio ``φ_ℓ/ℓ`` is maximized at one of those steps (between steps
    the numerator is constant while ℓ grows).
    """
    phi_star, ell_star, _ = _critical_with_witness(graph, max_exact_nodes)
    return phi_star, ell_star


# ----------------------------------------------------------------------
# Average weighted conductance
# ----------------------------------------------------------------------
def cut_average_conductance(graph: WeightedGraph, cut: Cut) -> float:
    """Return ``φ_avg(C)`` for a single cut (Definition 3)."""
    volume = cut.min_volume(graph)
    if volume == 0:
        return 0.0
    total = 0.0
    for class_index, count in cut_class_counts(graph, cut).items():
        total += count / latency_class_upper_bound(class_index)
    return total / volume


def average_weighted_conductance(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> ConductanceResult:
    """Return ``φ_avg(G) = min_C φ_avg(C)`` (Definition 4) and its first minimizing cut."""
    _check_exact_feasible(graph, max_exact_nodes)
    scan = _scan_cuts(graph, [], average=True)
    return ConductanceResult(value=scan.values[0], witness=scan.witness(0))


# ----------------------------------------------------------------------
# Classical conductance and the full profile
# ----------------------------------------------------------------------
def classical_conductance(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> ConductanceResult:
    """Return the classical (latency-blind) conductance of the graph.

    Every edge counts regardless of its latency — equivalently
    ``φ_ℓ(G)`` with ``ℓ = ℓmax``.
    """
    return weight_ell_conductance(graph, graph.max_latency(), max_exact_nodes)


def weighted_conductance_profile(
    graph: WeightedGraph, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES
) -> WeightedConductanceProfile:
    """Compute the full weighted-conductance profile of a small graph in one scan."""
    _check_exact_feasible(graph, max_exact_nodes)
    latencies = graph.distinct_latencies()
    scan = _scan_cuts(graph, latencies, average=True)
    critical_phi, critical_latency, critical_witness = _critical(scan, latencies)
    return WeightedConductanceProfile(
        phi_by_latency=dict(zip(latencies, scan.values)),
        critical_phi=critical_phi,
        critical_latency=critical_latency,
        phi_avg=scan.values[-1],
        # The last latency column is ℓmax: every edge counts.
        classical_phi=scan.values[len(latencies) - 1],
        nonempty_classes=len(nonempty_latency_classes(graph)),
        max_latency=graph.max_latency(),
        critical_witness=critical_witness,
    )
