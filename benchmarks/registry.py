"""Registry mapping experiment ids (E1..E25) to their implementations.

Both the pytest-benchmark modules and the CLI (``repro-gossip experiment E7``)
dispatch through :func:`run_experiment`.  Every experiment returns a
:class:`repro.analysis.ResultTable`; the caller renders or saves it.

Perf-trajectory records
-----------------------
Speed-comparison experiments (E17, E20, E21, E22, E23, E24, E25) additionally persist a small
machine-readable summary — headline rates, the engine knob, and the git
SHA — via :func:`record_bench`, which writes ``BENCH_<id>.json`` at the
repository root.  CI uploads these files as artifacts, so the measured
perf trajectory of every run is diffable across commits.
"""

from __future__ import annotations

import json
import os
import subprocess
from collections.abc import Callable
from typing import Any, Optional, Union

from repro.analysis import ResultTable, render_table, sweep_config

from .experiments_ablations import (
    experiment_e15_robustness,
    experiment_e16_message_size,
    experiment_e17_engine_backends,
)
from .experiments_conductance import (
    experiment_e1_theorem5,
    experiment_e14_structures,
    experiment_e23_spectral_scale,
    experiment_e25_exact_conductance,
    experiment_e9_spanner_quality,
)
from .experiments_lower_bounds import (
    experiment_e2_guessing_singleton,
    experiment_e3_guessing_randomp,
    experiment_e4_lb_degree,
    experiment_e5_lb_conductance,
    experiment_e6_lb_tradeoff,
)
from .experiments_batch import experiment_e20_batch_replication
from .experiments_edge import experiment_e21_edge_kernel
from .experiments_families import experiment_e22_family_scale
from .experiments_store import experiment_e24_store
from .experiments_dynamics import experiment_e19_dynamics
from .experiments_sweeps import experiment_e18_parallel_sweep
from .experiments_upper_bounds import (
    experiment_e7_pushpull_upper,
    experiment_e8_dtg,
    experiment_e10_rr_broadcast,
    experiment_e11_spanner_broadcast,
    experiment_e12_pattern_broadcast,
    experiment_e13_unified,
)

__all__ = ["EXPERIMENTS", "record_bench", "run_experiment", "run_and_report"]

ExperimentFunction = Callable[[bool], ResultTable]

EXPERIMENTS: dict[str, tuple[str, ExperimentFunction]] = {
    "E1": ("Theorem 5: phi* vs phi_avg sandwich", experiment_e1_theorem5),
    "E2": ("Lemma 7: singleton guessing game", experiment_e2_guessing_singleton),
    "E3": ("Lemma 8: Random_p guessing game", experiment_e3_guessing_randomp),
    "E4": ("Theorem 9: degree lower bound", experiment_e4_lb_degree),
    "E5": ("Theorem 10: conductance lower bound", experiment_e5_lb_conductance),
    "E6": ("Theorem 13: trade-off ring", experiment_e6_lb_tradeoff),
    "E7": ("Theorem 29: push-pull upper bound", experiment_e7_pushpull_upper),
    "E8": ("DTG / ell-DTG building block", experiment_e8_dtg),
    "E9": ("Theorem 20: spanner quality", experiment_e9_spanner_quality),
    "E10": ("Lemma 21: RR Broadcast", experiment_e10_rr_broadcast),
    "E11": ("Theorem 25: Spanner Broadcast", experiment_e11_spanner_broadcast),
    "E12": ("Lemma 27: Pattern Broadcast", experiment_e12_pattern_broadcast),
    "E13": ("Theorem 31: unified strategy", experiment_e13_unified),
    "E14": ("Structural checks: T(k), DTG trees", experiment_e14_structures),
    "E15": ("Ablation: crash-fault robustness (Section 6 remark)", experiment_e15_robustness),
    "E16": ("Ablation: message sizes (Section 6 remark)", experiment_e16_message_size),
    "E17": ("Engine backends: bitset fast engine vs reference", experiment_e17_engine_backends),
    "E18": ("Harness: parallel sweep orchestrator scaling", experiment_e18_parallel_sweep),
    "E19": ("Topology dynamics: churn x latency drift on both engines", experiment_e19_dynamics),
    "E20": ("Batch replication: vectorized multi-seed engine vs scalar loop", experiment_e20_batch_replication),
    "E21": ("Edge kernel: edge-vectorized single runs vs the fast backend", experiment_e21_edge_kernel),
    "E22": ("CSR-first families: million-node builds + SIR push-pull at scale", experiment_e22_family_scale),
    "E23": ("Spectral conductance: sparse CSR Fiedler sweep at million-node scale", experiment_e23_spectral_scale),
    "E24": ("Artifact store: content-addressed graph reuse + result memoization", experiment_e24_store),
    "E25": ("Exact conductance: per-cut loop vs vectorized cut-matrix kernel", experiment_e25_exact_conductance),
}

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))


def _git_sha() -> str:
    """The current commit SHA, or ``"unknown"`` outside a git checkout."""
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=_REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record_bench(experiment_id: str, payload: dict[str, Any]) -> str:
    """Write ``BENCH_<id>.json`` at the repository root; return its path.

    ``payload`` carries the experiment's headline rates (rounds/sec,
    reps/sec, speedups, parity) plus any configuration worth pinning; the
    hook adds the experiment id and the git SHA so saved records are
    attributable across commits.  The file is CI's perf-trajectory
    artifact — regenerate it by re-running the experiment.
    """
    record = {"experiment": experiment_id.upper(), "git_sha": _git_sha()}
    record.update(payload)
    path = os.path.join(_REPO_ROOT, f"BENCH_{experiment_id.lower()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    workers: Union[int, str, None] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> ResultTable:
    """Run one experiment by id (e.g. ``"E7"``) and return its table.

    ``workers`` / ``checkpoint_dir`` / ``resume`` become the process-wide
    sweep defaults (:func:`repro.analysis.configure_sweeps`) for the
    duration of the experiment, so every ``Experiment.run`` inside it — and
    the E18 scaling comparison — picks them up.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; choose one of {sorted(EXPERIMENTS)}")
    _description, function = EXPERIMENTS[key]
    with sweep_config(workers=workers, checkpoint_dir=checkpoint_dir, resume=resume):
        return function(quick)


def run_and_report(
    experiment_id: str,
    quick: bool = False,
    save_csv: bool = True,
    workers: Union[int, str, None] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> ResultTable:
    """Run an experiment, print its table, and persist it as CSV under ``benchmarks/results``."""
    table = run_experiment(
        experiment_id, quick=quick, workers=workers, checkpoint_dir=checkpoint_dir, resume=resume
    )
    print()
    print(render_table(table))
    if save_csv:
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        path = os.path.join(_RESULTS_DIR, f"{experiment_id.lower()}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(table.to_csv())
    return table
