"""Run one workload in this process and print its result as a JSON line.

Started by ``run.py`` (one fresh process per workload, BLAS pinned to one
thread); not meant to be called by hand.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR

The op loop runs for ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro.store as store  # noqa: E402
import numpy as np  # noqa: E402
import tracer  # noqa: E402
from run import run_seconds  # noqa: E402
from workloads import WORKLOADS, OpSummary  # noqa: E402

#: Set-up runs this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3
_REFERENCE_VALUES = np.random.default_rng(0).random(200_000)
#: Reported times are seconds at reference speed: a measured wall time
#: divided by the reference time around it, times this nominal duration.
REFERENCE_NOMINAL_S = 0.1


def _reference_adjacency(nodes: int = 40_000, edges: int = 160_000) -> list[list[int]]:
    # Drawn one edge at a time, so no temporary edge list raises peak_rss_mb.
    draw = random.Random(0).randrange
    adjacency: list[list[int]] = [[] for _ in range(nodes)]
    for _ in range(edges):
        u, v = draw(nodes), draw(nodes)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


_REFERENCE_ADJACENCY = _reference_adjacency()


def reference_s() -> float:
    """Wall time of fixed work of the three kinds the simulator does.

    A pure-Python arithmetic loop, a numpy sort loop, and a depth-first
    search over a Python adjacency list of about 16 MB, whose cache
    misses slow down with the host's memory traffic as the simulator's
    dict-based graphs do.  The host's speed drifts by tens of percent
    within a minute when other tenants load it.  Timing this fixed work
    right before and after each timed call and dividing by it cancels that
    drift.  It uses no ``repro`` code, so no change to the package can
    move it.
    """
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    values = _REFERENCE_VALUES
    for _ in range(40):
        values = np.sort(values * 1.0001)
    adjacency = _REFERENCE_ADJACENCY
    seen = bytearray(len(adjacency))
    seen[0] = 1
    stack = [0]
    while stack:
        for v in adjacency[stack.pop()]:
            if not seen[v]:
                seen[v] = 1
                stack.append(v)
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """The larger of this process's and its (pool) children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def bracketed(call: Any) -> tuple[float, float, Any]:
    """(wall seconds of ``call()``, mean reference seconds around it, its result)."""
    before = reference_s()
    started = time.perf_counter()
    result = call()
    wall = time.perf_counter() - started
    return wall, (before + reference_s()) / 2, result


def timed_op(
    workload: Any, inputs: Any, op: int, recorder: tracer.SpanRecorder | None = None
) -> tuple[float, float, Any]:
    """(op wall seconds, mean reference seconds around it, op output).

    With a ``recorder``, the op's root span covers exactly the timed call.
    """
    if workload.cold_store:
        store.active_graph_store().clear()
    gc.collect()
    if recorder is None:
        return bracketed(lambda: workload.run(inputs))

    def traced_run() -> Any:
        span = recorder.begin_op(op)
        try:
            return workload.run(inputs)
        finally:
            recorder.end_op(span)

    return bracketed(traced_run)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for the span file")
    args = parser.parse_args(argv)

    tracer.import_layers()

    seconds = run_seconds()
    workload = WORKLOADS[args.workload](args.seed)

    def set_up() -> None:
        for _ in range(workload.setup_loops):
            workload.setup()

    # (wall, reference) per single set-up.
    setups = [
        (wall / workload.setup_loops, ref)
        for wall, ref, _ in (bracketed(set_up) for _ in range(SETUP_REPEATS))
    ]

    recorder = tracer.SpanRecorder()
    walls: dict[int, float] = {}
    refs: dict[int, float] = {}
    traced_walls: dict[int, float] = {}
    store_deltas: dict[int, dict[str, int]] = {}
    work = 0.0
    attempted = failed = 0
    problems: list[str] = []
    first: tuple[Any, OpSummary] | None = None

    def fail(op: int, what: str) -> None:
        nonlocal failed
        failed += 1
        problems.append(f"op {op}: {what}")

    def attempt(op: int, traced: bool) -> tuple[Any, float, float, OpSummary] | None:
        """Run op ``op`` once; ``None`` when it raised or failed its checks."""
        nonlocal attempted
        attempted += 1
        inputs = workload.inputs(op)
        try:
            if traced:
                before = store.active_graph_store().stats.as_dict()
                with tracer.Instrumentation(recorder):
                    wall, ref, output = timed_op(workload, inputs, op, recorder)
                after = store.active_graph_store().stats.as_dict()
                store_deltas[op] = {key: after[key] - before[key] for key in after}
            else:
                wall, ref, output = timed_op(workload, inputs, op)
            summary = workload.summarize(inputs, output)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            fail(op, f"{'traced ' if traced else ''}op raised {type(exc).__name__}: {exc}")
            return None
        if summary.problems:
            fail(op, "; ".join(summary.problems))
            return None
        return inputs, wall, ref, summary

    loop_started = time.perf_counter()
    op = 0
    while op == 0 or time.perf_counter() - loop_started < seconds:
        # A traced run times each op twice, untraced and traced, alternating
        # which goes first so warm-up effects cancel out of trace.overhead_s.
        order = ((False, True) if op % 2 == 0 else (True, False)) if args.trace else (False,)
        outcome = {traced: attempt(op, traced) for traced in order}
        plain = outcome[False]
        if plain is not None:
            inputs, wall, ref, summary = plain
            walls[op] = wall
            refs[op] = ref
            work += summary.work
            if op == 0:
                first = (inputs, summary)
            twin = outcome.get(True)
            if twin is not None:
                if twin[3].fingerprint != summary.fingerprint:
                    fail(op, "traced output differs from untraced output")
                else:
                    traced_walls[op] = twin[1]
        op += 1
    # ru_maxrss only grows, so read it before the oracle can raise it.
    ops_peak_mb = peak_rss_mb()

    if first is not None:
        attempted += 1
        try:
            oracle_problems = workload.oracle(*first)
        except Exception as exc:  # noqa: BLE001
            oracle_problems = [f"oracle raised {type(exc).__name__}: {exc}"]
        if oracle_problems:
            fail(0, "oracle: " + "; ".join(oracle_problems))

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        recorder.write_jsonl(stem + "-spans.jsonl")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    op_walls = list(walls.values())
    op_times = [walls[op] / refs[op] * REFERENCE_NOMINAL_S for op in walls]
    end_to_end = {
        # With no passing op the run is already incorrect; 0 keeps the line valid JSON.
        "op_s": (statistics.median(op_times) if op_times else 0.0, "s"),
        "work_per_s": (work / sum(op_times) if op_times else 0.0, "1/s"),
        "peak_rss_mb": (ops_peak_mb, "MB"),
        "setup_s": (statistics.median(wall / ref for wall, ref in setups) * REFERENCE_NOMINAL_S, "s"),
    }
    print(f"workload          {args.workload} (seed {args.seed}, {len(walls)} timed ops)")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:<17} {value:.6g} {unit}")
    print(f"raw_setup_s       {statistics.median(wall for wall, _ in setups):.6g} s (wall clock, not gated)")
    if op_walls:
        print(f"raw_op_s          {statistics.median(op_walls):.6g} s (wall clock, not gated)")
        print(f"raw_work_per_s    {work / sum(op_walls):.6g} 1/s (wall clock, not gated)")
        print(f"reference_s       {statistics.median(refs.values()):.6g} s (median, nominal {REFERENCE_NOMINAL_S} s)")
    print(f"oracle_peak_mb    {peak_rss_mb():.6g} MB (peak after the oracle, not gated)")
    print(f"failed_fraction   {failed / attempted:.6g} ({failed}/{attempted})")
    if args.trace:
        if not traced_walls:
            print("no traced op completed", file=sys.stderr)
            return 1
        ops = sorted(traced_walls)
        layers = tracer.layer_metrics(
            recorder, ops, store_deltas, [walls[op] for op in ops], [traced_walls[op] for op in ops]
        )
        for name, value in layers.items():
            print(f"{name:<44} {value:.6g} {tracer.LAYER_METRICS[name]}")
        metrics = {name: {"value": value, "unit": tracer.LAYER_METRICS[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "op_walls_s": op_walls,
        "reference_s": list(refs.values()),
        "setup_walls_s": [wall for wall, _ in setups],
        "setup_reference_s": [ref for _, ref in setups],
        "problems": problems,
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
