"""Compare two checkouts on one workload: alternating paired runs.

Usage (from anywhere)::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload batch-churn-crash \
        --seeds 1 2 3 4 5 6 7 8 9 10

``PARENT_DIR`` and ``CHANGE_DIR`` are source trees (for example made with
``git archive <sha> | tar -x -C DIR``) that each hold ``perfbench/`` and
``src/``.  For every seed both sides run the same workload, the side that
goes first alternating from pair to pair.  For each end-to-end metric the
script prints both medians and quartiles, the change's win count over the
pairs (ties count for neither side), and the relative change of the median
against the bound in the change's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(tree: str, workload: str, seed: int) -> dict:
    command = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed} failed its output checks")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = {entry["name"]: entry for entry in json.load(handle)["end_to_end"]}
    parent: list[dict] = []
    change: list[dict] = []
    for index, seed in enumerate(args.seeds):
        sides = [(args.parent, parent), (args.change, change)]
        for tree, sink in sides if index % 2 == 0 else sides[::-1]:
            sink.append(run(tree, args.workload, seed))
    print(f"{'metric':<12} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} {'wins':>7} {'change':>8}  bound")
    for name, entry in spec.items():
        old = [row[name] for row in parent]
        new = [row[name] for row in change]
        sign = 1 if entry["better"] == "higher" else -1
        wins = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0)
        (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
        cells = [f"{o2:.5g} [{o1:.5g}, {o3:.5g}]", f"{n2:.5g} [{n1:.5g}, {n3:.5g}]"]
        print(
            f"{name:<12} {cells[0]:<32} {cells[1]:<32} {wins:>3}/{len(old):<3} "
            f"{(n2 - o2) / o2:>+8.1%}  {entry['bound']:.0%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
