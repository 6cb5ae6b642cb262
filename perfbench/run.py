"""Benchmark launcher: run workloads of the ``repro`` simulator, one process each.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload edge-er160k --seed 3 --trace 0
    python3 perfbench/run.py --workload calibrate-abc --trace 1

Each workload runs in a fresh ``worker.py`` process, so ``peak_rss_mb``
belongs to that workload alone, with BLAS thread pools pinned to one thread
and the ``REPRO_*`` cache variables cleared.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Each workload's op loop runs for ``run_seconds`` from
``BENCHMARK.json``; ``--seconds``, if given, must equal it, so both sides
of a comparison always measure for the same time.  Per-run records, with
the git sha, CPU and versions, land in ``perfbench/results/``.

The launcher imports nothing outside the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("edge-er160k", "batch-churn-crash", "conductance-exact", "calibrate-abc")
RESULTS = os.path.join(HERE, "results")
#: A worker that outlives this is killed and its run fails.
WORKER_TIMEOUT_S = 170
#: Thread-pool variables of the BLAS/OpenMP builds numpy may link against.
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def environment() -> dict[str, str]:
    """Where the numbers come from: git sha, CPUs, CPU model, Python."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "nproc": str(os.cpu_count()),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def run_seconds() -> int:
    """The op loop's length: ``run_seconds`` from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return int(json.load(handle)["run_seconds"])


def worker_env() -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    for key in PINNED_THREADS:
        env[key] = "1"
    return env


def run_workload(name: str, seed: int, trace: int, env_info: dict[str, str]) -> dict:
    """Run one workload in a fresh process; return its result object."""
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", name,
        "--seed", str(seed),
        "--trace", str(trace),
        "--out", RESULTS,
    ]
    process = subprocess.Popen(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"{name}: worker exceeded {WORKER_TIMEOUT_S} s and was killed")
    lines = stdout.rstrip("\n").splitlines()
    if process.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        raise SystemExit(f"{name}: worker exited with code {process.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    for key, value in env_info.items():
        print(f"{key:<17} {value}")
    record_path = os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json")
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    record["environment"] = env_info
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != run_seconds():
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {run_seconds()} in BENCHMARK.json",
              file=sys.stderr)
        return 2
    env_info = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.trace, env_info) for name in names}
    if len(results) == 1:
        combined = results[names[0]]
    else:
        combined = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
