"""E25 — exact (φ*, ℓ*): the per-cut loop vs the vectorized cut-matrix kernel.

The kernel must reproduce the loop's φ*, ℓ* and witness cut exactly wherever
the loop runs (the ``parity`` column, checked in quick mode too), beat it at
the loop's largest size, and handle the exact-size cap (n = 18) within a
few seconds at full size.
"""

from __future__ import annotations

#: Generous ceiling for one exact scan; the kernel takes well under 1 s at n=18.
KERNEL_BUDGET_SECONDS = 10.0


def test_e25_exact_conductance(run_experiment_benchmark, quick_mode):
    table = run_experiment_benchmark("E25")
    rows = list(table)
    assert rows, "E25 produced no rows"
    for row in rows:
        assert row["parity"] != "MISMATCH", f"n={row['n']}: kernel disagrees with the per-cut loop"
        assert row["kernel_seconds"] < KERNEL_BUDGET_SECONDS, (
            f"n={row['n']}: kernel took {row['kernel_seconds']}s (budget {KERNEL_BUDGET_SECONDS}s)"
        )
    looped = [row for row in rows if row["loop_seconds"] is not None]
    assert looped and all(row["parity"] == "bit-for-bit" for row in looped), "E25 never ran loop parity"
    largest = max(looped, key=lambda row: row["n"])
    assert largest["speedup"] > 1.0, f"kernel slower than the loop at n={largest['n']}"
    if not quick_mode:
        assert max(row["n"] for row in rows) == 18, "E25 must reach the exact-size cap"
