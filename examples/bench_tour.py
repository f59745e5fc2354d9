"""Tour of the performance-measurement subsystem.

Runs a small kernel-vs-scenario matrix through :mod:`repro.bench` (the four
MTTKRP kernel formats against the ``structure_zoo`` suite at a tiny
budget), prints the resulting table and round-trips the artifact through
disk.  Cells this small are a smoke, not evidence: a before/after
performance claim comes from ``repro-bench ab <rev>`` on the paper-scale
``perfbench/`` benchmark.

Run with::

    PYTHONPATH=src python examples/bench_tour.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bench import BenchConfig, load_run, run_benchmarks, save_run
from repro.bench.runner import suite_scenarios
from repro.experiments.common import format_table


def main() -> None:
    config = BenchConfig.from_budget("tiny")
    scenarios = suite_scenarios("structure_zoo")

    # ---- 1. a targets x scenarios matrix ----------------------------- #
    matrix = run_benchmarks(
        ["kernel.coo", "kernel.csf", "kernel.b-csf", "kernel.hb-csf"],
        scenarios,
        config,
        name="tour",
    )
    rows = [{
        "target": m.target,
        "scenario": m.scenario,
        "nnz": m.nnz,
        "median ms": round(m.seconds("median") * 1e3, 3),
        "p95 ms": round(m.seconds("p95") * 1e3, 3),
    } for m in matrix.measurements]
    print("kernel x structure_zoo matrix (tiny budget)\n")
    print(format_table(rows))

    # ---- 2. artifacts round-trip through disk ------------------------ #
    with tempfile.TemporaryDirectory() as tmp:
        path = save_run(matrix, Path(tmp) / "BENCH_tour.json")
        again = load_run(path)
        print(f"\nwrote and re-read {path.name}: "
              f"{len(again.measurements)} measurements, "
              f"schema v{again.schema_version}, "
              f"numpy {again.env['numpy']}, git {again.env['git_sha']}")


if __name__ == "__main__":
    main()
