"""Performance measurement: one evidence harness plus a smoke matrix.

The paper's claims are about speed on 10^6-10^8-nnz tensors, so the only
performance evidence this repository accepts comes from the paper-scale
benchmark in ``perfbench/`` (declared by ``BENCHMARK.json``), compared
between two commits by:

* :mod:`repro.bench.ab` — ``repro-bench ab <rev>``: snapshots ``<rev>`` and
  ``HEAD``, runs alternating pairs of ``perfbench/run.py`` and gives each
  end-to-end metric a ``regression`` / ``unresolved`` / ``neutral`` /
  ``gain`` verdict against its bound, plus per-layer deltas from the
  medians of three traced pairs.

The rest of the package times registered operations on small scenario
cells — a must-run-clean smoke, not evidence:

* :mod:`repro.bench.targets` — registry of timeable operations (exact
  MTTKRP kernels, format builders, gpusim simulations, CPD-ALS);
* :mod:`repro.bench.runner` — warmup/repeat sweeps of targets x scenarios;
* :mod:`repro.bench.schema` — the versioned ``BENCH_<name>.json`` artifact;
* :mod:`repro.bench.ooc_smoke` — the capped 10^7-nnz out-of-core proof;
* :mod:`repro.bench.cli` — ``repro-bench list | run | matrix | ab``.
"""

from repro.bench.env import capture_environment
from repro.bench.runner import BUDGETS, BenchConfig, run_benchmarks
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchRun,
    Measurement,
    bench_artifact_path,
    load_run,
    save_run,
)
from repro.bench.targets import (
    BenchTarget,
    expand_targets,
    get_target,
    register_target,
    target_groups,
    target_names,
)

__all__ = [
    "SCHEMA_VERSION",
    "BUDGETS",
    "BenchConfig",
    "BenchRun",
    "BenchTarget",
    "Measurement",
    "bench_artifact_path",
    "capture_environment",
    "expand_targets",
    "get_target",
    "load_run",
    "register_target",
    "run_benchmarks",
    "save_run",
    "target_groups",
    "target_names",
]
