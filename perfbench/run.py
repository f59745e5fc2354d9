"""Paper-scale benchmark: CP-ALS and MTTKRP on three 10^6-nnz workloads.

Run from the repository root::

    python3 perfbench/run.py --workload community --seed 0 --seconds 20 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics (set-up, ALS iteration,
MTTKRP throughput, peak RSS, index storage); ``--trace 1`` repeats that
run with the benchmark's own spans recorded and then measures every layer
on its own, writing the spans to ``.perfbench_runs/``.  ``--workload all``
runs the three workloads one after another, each in its own process.

Each metric is printed as ``name value unit``, then ``error_rate``
(failed / attempted library calls), and the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_runs"


def _prepare_process() -> None:
    """Pin what the process inherits: one BLAS thread (the dense ALS algebra
    runs serially, so a busy second core cannot stall it; only the threaded
    workload's MTTKRP workers use two cores), and none of the library's own
    environment switches (tracing, fault injection, default backend,
    scenario disk cache) — every call passes its backend explicitly."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'repro'} not found; run from a checkout "
                 "of the repository")
    sys.path[:0] = [str(SRC), str(ROOT)]


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="length of the measured ALS/MTTKRP loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the workload (smoke tests only)")
    return p.parse_args(argv)


def _warm_up(wl) -> None:
    """Finish one-off process set-up before any clock starts: lazy imports,
    the worker pool, first-touch allocator growth.  Runs the measured path
    once on a tiny tensor, then drops every cached plan."""
    from repro.core.mttkrp import MttkrpPlan
    from repro.cpd import cp_als, init_factors
    from repro.formats import clear_plan_cache
    from repro.scenarios import materialize

    tiny = materialize(wl.scenario(seed=0, scale=0.005))
    plan = MttkrpPlan(tiny, format="hb-csf")
    factors = init_factors(tiny, 8, "random", rng=0)
    for m in plan.modes:
        plan.mttkrp(factors, m, backend=wl.backend,
                    num_workers=wl.num_workers)
    cp_als(tiny, 8, n_iters=1, rng=0, backend=wl.backend,
           num_workers=wl.num_workers)
    clear_plan_cache()


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':34s} {rate:14.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_workload(args) -> int:
    from repro.parallel.pool import shutdown_pool
    from repro.scenarios import materialize

    from perfbench import endtoend, layers
    from perfbench.harness import Harness
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracing = bool(args.trace)
    h = Harness(run_id=uuid.uuid4().hex, tracing=tracing)
    metrics: dict = {}
    try:
        _warm_up(wl)
        with h.span("run", workload=wl.name, seed=args.seed):
            start = time.perf_counter()
            tensor = materialize(wl.scenario(args.seed, args.scale))
            generate_s = time.perf_counter() - start
            e2e = endtoend.run(h, wl, tensor, args.seed, args.seconds)
            if tracing:
                metrics = layers.run(h, tensor, e2e)
                metrics["scenarios.generate_s"] = (generate_s, "s")
                for name in ("setup_s", "als_iter_s", "mttkrp_mnnz_s"):
                    metrics[f"trace.{name}"] = e2e["metrics"][name]
            else:
                metrics = e2e["metrics"]
    except Exception as exc:
        # the run stops and reports itself failed; an operation that raised
        # is already counted, an error between operations counts as one
        traceback.print_exc()
        if not h.failures:
            h.attempted += 1
            h.fail(h.attempted, f"{type(exc).__name__}: {exc}")
        metrics = {}
    finally:
        shutdown_pool()
    for op_id, reason in sorted(h.failures.items()):
        print(f"failed op {op_id}: {reason}", file=sys.stderr)
    if tracing:
        metrics["trace.spans"] = (len(h.records), "count")
        metrics["trace.overhead_s"] = (h.overhead_s, "s")
        path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl"
        h.write_trace(path, {"workload": wl.name, "seed": args.seed,
                             "scale": args.scale})
        print(f"spans: {path}", file=sys.stderr)
    correct = h.failed == 0 and bool(metrics)
    _emit(correct, max(h.attempted, 1), h.failed, metrics)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process (``peak_rss_mb`` is per process)."""
    from perfbench.workloads import WORKLOADS

    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics[f"{name}/{metric}"] = (m["value"], m["unit"])
    print("== all")
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    _prepare_process()
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
