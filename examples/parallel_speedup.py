#!/usr/bin/env python
"""Threaded-backend speedup vs load imbalance, next to the simulation.

Sweeps the ``imbalance_sweep`` suite (the paper's load-imbalance axis) and,
for each heavy-slice concentration, prints

* the **measured** wall-clock speedup of ``backend="threads"`` over serial
  at 2 and 4 workers, and
* the **predicted** speedup of the same partition — total shard cost over
  the LPT makespan, the real-scheduler analogue of the Fig-9/10 simulated
  curves (a dominant slice bounds both the same way, because shards never
  split an output row).

On a single-core machine the measured column degenerates to ~1x or below
(the pool adds overhead and there is no second core to hide it); the
predicted column is hardware-independent and shows what the partition
would buy.

After the sweep, one dispatch of the most imbalanced scenario is re-run
under the telemetry tracer (:mod:`repro.telemetry`) and its **per-worker
timeline** is printed: which worker ran which shards, for how long, against
the LPT plan's predicted nnz loads — the span-level evidence for *why*
measured speedup falls short of predicted (pool overhead, stragglers, GIL
serialisation of the Python dispatch).  Run with::

    python examples/parallel_speedup.py              # hb-csf, the default
    python examples/parallel_speedup.py b-csf
"""

from __future__ import annotations

import os
import sys

import repro.telemetry as telemetry
from repro.formats import build_plan, get_format
from repro.parallel.partition import shard_plan_for
from repro.scenarios.cache import materialize
from repro.scenarios.suites import get_suite
from repro.util.prng import default_rng
from repro.util.timing import repeat

RANK = 32
WORKER_COUNTS = (2, 4)
MODE = 0


def main() -> None:
    fmt = sys.argv[1] if len(sys.argv) > 1 else "hb-csf"
    spec = get_format(fmt)
    if not spec.supports_threads:
        raise SystemExit(f"{fmt} has no threaded backend (it declares no "
                         "kernel units)")
    print(f"format {fmt}, rank {RANK}, mode {MODE}, "
          f"{os.cpu_count()} CPU core(s) visible")

    header = f"  {'scenario':<14s} {'serial ms':>10s}"
    for w in WORKER_COUNTS:
        header += f" {f'w={w} meas':>10s} {f'w={w} pred':>10s}"
    print("\n" + header)

    last_cell = None
    for name, scenario in get_suite("imbalance_sweep").specs():
        tensor = materialize(scenario.with_scale(0.2))
        rng = default_rng(20190520)
        factors = [rng.standard_normal((s, RANK)) for s in tensor.shape]
        built = build_plan(tensor, fmt, MODE)

        def serial():
            return spec.mttkrp(built.rep, factors, MODE, backend="serial")

        _, timer = repeat(serial, n=3, warmup=2)
        serial_s = timer.best
        row = f"  {name:<14s} {serial_s * 1e3:10.3f}"

        for workers in WORKER_COUNTS:
            def threaded(_w=workers):
                return spec.mttkrp(built.rep, factors, MODE,
                                   backend="threads", num_workers=_w)

            _, t = repeat(threaded, n=3, warmup=2)
            plan = shard_plan_for(spec, built.rep, MODE, workers,
                                  plan_key=built.key)
            total = sum(s.cost for s in plan.shards)
            predicted = total / plan.makespan if plan.makespan else 1.0
            row += f" {serial_s / t.best:9.2f}x {predicted:9.2f}x"
            last_cell = (name, threaded)
        print(row)

    print("\npredicted = shard-cost sum / LPT makespan (what the partition "
          "allows);\nmeasured converges toward it as cores are added.")

    if last_cell is not None:
        name, threaded = last_cell
        with telemetry.capture() as events:
            threaded()
        trace = telemetry.parse_events(events)
        timelines = telemetry.worker_timelines(trace)
        if timelines:
            print(f"\nper-worker timeline of one traced dispatch ({name}, "
                  f"w={WORKER_COUNTS[-1]}):\n")
            print(telemetry.render_timeline(timelines[-1]))
            print("\nbusy < wall explains the measured-vs-predicted gap: "
                  "idle gaps are pool\ndispatch overhead and workers "
                  "waiting on the GIL between NumPy kernels.")


if __name__ == "__main__":
    main()
