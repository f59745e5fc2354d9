"""End-to-end measurement: set-up, ALS iterations, MTTKRP sweeps, memory.

What a user of the library sees for one tensor:

* ``setup_s`` — ``MttkrpPlan(X, format="hb-csf")`` over all modes from a
  cold plan cache on a tensor object never seen before (so its content
  fingerprint is computed too), plus ``shard_plan_for`` per mode when the
  workload runs threaded.  Median of :data:`SETUP_REPEATS` set-ups.
* ``als_iter_s`` — ``cp_als`` wall time / iterations, warm plan cache,
  ``tol=0`` and :data:`ALS_ITERS` iterations per solve.  Median of solves.
* ``mttkrp_mnnz_s`` — ``order * nnz / t`` for one all-mode sweep of
  ``MttkrpPlan.mttkrp``, ``t`` summing each mode's median over the sweeps.
* ``peak_rss_mb`` — ``ru_maxrss`` of this process at the end of the run.
* ``index_mb`` — the three per-mode representations' index words x 4 B.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time

from repro.core.mttkrp import MttkrpPlan
from repro.cpd import cp_als, init_factors
from repro.formats import clear_plan_cache, get_format
from repro.parallel.partition import shard_plan_for
from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.coo import CooTensor

from perfbench import oracle
from perfbench.harness import OP_DEADLINE_S, Harness
from perfbench.workloads import RANK, Workload

FORMAT = "hb-csf"
SETUP_REPEATS = 3
ALS_ITERS = 1
#: sweep + solve rounds run even when ``--seconds`` is shorter.
MIN_ROUNDS = 3

MB = 1e6


def fresh_copy(tensor: CooTensor) -> CooTensor:
    """An equal tensor with its own arrays: no cached fingerprint or plan."""
    return CooTensor(tensor.indices.copy(), tensor.values.copy(),
                     tensor.shape, validate=False)


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def _fmt(samples) -> str:
    return " ".join(f"{v:.3f}" for v in samples)


def setup_plan(h: Harness, wl: Workload,
               tensor: CooTensor) -> tuple[MttkrpPlan, float]:
    """One timed set-up: ``(plan, seconds)``; its cache entries stay warm."""
    with h.op("setup") as t:
        plan = MttkrpPlan(tensor, format=FORMAT, backend=wl.backend,
                          num_workers=wl.num_workers)
        if wl.backend == "threads":
            spec = get_format(FORMAT)
            for m in plan.modes:
                shard_plan_for(spec, plan.representations[m], m,
                               wl.num_workers, plan_key=plan.plan_keys[m])
    return plan, t.seconds


def sweep(h: Harness, plan: MttkrpPlan, factors):
    """One all-mode MTTKRP sweep: ``(outputs, op ids, seconds per mode)``."""
    outs, ops, laps = [], [], []
    with h.span("sweep"):
        for m in plan.modes:
            with h.op("mttkrp", mode=m) as t:
                outs.append(plan.mttkrp(factors, m))
            ops.append(t.id)
            laps.append(t.seconds)
    return outs, ops, laps


def check_outputs(h: Harness, wl: Workload, plan: MttkrpPlan, x: CooTensor,
                  factors, outs, ops) -> None:
    """The oracle for one sweep's outputs (untimed): each mode against the
    ``coo`` kernel, and threaded runs bit-identical to serial."""
    coo = get_format("coo")
    with h.span("oracle"):
        for m in plan.modes:
            with h.op("oracle.coo", mode=m):
                # a CooTensor is a valid coo representation as it stands
                ref = coo.mttkrp(x, factors, m, backend="serial")
            reason = oracle.check_close(outs[m], ref, f"mode {m} vs coo")
            if reason:
                h.fail(ops[m], reason)
            if wl.backend == "threads":
                with h.op("oracle.serial", mode=m):
                    ref = plan.mttkrp(factors, m, backend="serial")
                reason = oracle.check_identical(
                    outs[m], ref, f"mode {m} threads vs serial")
                if reason:
                    h.fail(ops[m], reason)
            del ref


def run(h: Harness, wl: Workload, tensor: CooTensor, seed: int,
        seconds: float) -> dict:
    """Measure one workload end to end; returns metrics and raw samples."""
    setups = []
    with h.span("setup.repeats"):
        for _ in range(SETUP_REPEATS):
            plan = x = None
            clear_plan_cache()
            x = fresh_copy(tensor)
            gc.collect()
            plan, took = setup_plan(h, wl, x)
            setups.append(took)
    index_words = plan.index_storage_words()
    factors = init_factors(x, RANK, "random", rng=seed)

    sweeps, per_iter, solves = [], [], []
    digests = t_end = None
    before = counters_snapshot()
    with h.span("measure"):
        while True:
            outs, ops, laps = sweep(h, plan, factors)
            sweeps.append(laps)
            total = sum(laps)
            if digests is None:
                check_outputs(h, wl, plan, x, factors, outs, ops)
                digests = [oracle.digest(out) for out in outs]
                # the measured window starts with this sweep, not the check
                t_end = time.perf_counter() + seconds - total
            else:
                for m, (out, op) in enumerate(zip(outs, ops)):
                    if oracle.digest(out) != digests[m]:
                        h.fail(op, f"mttkrp mode {m}: repeat differs from "
                                   "the first sweep")
            del outs
            with h.op("cp_als") as t:
                result = cp_als(x, RANK, n_iters=ALS_ITERS, tol=0.0,
                                format=FORMAT, rng=seed, backend=wl.backend,
                                num_workers=wl.num_workers,
                                deadline=OP_DEADLINE_S)
            reason = oracle.check_als(result, ALS_ITERS)
            if reason:
                h.fail(t.id, reason)
            per_iter.append(t.seconds / max(result.iterations, 1))
            solves.append((t.seconds, result.mttkrp_seconds,
                           result.iterations))
            # stop before a round that would overrun the window
            if (len(sweeps) >= MIN_ROUNDS
                    and time.perf_counter() + total + t.seconds > t_end):
                break

    counters = counters_delta(before)

    # a sweep's time is the sum of each mode's median MTTKRP time: one
    # disturbed call then shifts its own mode's samples, not the sum's
    mode_laps = list(zip(*sweeps))
    sweep_s = sum(statistics.median(laps) for laps in mode_laps)
    print(f"samples: setup_s {_fmt(setups)}; "
          + "; ".join(f"mttkrp_s.m{m} {_fmt(laps)}"
                      for m, laps in enumerate(mode_laps))
          + f"; als_iter_s {_fmt(per_iter)}", file=sys.stderr)
    nnz_passes = x.order * x.nnz
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "als_iter_s": (statistics.median(per_iter), "s/iter"),
        "mttkrp_mnnz_s": (nnz_passes / sweep_s / 1e6, "Mnnz/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "index_mb": (index_words * 4 / MB, "MB"),
    }
    return {"metrics": metrics, "tensor": x, "plan": plan,
            "factors": factors, "solves": solves, "last_result": result,
            "counters": counters}
