"""Per-layer metrics for the traced run, measured from outside each layer.

Every value comes from timing a call into one module's public functions
(or from an exact count those functions return).  ``.m<k>`` suffixes are
per mode.  Which end-to-end metric each layer should move, on which
workload, is tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.analysis.opcount import hbcsf_operations
from repro.core.hybrid import build_hbcsf, partition_slices
from repro.cpd.fit import cp_fit, tensor_norm
from repro.formats import (build_plan, clear_plan_cache, get_format,
                           tensor_fingerprint)
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.parallel.partition import shard_plan_for
from repro.tensor.coo import csf_mode_ordering
from repro.tensor.csf import build_csf

from perfbench import oracle
from perfbench.endtoend import FORMAT, fresh_copy
from perfbench.harness import Harness
from perfbench.workloads import RANK

#: worker count of the parallel-layer probes (the threaded workload's).
PAR_WORKERS = 2
#: warm ``build_plan`` lookups timed for ``formats.plan_hit_s``.
PLAN_HITS = 200
#: ``cp_fit`` calls timed for ``cpd.fit_s``.
FIT_REPEATS = 5
#: array size of the machine bandwidth probes.  It is far below 4x a
#: typical server's last-level cache, so no bandwidth fraction is derived
#: from these probes (README: left out).
PROBE_BYTES = 32 << 20
PROBE_REPEATS = 5

GROUPS = ("coo", "csl", "csf")


def _median_time(fn, repeats: int) -> float:
    laps = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - start)
    return statistics.median(laps)


def computed_bytes(rep, rank: int) -> int:
    """Bytes one hb-csf MTTKRP moves, computed from the structure.

    8 B per index word (int64 in memory) and per value, ``rank`` x 8 B per
    gathered factor row (every non-root coordinate of a COO/CSL nonzero,
    every non-root CSF node), and ``2 x rank`` x 8 B per output row (read
    and write).  Cache misses are ignored: this is a computed figure.
    """
    order = rep.order
    index_words = get_format(FORMAT).storage_words(rep)
    gathered = (order - 1) * (rep.coo_group.nnz + rep.csl_group.nnz)
    if rep.bcsf_group is not None:
        gathered += sum(int(f.shape[0]) for f in rep.bcsf_group.csf.fids[1:])
    out_rows = sum(rep.group_slices().values())
    return 8 * (index_words + rep.nnz + rank * (gathered + 2 * out_rows))


def group_kernels(rep, factors):
    """``(name, call)`` for each HB-CSF group kernel, called as Algorithm 5
    calls them; each call accumulates into the ``out`` it is given.  An
    empty group is still called (and timed): its kernel returns at once."""
    def bcsf(out):
        if rep.bcsf_group is not None:
            rep.bcsf_group.mttkrp(factors, out=out, validate=False)

    return (
        ("coo", lambda out: coo_mttkrp(rep.coo_group, factors, rep.root_mode,
                                       out=out, validate=False)),
        ("csl", lambda out: rep.csl_group.mttkrp(factors, out,
                                                 validate=False)),
        ("bcsf", bcsf),
    )


def machine_probes() -> dict:
    """numpy copy bandwidth (2 x array bytes / t, STREAM's convention) and
    row-gather bandwidth (gathered bytes / t), in GB/s."""
    n = PROBE_BYTES // 8
    rng = np.random.default_rng(0)
    src = rng.random(n)
    dst = np.empty_like(src)
    copy_s = _median_time(lambda: np.copyto(dst, src), PROBE_REPEATS)
    table = rng.random((n // RANK, RANK))
    idx = rng.integers(0, table.shape[0], size=n // RANK)
    buf = np.empty_like(table)
    gather_s = _median_time(lambda: np.take(table, idx, axis=0, out=buf),
                            PROBE_REPEATS)
    return {
        "machine.stream_gbs": (2 * PROBE_BYTES / copy_s / 1e9, "GB/s"),
        "machine.gather_gbs": (buf.nbytes / gather_s / 1e9, "GB/s"),
        "machine.probe_bytes": (PROBE_BYTES, "B"),
    }


def cpd_metrics(h: Harness, e2e: dict) -> dict:
    """ALS split into MTTKRP and dense algebra, plus the in-loop ``cp_fit``
    (the fast path: last mode's MTTKRP and the Gram matrices supplied)."""
    solves = e2e["solves"]
    metrics = {
        "cpd.mttkrp_share": (
            statistics.median(mt / wall for wall, mt, _ in solves),
            "fraction"),
        "cpd.dense_s_per_iter": (
            statistics.median((wall - mt) / it for wall, mt, it in solves),
            "s/iter"),
    }
    x, result = e2e["tensor"], e2e["last_result"]
    last = x.order - 1
    m_last = e2e["plan"].mttkrp(result.factors, last)
    grams = [f.T @ f for f in result.factors]
    norm_x = tensor_norm(x)
    fits = []
    with h.op("cpd.fit") as t:
        fit_s = _median_time(lambda: fits.append(cp_fit(
            x, result.weights, result.factors, mttkrp_last=m_last,
            last_mode=last, norm_x=norm_x, grams=grams)), FIT_REPEATS)
    if not np.all(np.isfinite(fits)):
        h.fail(t.id, f"cp_fit not finite: {fits}")
    metrics["cpd.fit_s"] = (fit_s, "s")
    return metrics


def run(h: Harness, tensor, e2e: dict) -> dict:
    """Measure every layer on ``tensor``; returns ``{name: (value, unit)}``."""
    metrics = cpd_metrics(h, e2e)
    # plan-cache traffic of the measured ALS/MTTKRP loop (the library's
    # always-on counters): every lookup there should hit
    for event in ("hits", "misses"):
        metrics[f"formats.plan_cache_{event}"] = (
            e2e["counters"].get(f"plan_cache.{event}", 0), "count")
    factors = e2e["factors"]
    hb = get_format(FORMAT)
    x = fresh_copy(tensor)
    clear_plan_cache()
    with h.op("tensor.fingerprint") as t:
        tensor_fingerprint(x)
    metrics["tensor.fingerprint_s"] = (t.seconds, "s")

    for m in range(x.order):
        with h.span("layers.mode", mode=m):
            with h.op("tensor.sort", mode=m) as t:
                x.sorted_by_modes(csf_mode_ordering(x.order, m))
            metrics[f"tensor.sort_s.m{m}"] = (t.seconds, "s")
            with h.op("tensor.build_csf", mode=m) as t:
                csf = build_csf(x, m)
            metrics[f"tensor.build_csf_s.m{m}"] = (t.seconds, "s")
            with h.op("core.partition", mode=m) as t:
                partition_slices(csf)
            metrics[f"core.partition_s.m{m}"] = (t.seconds, "s")
            with h.op("core.build_hbcsf", mode=m) as t:
                build_hbcsf(csf, m)
            metrics[f"core.build_hbcsf_s.m{m}"] = (t.seconds, "s")
            del csf

            with h.op("formats.build_plan", mode=m) as t:
                rep = build_plan(x, FORMAT, m).rep
            metrics[f"formats.build_plan_s.m{m}"] = (t.seconds, "s")
            metrics[f"formats.index_words.m{m}"] = (hb.storage_words(rep),
                                                    "words")
            group_nnz = rep.group_nnz()
            for g in GROUPS:
                metrics[f"core.group_nnz_frac.{g}.m{m}"] = (
                    group_nnz[g] / rep.nnz, "fraction")

            rows = x.shape[m]
            for g, call in group_kernels(rep, factors):
                out = np.zeros((rows, RANK))
                with h.op("core.group", group=g, mode=m) as t:
                    call(out)
                metrics[f"core.group_s.{g}.m{m}"] = (t.seconds, "s")
            del out

            with h.op("kernels.mttkrp", mode=m) as t:
                serial = hb.mttkrp(rep, factors, m, backend="serial")
            serial_s = t.seconds
            flops = hbcsf_operations(rep, RANK)
            moved = computed_bytes(rep, RANK)
            metrics[f"kernels.mttkrp_s.m{m}"] = (serial_s, "s")
            metrics[f"kernels.flops.m{m}"] = (flops, "flop")
            metrics[f"kernels.bytes.m{m}"] = (moved, "B")
            metrics[f"kernels.gflops.m{m}"] = (flops / serial_s / 1e9,
                                               "GFLOP/s")
            metrics[f"kernels.gbs.m{m}"] = (moved / serial_s / 1e9, "GB/s")

            with h.op("parallel.shard_plan", mode=m) as t:
                shards = shard_plan_for(hb, rep, m, PAR_WORKERS)
            metrics[f"parallel.shard_plan_s.m{m}"] = (t.seconds, "s")
            metrics[f"parallel.imbalance.m{m}"] = (
                shards.makespan / statistics.fmean(shards.loads), "ratio")
            with h.op("parallel.mttkrp", mode=m) as t:
                threaded = hb.mttkrp(rep, factors, m, backend="threads",
                                     num_workers=PAR_WORKERS)
            metrics[f"parallel.speedup.m{m}"] = (serial_s / t.seconds, "x")
            reason = oracle.check_identical(threaded, serial,
                                            f"mode {m} threads vs serial")
            if reason:
                h.fail(t.id, reason)
            del serial, threaded, rep

    # every mode's representation is cached now: time the warm lookup
    with h.op("formats.plan_hit") as t:
        hit_s = _median_time(lambda: build_plan(x, FORMAT, 0), PLAN_HITS)
    metrics["formats.plan_hit_s"] = (hit_s, "s")

    with h.op("machine.probes"):
        metrics.update(machine_probes())
    return metrics
