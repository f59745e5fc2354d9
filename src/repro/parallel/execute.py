"""Threaded MTTKRP execution over a shard plan.

Thin by design: :mod:`repro.parallel.partition` already guarantees the
shards of a plan touch disjoint output rows, so execution is just "run the
serial kernel of each shard into the shared output from a pool thread".
Per-worker task order follows shard-index order, though any output row is
written by exactly one shard, so ordering is a non-issue for determinism —
the serial float association lives entirely inside each shard's kernel.

NumPy kernels release the GIL inside the heavy ufunc loops, which is where
the actual parallelism comes from; the Python-level shard dispatch is
serialised by the GIL but is O(shards), not O(nnz).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csf_mttkrp import rank_major, row_major
from repro.parallel.partition import Shard, shard_plan_for
from repro.parallel.pool import resolve_workers, run_tasks
from repro.telemetry import counter_add, span, tracing_enabled
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError

__all__ = ["threaded_mttkrp"]


def _run_shard(shard: Shard, factors: list[np.ndarray], mode: int,
               out: np.ndarray) -> None:
    """Execute one shard's serial kernel into the shared output."""
    if shard.kind == "coo":
        from repro.kernels.coo_mttkrp import coo_mttkrp

        coo_mttkrp(shard.rep, factors, mode, out=out,
                   method=shard.coo_method or "auto",
                   validate=False)
    elif shard.kind == "csf":
        from repro.kernels.csf_mttkrp import csf_mttkrp

        csf_mttkrp(shard.rep, factors, out=out, validate=False)
    elif shard.kind == "csl":
        shard.rep.mttkrp(factors, out, validate=False)
    else:  # pragma: no cover - partitioner only emits the three kinds
        raise ValueError(f"unknown shard kind {shard.kind!r}")


def threaded_mttkrp(
    spec,
    rep,
    factors: list[np.ndarray],
    mode: int,
    out: np.ndarray | None = None,
    *,
    dtype=None,
    validate: bool = True,
    num_workers: int | None = None,
    plan_key: tuple | None = None,
) -> np.ndarray:
    """MTTKRP of a built representation on the threaded backend.

    Bit-identical to ``spec.mttkrp(rep, ...)`` on the serial backend: the
    shard plan cuts only at output-row boundaries and each shard runs the
    unmodified serial kernel; COO shards replay the ``"auto"`` choice the
    serial kernel makes for the full nnz.  :meth:`FormatSpec.mttkrp
    <repro.formats.FormatSpec.mttkrp>` is the one caller: it routes here
    when the backend resolves to threads with more than one worker.

    ``plan_key`` — the representation's build-plan cache key — lets the
    shard plan be content-addressed alongside the build artifact it
    partitions.

    An ``out`` made here is C-ordered, like the one
    :meth:`HbcsfTensor.mttkrp <repro.core.hybrid.HbcsfTensor.mttkrp>`
    makes: whole rows for the row kernels, and no slower for the tree
    kernel.  The layout changes no bits.
    """
    if validate:
        rank = _check_factors(rep.shape, factors, mode)
    else:
        rank = factors[mode].shape[1]
    rows = rep.shape[mode]
    if out is None:
        out = np.zeros((rows, rank), dtype=resolve_dtype(dtype))
    elif out.shape != (rows, rank):
        raise DimensionError(
            f"out has shape {out.shape}, expected {(rows, rank)}")

    workers = resolve_workers(num_workers)
    plan = shard_plan_for(spec, rep, mode, workers, plan_key)
    if not plan.shards:
        return out

    # convert once here so pool threads share the converted arrays instead
    # of each shard's kernel copying its own: rank-major for CSF shards,
    # C-contiguous row tables for the row-major COO and CSL kernels, each
    # only if some shard needs it
    kinds = {shard.kind for shard in plan.shards}
    row_tables = (row_major(factors, out.dtype, skip=mode)
                  if kinds & {"coo", "csl"} else None)
    layouts = {"coo": row_tables, "csl": row_tables,
               "csf": (rank_major(factors, out.dtype, skip=mode)
                       if "csf" in kinds else None)}
    buckets = [(w, b) for w, b in enumerate(plan.worker_shards()) if b]
    counter_add("parallel.dispatches")
    counter_add("parallel.shards", len(plan.shards))
    if not tracing_enabled():
        run_tasks([
            (lambda bucket=bucket: [
                _run_shard(shard, layouts[shard.kind], mode, out)
                for shard in bucket
            ])
            for _, bucket in buckets
        ])
        return out

    # traced dispatch: one span per shard, explicitly parented under this
    # dispatch span (pool threads have their own span stacks, so implicit
    # nesting cannot cross the thread boundary).  The shard attrs carry the
    # LPT assignment — worker index and integer nnz cost — so a trace
    # reconstructs the per-worker timeline and checks it against
    # ``plan.loads`` exactly.
    with span("parallel.execute", format=spec.name, mode=mode,
              num_workers=plan.num_workers, shards=len(plan.shards),
              loads=list(plan.loads), makespan=plan.makespan,
              total_nnz=plan.total_nnz) as ex:
        parent_id = ex.id

        def _run_traced(worker: int, shard: Shard) -> None:
            with span("parallel.shard", parent=parent_id, worker=worker,
                      cost=shard.cost, kind=shard.kind):
                _run_shard(shard, layouts[shard.kind], mode, out)

        run_tasks([
            (lambda worker=worker, bucket=bucket: [
                _run_traced(worker, shard) for shard in bucket
            ])
            for worker, bucket in buckets
        ])
    return out
