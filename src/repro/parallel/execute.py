"""The one MTTKRP executor of the paper's own formats, serial or threaded.

A format declares its *kernel units* (``FormatSpec.units``): ``(kind,
rep)`` pairs of kind ``"coo"``, ``"csl"`` or ``"csf"`` (the CSF tree
kernel), Algorithm 5's groups in its order.  :func:`execute_mttkrp` checks
the factor shapes, allocates the output and converts the factor layouts
once per call, then runs every unit through :func:`_run_unit`: inline on
the serial backend, or cut into the row-disjoint shards of a
:class:`~repro.parallel.partition.ShardPlan` and run on pool threads.

Threads write disjoint output rows, so the shard order is no concern for
determinism: the serial float association lives entirely inside each
shard's kernel, and the threaded result is bit-identical to serial.  NumPy
kernels release the GIL inside the heavy ufunc loops, which is where the
parallelism comes from; the Python-level shard dispatch is serialised by
the GIL but is O(shards), not O(nnz).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.kernels.csf_mttkrp import csf_mttkrp, rank_major, row_major
from repro.parallel.partition import ShardPlan
from repro.parallel.pool import run_tasks
from repro.telemetry import counter_add, span
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError

__all__ = ["execute_mttkrp"]

#: the factor layout each unit kind gathers from: whole rows of C row
#: tables for the row-major COO and CSL kernels, rank rows of F factors
#: for the tree kernel.
_LAYOUTS = {"coo": row_major, "csl": row_major, "csf": rank_major}


def _run_unit(kind: str, rep, tables: list[np.ndarray], mode: int,
              out: np.ndarray, coo_method: str = "auto") -> None:
    """Accumulate one kernel unit (or shard of one) into ``out``, from
    factors already in the unit kind's layout."""
    if kind == "coo":
        coo_mttkrp(rep, tables, mode, out=out, method=coo_method,
                   validate=False)
    elif kind == "csl":
        rep.mttkrp(tables, out, validate=False)
    elif kind == "csf":
        csf_mttkrp(rep, tables, mode, out=out, validate=False)
    else:
        raise ValueError(f"unknown kernel unit kind {kind!r}")


def execute_mttkrp(units, shape: tuple[int, ...], factors: list[np.ndarray],
                   mode: int, out: np.ndarray | None = None, *, dtype=None,
                   validate: bool = True,
                   plan: ShardPlan | None = None) -> np.ndarray:
    """Mode-``mode`` MTTKRP of a representation of ``shape`` given as its
    kernel ``units``, accumulated into ``out``.

    ``validate=False`` skips the factor-shape check; the units run
    unchecked either way (a format's structural checks run where it
    declares its units).  An ``out`` made here is C-ordered: the row
    kernels add whole rows at roots spread over the output (4 cache lines
    per rank-32 row in C order against 32 in F order), and the tree
    kernel's rank-row writes were measured no slower into C than into F.
    The layout changes no bits.

    With no ``plan`` the units run inline in their order, each layout
    made when the first unit needing it runs and the row tables dropped
    before the tree kernel allocates its scratch.  A ``plan`` (the units
    cut into shards) runs on the pool: both layouts the shards need are
    made up front and shared by every thread.
    """
    if validate:
        rank = _check_factors(shape, factors, mode)
    else:
        rank = factors[mode].shape[1]
    rows = shape[mode]
    if out is None:
        out = np.zeros((rows, rank), dtype=resolve_dtype(dtype))
    elif out.shape != (rows, rank):
        raise DimensionError(
            f"out has shape {out.shape}, expected {(rows, rank)}")

    if plan is None:
        convert = tables = None
        for kind, rep in units:
            if not rep.nnz:
                continue
            if _LAYOUTS[kind] is not convert:
                tables = None   # free the last layout before the next
                convert = _LAYOUTS[kind]
                tables = convert(factors, out.dtype, skip=mode)
            _run_unit(kind, rep, tables, mode, out)
        return out

    if not plan.shards:
        return out
    made = {convert: convert(factors, out.dtype, skip=mode)
            for convert in {_LAYOUTS[s.kind] for s in plan.shards}}
    layouts = {kind: made.get(convert) for kind, convert in _LAYOUTS.items()}
    counter_add("parallel.dispatches")
    counter_add("parallel.shards", len(plan.shards))
    # One span per shard, explicitly parented under the dispatch span (pool
    # threads have their own span stacks, so implicit nesting cannot cross
    # the thread boundary).  The shard attrs carry the LPT assignment --
    # worker index and integer nnz cost -- so a trace reconstructs the
    # per-worker timeline and checks it against ``plan.loads`` exactly.
    # Spans are no-ops while tracing is off.
    with span("parallel.execute", format=plan.format, mode=mode,
              num_workers=plan.num_workers, shards=len(plan.shards),
              loads=list(plan.loads), makespan=plan.makespan,
              total_nnz=plan.total_nnz) as ex:

        def run(worker: int, bucket) -> None:
            for shard in bucket:
                with span("parallel.shard", parent=ex.id, worker=worker,
                          cost=shard.cost, kind=shard.kind):
                    _run_unit(shard.kind, shard.rep, layouts[shard.kind],
                              mode, out, shard.coo_method or "auto")

        run_tasks([(lambda w=w, b=b: run(w, b))
                   for w, b in enumerate(plan.worker_shards()) if b])
    return out
