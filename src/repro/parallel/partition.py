"""Partitioner: cut a built representation into balanced worker shards.

The partition contract (what makes ``backend="threads"`` bit-identical to
serial) is that shards are cut **only at output-row boundaries**:

* **COO** — the representation is mode-major sorted, so each output row is
  one contiguous run of nonzeros; chunks are groups of whole runs.
* **CSF / B-CSF** — shards are contiguous ranges of level-0 slices (whole
  sub-trees); the level-0 fids are unique, so every output row belongs to
  exactly one shard.
* **CSL** — contiguous ranges of slices; ``slice_inds`` are unique.
* **HB-CSF** — its three groups partition the slices exactly (Algorithm 5),
  so the union of the groups' shards still touches each output row from
  exactly one shard.

Because every output row is computed entirely inside one shard, workers
write **disjoint rows of the shared output** — no private slabs, no
reduction pass — and each row's value is the same left-to-right float
accumulation the serial kernel performs.  Splitting a heavy slice across
workers (as the GPU slc-split does) would reassociate that sum and break
bit-identity, so it is deliberately not done; a dominant slice therefore
bounds the threaded speedup exactly as it bounds the simulated one.

Shards are sized by nnz cost estimates: rows/slices are folded into
``num_workers x OVERSUBSCRIPTION`` contiguous near-equal-cost chunks
(prefix sums + ``searchsorted``), and the chunks are assigned to workers by
the shared chunk-folded LPT (:mod:`repro.parallel.lpt` — the same
scheduling math as ``gpusim.schedule_blocks``).  The makespan stays within
``sum/P + max(chunk)`` of perfect balance.

:func:`shard_plan_for` memoises plans per representation object and stores
them in the content-addressed plan cache (keyed off the representation's
own build key plus the worker count), so sharding — like format building —
is paid once per tensor x mode x config x workers and amortised across ALS
iterations and repeated sweeps.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np

from repro.kernels.coo_mttkrp import auto_method
from repro.parallel.lpt import lpt_assign
from repro.tensor.coo import CooTensor
from repro.tensor.csf import CsfTensor

__all__ = [
    "OVERSUBSCRIPTION",
    "Shard",
    "ShardPlan",
    "shard_coo",
    "shard_csf",
    "shard_bcsf",
    "shard_csl",
    "shard_hbcsf",
    "shard_plan_for",
]

#: chunks produced per worker.  Oversubscription lets LPT even out chunks
#: whose nnz targets could not be hit exactly (cuts land on row/slice
#: boundaries); heavy slices become isolated chunks instead of dragging a
#: whole per-worker share with them.
OVERSUBSCRIPTION = 4


@dataclass(frozen=True)
class Shard:
    """One unit of worker work: a row-disjoint piece of the representation.

    ``kind`` selects the executing kernel (``"coo"`` / ``"csf"`` /
    ``"csl"``); ``rep`` is the sub-representation (array views into the
    parent wherever the formats allow); ``cost`` is the nnz-based load
    estimate LPT balanced.  COO shards carry the accumulation method the
    serial kernel would have chosen for the *full* representation
    (``coo_method``), so the threaded result replays serial's exact
    strategy.
    """

    kind: str
    rep: object
    cost: float
    coo_method: str | None = None


@dataclass(frozen=True)
class ShardPlan:
    """A complete partition of one representation for one worker count.

    ``assignment[i]`` is the worker that executes ``shards[i]``;
    ``loads`` is the per-worker cost total the LPT schedule produced.
    """

    format: str
    mode: int
    num_workers: int
    shards: tuple[Shard, ...]
    assignment: tuple[int, ...]
    loads: tuple[float, ...]
    total_nnz: int

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def nnz(self) -> int:
        """Nonzeros retained by the plan (the parent representation's nnz).

        Exposed under the name the plan cache's footprint estimator reads:
        shard ``rep``s hold views into the parent's value arrays, so a
        cached plan keeps those alive even if the parent's own build entry
        is evicted — the per-nonzero byte term must be charged to the plan.
        """
        return self.total_nnz

    @property
    def makespan(self) -> float:
        return max(self.loads) if self.loads else 0.0

    def worker_shards(self) -> list[list[Shard]]:
        """Shards grouped by worker, each list in shard-index order."""
        buckets: list[list[Shard]] = [[] for _ in range(self.num_workers)]
        for i, worker in enumerate(self.assignment):
            buckets[worker].append(self.shards[i])
        return buckets

    def index_storage_words(self) -> int:
        """32-bit words of index storage a cached plan keeps alive.

        Counts the rebased pointer copies the shards own *and* the index
        arrays their ``rep``s merely view (COO index columns, CSF fids,
        CSL slice/rest indices): a view pins the whole parent array, so a
        plan surviving its parent's build-cache entry retains essentially
        the parent's index footprint — the cache's byte bound must see it.
        The shards jointly cover the parent, so summing per-shard view
        lengths reproduces that footprint without reaching for the parent.
        """
        words = 0
        for shard in self.shards:
            rep = shard.rep
            if shard.kind == "coo":
                words += rep.order * rep.nnz
            elif shard.kind == "csf":
                words += sum(int(p.shape[0]) for p in rep.fptr)
                words += sum(int(f.shape[0]) for f in rep.fids)
            elif shard.kind == "csl":
                words += int(rep.slice_ptr.shape[0])
                words += int(rep.slice_inds.shape[0])
                words += (rep.order - 1) * rep.nnz
        return words


def _chunk_bounds(costs: np.ndarray, num_chunks: int) -> np.ndarray:
    """Boundaries ``[0..n]`` cutting ``costs`` into contiguous chunks of
    near-equal cumulative cost (cut positions snap to item boundaries)."""
    n = costs.shape[0]
    num_chunks = min(int(num_chunks), n)
    if num_chunks <= 1:
        return np.array([0, n], dtype=np.int64)
    cum = np.cumsum(costs)
    targets = cum[-1] * np.arange(1, num_chunks, dtype=np.float64) / num_chunks
    cuts = np.searchsorted(cum, targets, side="left") + 1
    return np.unique(np.concatenate(([0], cuts, [n]))).astype(np.int64)


def _assemble(format: str, mode: int, num_workers: int,
              shards: list[Shard], total_nnz: int) -> ShardPlan:
    costs = np.array([s.cost for s in shards], dtype=np.float64)
    assignment, loads = lpt_assign(costs, num_workers)
    return ShardPlan(
        format=format,
        mode=int(mode),
        num_workers=int(num_workers),
        shards=tuple(shards),
        assignment=tuple(int(w) for w in assignment),
        loads=tuple(float(x) for x in loads),
        total_nnz=int(total_nnz),
    )


# --------------------------------------------------------------------- #
# per-format shard builders
# --------------------------------------------------------------------- #
def _coo_shards(rep: CooTensor, mode: int, num_workers: int) -> list[Shard]:
    """Row-run chunks of a mode-major-sorted COO tensor.

    The accumulation method is pinned to what the serial kernel's
    ``"auto"`` would pick from the FULL nnz (:func:`auto_method`) —
    per-shard nnz falls below the sort threshold long before the serial
    path would, and switching strategies per shard would not be the
    serial computation any more.
    """
    if rep.nnz == 0:
        return []
    method = auto_method(rep.nnz)
    idx = rep.indices[:, mode]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(idx)) + 1))
    edges = np.concatenate((starts, [rep.nnz]))
    row_nnz = np.diff(edges).astype(np.float64)
    bounds = _chunk_bounds(row_nnz, num_workers * OVERSUBSCRIPTION)
    shards = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        a, b = int(edges[r0]), int(edges[r1])
        sub = CooTensor(rep.indices[a:b], rep.values[a:b], rep.shape,
                        validate=False)
        shards.append(Shard(kind="coo", rep=sub, cost=float(b - a),
                            coo_method=method))
    return shards


def _csf_subtree(csf: CsfTensor, s0: int, s1: int) -> CsfTensor:
    """The sub-tree of slices ``[s0, s1)`` — fids/values are views, only
    the pointer arrays are rebased copies."""
    lo, hi = int(s0), int(s1)
    sub_fids = [csf.fids[0][lo:hi]]
    sub_fptr = []
    for level in range(csf.order - 1):
        ptr = csf.fptr[level]
        sub_fptr.append(ptr[lo:hi + 1] - ptr[lo])
        lo, hi = int(ptr[lo]), int(ptr[hi])
        sub_fids.append(csf.fids[level + 1][lo:hi])
    return CsfTensor(csf.shape, csf.mode_order, sub_fptr, sub_fids,
                     csf.values[lo:hi])


def _csf_shards(csf: CsfTensor, num_workers: int) -> list[Shard]:
    """Contiguous slice-range sub-trees of a CSF tree."""
    if csf.nnz == 0:
        return []
    costs = csf.nnz_per_slice().astype(np.float64)
    bounds = _chunk_bounds(costs, num_workers * OVERSUBSCRIPTION)
    return [
        Shard(kind="csf", rep=_csf_subtree(csf, s0, s1),
              cost=float(costs[s0:s1].sum()))
        for s0, s1 in zip(bounds[:-1], bounds[1:])
    ]


def _csl_shards(group, num_workers: int) -> list[Shard]:
    """Contiguous slice ranges of a CSL group (pointer rebase only)."""
    if group.nnz == 0:
        return []
    costs = np.diff(group.slice_ptr).astype(np.float64)
    bounds = _chunk_bounds(costs, num_workers * OVERSUBSCRIPTION)
    shards = []
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        p0, p1 = int(group.slice_ptr[s0]), int(group.slice_ptr[s1])
        sub = type(group)(
            shape=group.shape,
            mode_order=group.mode_order,
            slice_ptr=group.slice_ptr[s0:s1 + 1] - p0,
            slice_inds=group.slice_inds[s0:s1],
            rest_indices=group.rest_indices[p0:p1],
            values=group.values[p0:p1],
        )
        shards.append(Shard(kind="csl", rep=sub, cost=float(p1 - p0)))
    return shards


def shard_coo(rep: CooTensor, mode: int, num_workers: int) -> ShardPlan:
    return _assemble("coo", mode, num_workers,
                     _coo_shards(rep, mode, num_workers), rep.nnz)


def shard_csf(rep: CsfTensor, mode: int, num_workers: int) -> ShardPlan:
    return _assemble("csf", mode, num_workers,
                     _csf_shards(rep, num_workers), rep.nnz)


def shard_bcsf(rep, mode: int, num_workers: int) -> ShardPlan:
    """B-CSF shards over the fiber-split tree (fbr-split is inherited; the
    slc-split thread-block binning is a GPU concept the CPU workers replace
    with LPT over slice-range chunks)."""
    return _assemble("b-csf", mode, num_workers,
                     _csf_shards(rep.csf, num_workers), rep.nnz)


def shard_csl(rep, mode: int, num_workers: int) -> ShardPlan:
    return _assemble("csl", mode, num_workers,
                     _csl_shards(rep, num_workers), rep.nnz)


def shard_hbcsf(rep, mode: int, num_workers: int) -> ShardPlan:
    """Compose the three group partitions (groups have disjoint root rows,
    so their shards are mutually row-disjoint by construction)."""
    shards: list[Shard] = []
    if rep.coo_group.nnz:
        shards.extend(_coo_shards(rep.coo_group, rep.root_mode, num_workers))
    if rep.csl_group.nnz:
        shards.extend(_csl_shards(rep.csl_group, num_workers))
    if rep.bcsf_group is not None and rep.bcsf_group.nnz:
        shards.extend(_csf_shards(rep.bcsf_group.csf, num_workers))
    return _assemble("hb-csf", mode, num_workers, shards, rep.nnz)


# --------------------------------------------------------------------- #
# cached sharding
# --------------------------------------------------------------------- #
#: (id(rep), mode, workers) -> ShardPlan; entries evaporate with their rep
#: (same finalizer pattern as the tensor-fingerprint memo).
_MEMO: dict[tuple, ShardPlan] = {}
_MEMO_LOCK = threading.Lock()


def shard_plan_for(spec, rep, mode: int, num_workers: int,
                   plan_key: tuple | None = None) -> ShardPlan:
    """Build (or fetch) the shard plan for one representation.

    Two cache layers: an object-identity memo (representations served by
    the plan cache keep a stable id, so repeat calls are dict hits), and —
    when the caller knows the representation's build-plan key — the
    content-addressed plan cache itself under ``plan_key + ("shards", P)``,
    which survives the representation being rebuilt and is evicted/
    discarded together with the format's other build artifacts.
    """
    memo_key = (id(rep), int(mode), int(num_workers))
    with _MEMO_LOCK:
        plan = _MEMO.get(memo_key)
    if plan is not None:
        return plan

    from repro.formats.plan_cache import plan_cache

    cache = plan_cache()
    cache_key = (plan_key + ("shards", int(num_workers))
                 if plan_key is not None else None)
    if cache_key is not None:
        entry = cache.get(cache_key)
        if entry is not None:
            plan = entry.rep

    if plan is None:
        start = time.perf_counter()
        plan = spec.sharder(rep, mode, num_workers)
        seconds = time.perf_counter() - start
        if cache_key is not None:
            cache.put(cache_key, plan, seconds)

    with _MEMO_LOCK:
        if memo_key not in _MEMO:
            _MEMO[memo_key] = plan
            weakref.finalize(rep, _MEMO.pop, memo_key, None)
    return plan
