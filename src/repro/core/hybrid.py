"""HB-CSF: the Hybrid Balanced-CSF format (Section V / Algorithm 5).

Slices of a CSF tree are partitioned into three groups and each group is
stored in the representation that wastes the least space and work on it:

1. slices holding a **single nonzero**            → COO;
2. slices whose fibers are **all singletons**     → CSL;
3. everything else                                → B-CSF (with fbr-/slc-split).

The three groups are the representation's kernel units
(:meth:`HbcsfTensor.units`): one MTTKRP call runs the three group kernels
into the same output matrix, exactly as lines 18-20 of Algorithm 5, on
the executor every own format shares (:mod:`repro.parallel.execute`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bcsf import BcsfTensor, build_bcsf
from repro.core.csl import CslGroup, empty_csl_group, length_order
from repro.core.splitting import SplitConfig
from repro.parallel.execute import execute_mttkrp
from repro.tensor.coo import CooTensor, INDEX_DTYPE, VALUE_DTYPE, csf_mode_ordering
from repro.tensor.csf import CsfTensor, _CsfAssembler, _level_bounds, _sorted_chunks
from repro.util.errors import DimensionError

__all__ = ["SlicePartition", "HbcsfTensor", "partition_slices", "build_hbcsf"]

#: rows of a sorted chunk :func:`build_hbcsf` routes at a time, so the
#: router's masks, gathered columns and CSL destinations stay a few MB
#: however large an in-memory chunk is.  At 2x10^5 nonzeros routing a
#: whole chunk peaks at 3.39x the input on the hypersparse shape of
#: ``tests/core/test_build_memory.py`` (bound 3.4); blocks of 2^12 / 2^14
#: / 2^16 rows peak at 2.96 / 2.96 / 3.02x, and build the benchmark's
#: 10^6-nonzero tensors in the same time from 2^14 up (2^12: 3-8% slower).
ROUTE_ROWS = 1 << 14


@dataclass(frozen=True)
class SlicePartition:
    """Boolean masks assigning every CSF slice to exactly one group."""

    coo_mask: np.ndarray
    csl_mask: np.ndarray
    csf_mask: np.ndarray

    def counts(self) -> dict[str, int]:
        return {
            "coo": int(self.coo_mask.sum()),
            "csl": int(self.csl_mask.sum()),
            "csf": int(self.csf_mask.sum()),
        }

    def validate(self) -> None:
        total = (self.coo_mask.astype(int) + self.csl_mask.astype(int)
                 + self.csf_mask.astype(int))
        if np.any(total != 1):
            raise DimensionError("slice partition is not an exact 3-way partition")


class _PartitionScanner:
    """One pass over a sorted, deduplicated nonzero stream collecting, per
    root index, the statistics Algorithm 5 partitions on — nonzeros per
    slice and maximum fiber length per slice — plus the per-level node
    counts of the would-be B-CSF subtree, so :func:`build_hbcsf` can
    preallocate every output array without building the full CSF tree.
    """

    def __init__(self, shape: tuple[int, ...],
                 mode_order: tuple[int, ...]) -> None:
        self.mode_order = mode_order
        self.order = len(shape)
        dim = shape[mode_order[0]]
        self.nnz_per_root = np.zeros(dim, dtype=np.int64)
        # per-root node counts for internal levels 1 .. order-2
        self.level_counts = [np.zeros(dim, dtype=np.int64)
                             for _ in range(self.order - 2)]
        self.max_fiber_len = np.zeros(dim, dtype=np.int64)
        self._prev: np.ndarray | None = None
        self._open_len = 0    # nonzeros of the fiber still open at the edge
        self._open_root = -1  # root index that open fiber belongs to

    def scan(self, idx: np.ndarray) -> None:
        n = idx.shape[0]
        if n == 0:
            return
        bounds = _level_bounds(idx, self.mode_order, self._prev)
        dim = self.nnz_per_root.shape[0]
        root = idx[:, self.mode_order[0]]
        self.nnz_per_root += np.bincount(root, minlength=dim)
        for level in range(1, self.order - 1):
            self.level_counts[level - 1] += np.bincount(
                root[bounds[level]], minlength=dim)
        # Fiber lengths are gaps between starts at the deepest internal
        # level; a fiber spanning a chunk edge is carried as (_open_len,
        # _open_root) and closed by the next start (or finish()).
        starts = np.flatnonzero(bounds[self.order - 2])
        if starts.shape[0] == 0:
            self._open_len += n
        else:
            if self._open_root >= 0:
                first = self._open_len + int(starts[0])
                if first > self.max_fiber_len[self._open_root]:
                    self.max_fiber_len[self._open_root] = first
            if starts.shape[0] > 1:
                np.maximum.at(self.max_fiber_len, root[starts[:-1]],
                              np.diff(starts))
            self._open_len = n - int(starts[-1])
            self._open_root = int(root[starts[-1]])
        self._prev = np.array(idx[-1])

    def finish(self) -> tuple[np.ndarray, SlicePartition]:
        """Close the last fiber; return (present root ids, partition).

        ``present`` lists the root indices that hold nonzeros in ascending
        order — the slice order of the CSF tree — and the partition masks
        classify them per Algorithm 5 (lines 10-16).
        """
        if self._open_root >= 0 and \
                self._open_len > self.max_fiber_len[self._open_root]:
            self.max_fiber_len[self._open_root] = self._open_len
        present = np.flatnonzero(self.nnz_per_root)
        coo_mask = self.nnz_per_root[present] == 1
        # A slice is "all singleton fibers" iff its maximum fiber length is 1.
        csl_mask = (~coo_mask) & (self.max_fiber_len[present] == 1)
        csf_mask = ~(coo_mask | csl_mask)
        partition = SlicePartition(coo_mask, csl_mask, csf_mask)
        partition.validate()
        return present, partition


def partition_slices(csf: CsfTensor) -> SlicePartition:
    """Classify each slice per the rules of Algorithm 5 (lines 10-16).

    Runs the :func:`build_hbcsf` scan over the tree's leaves, which
    :meth:`CsfTensor.to_coo` yields in sorted order.
    """
    scanner = _PartitionScanner(csf.shape, csf.mode_order)
    scanner.scan(csf.to_coo().indices)
    return scanner.finish()[1]


@dataclass(frozen=True)
class HbcsfTensor:
    """Hybrid B-CSF representation for one root mode."""

    shape: tuple[int, ...]
    mode_order: tuple[int, ...]
    partition: SlicePartition
    coo_group: CooTensor
    csl_group: CslGroup
    bcsf_group: BcsfTensor | None
    config: SplitConfig

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def root_mode(self) -> int:
        return self.mode_order[0]

    @property
    def nnz(self) -> int:
        return (self.coo_group.nnz + self.csl_group.nnz
                + (self.bcsf_group.nnz if self.bcsf_group is not None else 0))

    def group_nnz(self) -> dict[str, int]:
        return {
            "coo": self.coo_group.nnz,
            "csl": self.csl_group.nnz,
            "csf": self.bcsf_group.nnz if self.bcsf_group is not None else 0,
        }

    def group_slices(self) -> dict[str, int]:
        return self.partition.counts()

    # ------------------------------------------------------------------ #
    # computation / accounting
    # ------------------------------------------------------------------ #
    def units(self) -> tuple[tuple[str, object], ...]:
        """The group kernels as ``(kind, group)`` kernel units, in the
        order of Algorithm 5 (lines 18-20): COO, CSL, then the B-CSF tree."""
        units = (("coo", self.coo_group), ("csl", self.csl_group))
        if self.bcsf_group is not None:
            units += (("csf", self.bcsf_group.csf),)
        return units

    def mttkrp(self, factors: list[np.ndarray],
               out: np.ndarray | None = None,
               dtype=None, validate: bool = True) -> np.ndarray:
        """Run the three group kernels (Algorithm 5, lines 18-20) serially.

        The executor checks the factor shapes once (``validate=False``
        skips that too; the groups were validated at build time), converts
        the factors once for the groups present and makes a C-ordered
        ``out`` (see :func:`~repro.parallel.execute.execute_mttkrp`).
        """
        return execute_mttkrp(self.units(), self.shape, factors,
                              self.root_mode, out, dtype=dtype,
                              validate=validate)

    def index_storage_words(self) -> int:
        """Total 32-bit index words across the three groups (Section V-B)."""
        words = self.order * self.coo_group.nnz          # full COO tuples
        words += self.csl_group.index_storage_words()
        if self.bcsf_group is not None:
            words += self.bcsf_group.index_storage_words()
        return int(words)

    def to_coo(self) -> CooTensor:
        """Reassemble the full tensor (testing / round-trip checks)."""
        parts: list[CooTensor] = []
        if self.coo_group.nnz:
            parts.append(self.coo_group)
        if self.csl_group.nnz:
            parts.append(self.csl_group.to_coo())
        if self.bcsf_group is not None and self.bcsf_group.nnz:
            parts.append(self.bcsf_group.to_coo())
        if not parts:
            return CooTensor.empty(self.shape)
        indices = np.concatenate([p.indices for p in parts], axis=0)
        values = np.concatenate([p.values for p in parts])
        return CooTensor(indices, values, self.shape, validate=False)

    def describe(self) -> dict[str, object]:
        return {
            "root_mode": self.root_mode,
            "nnz": self.nnz,
            "slices": self.group_slices(),
            "group_nnz": self.group_nnz(),
            "index_words": self.index_storage_words(),
        }


def build_hbcsf(
    tensor: CooTensor | CsfTensor,
    mode: int = 0,
    config: SplitConfig | None = None,
) -> HbcsfTensor:
    """Build the HB-CSF representation rooted at ``mode`` (Algorithm 5).

    ``tensor`` is a :class:`CooTensor`, a sharded tensor (streamed one
    shard at a time) or a CSF tree rooted at ``mode``.  The full CSF tree
    is never built: a :class:`_PartitionScanner` pass over the sorted
    nonzeros sizes the three groups, then a second pass routes each chunk's
    rows by their slice's group straight into preallocated COO / CSL arrays
    or a CSF assembler fed only the B-CSF slices.  Group membership is per
    whole slice and the stream is sorted, so every routed sub-stream is
    sorted with no slice split across groups.
    """
    config = config or SplitConfig()
    if isinstance(tensor, CsfTensor):
        if tensor.root_mode != mode:
            raise DimensionError(
                f"CSF is rooted at mode {tensor.root_mode}, requested mode {mode}"
            )
        mode_order = tensor.mode_order
        leaves = tensor.to_coo()
        chunks = lambda: (leaves,)  # noqa: E731
    else:
        if tensor.order < 2:
            raise DimensionError("HB-CSF requires an order >= 2 tensor")
        mode_order = csf_mode_ordering(tensor.order, mode)
        chunks = _sorted_chunks(tensor, mode_order)
    shape = tensor.shape
    order = len(shape)
    root = mode_order[0]

    scanner = _PartitionScanner(shape, mode_order)
    for chunk in chunks():
        scanner.scan(chunk.indices)
    present, partition = scanner.finish()
    nnz_present = scanner.nnz_per_root[present]

    # COO group: one nonzero per slice, rows in stream (= sorted) order.
    coo_nnz = int(partition.coo_mask.sum())
    coo_idx = np.empty((coo_nnz, order), dtype=INDEX_DTYPE)
    coo_vals = np.empty(coo_nnz, dtype=VALUE_DTYPE)

    # CSL group: non-root columns in mode_order[1:], slices in length
    # order (core.csl.length_order).
    csl_roots = present[partition.csl_mask]
    csl_counts = nnz_present[partition.csl_mask]
    csl_nnz = int(csl_counts.sum())
    rest_indices = np.empty((csl_nnz, order - 1), dtype=INDEX_DTYPE)
    csl_vals = np.empty(csl_nnz, dtype=VALUE_DTYPE)

    # B-CSF group: a CSF assembler whose level sizes are preset from the
    # scanner's per-root node counts — no counting pass over the stream.
    csf_roots = present[partition.csf_mask]
    asm = _CsfAssembler(shape, mode_order)
    asm.node_counts = [csf_roots.shape[0]] + [
        int(counts[csf_roots].sum()) for counts in scanner.level_counts]
    asm.nnz = int(nnz_present[partition.csf_mask].sum())
    asm.allocate()

    # 0 = COO, 1 = CSL, 2 = B-CSF; roots absent from the stream never
    # appear in a chunk, so their (arbitrary) label is never read.
    group_of_root = np.zeros(shape[root], dtype=np.int8)
    group_of_root[csl_roots] = 1
    group_of_root[csf_roots] = 2

    # The CSL slice pointer comes straight from the scanner's per-slice
    # counts.  CSL nonzeros arrive in root order, slice s's at stream
    # positions [stream_ptr[s], stream_ptr[s + 1]), and shift[s] moves
    # them to length order.  The dels below keep these per-slice
    # temporaries out of the B-CSF build's peak.
    csl_order, slice_ptr, shift = length_order(csl_counts)
    stream_ptr = np.zeros(csl_counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(csl_counts, out=stream_ptr[1:])

    coo_pos = csl_pos = 0
    for chunk in chunks():
        for lo in range(0, chunk.indices.shape[0], ROUTE_ROWS):
            idx = chunk.indices[lo:lo + ROUTE_ROWS]
            vals = chunk.values[lo:lo + ROUTE_ROWS]
            grp = group_of_root[idx[:, root]]
            sel = grp == 0
            k = int(np.count_nonzero(sel))
            if k:
                coo_idx[coo_pos:coo_pos + k] = idx[sel]
                coo_vals[coo_pos:coo_pos + k] = vals[sel]
                coo_pos += k
            sel = grp == 1
            k = int(np.count_nonzero(sel))
            if k:
                # the slices overlapping stream positions [csl_pos, end)
                end = csl_pos + k
                s0 = np.searchsorted(stream_ptr, csl_pos, side="right") - 1
                s1 = np.searchsorted(stream_ptr, end, side="left")
                cover = np.clip(stream_ptr[s0:s1 + 1], csl_pos, end)
                dest = np.repeat(shift[s0:s1], np.diff(cover))
                dest += np.arange(csl_pos, end)
                # 1-D masks and scatters: no (dest, col) index broadcast
                for col, m in enumerate(mode_order[1:]):
                    rest_indices[:, col][dest] = idx[:, m][sel]
                csl_vals[dest] = vals[sel]
                csl_pos += k
            sel = grp == 2
            if sel.any():
                asm.fill(idx[sel], vals[sel])

    del shift, stream_ptr
    slice_inds = csl_roots[csl_order].astype(INDEX_DTYPE)
    del csl_order
    coo_group = (CooTensor(coo_idx, coo_vals, shape, validate=False)
                 if coo_nnz else CooTensor.empty(shape))

    if csl_nnz:
        csl_group = CslGroup(
            shape=shape,
            mode_order=mode_order,
            slice_ptr=slice_ptr,
            slice_inds=slice_inds,
            rest_indices=rest_indices,
            values=csl_vals,
        )
        csl_group.validate()
    else:
        csl_group = empty_csl_group(shape, mode_order)

    bcsf_group: BcsfTensor | None = None
    if asm.nnz:
        bcsf_group = build_bcsf(asm.finish(), mode, config)

    return HbcsfTensor(
        shape=shape,
        mode_order=mode_order,
        partition=partition,
        coo_group=coo_group,
        csl_group=csl_group,
        bcsf_group=bcsf_group,
        config=config,
    )
