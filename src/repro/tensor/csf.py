"""Compressed Sparse Fiber (CSF) representation.

CSF (Smith et al., SPLATT) generalises doubly-compressed CSR to tensors: a
tensor rooted at a given mode is stored as a tree with one level per mode.
Level 0 nodes are the non-empty *slices*, level ``N-2`` nodes are the
non-empty *fibers* and the leaves are the nonzeros.

This module stores the tree with SPLATT-style arrays:

* ``fids[level]``  - the index (coordinate along that level's mode) of every
  node at ``level``;
* ``fptr[level]``  - for ``level < N-1``, node ``n`` owns children
  ``fptr[level][n] : fptr[level][n+1]`` at ``level+1``;
* ``values``       - leaf values, aligned with ``fids[N-1]``.

Following the paper (and SPLATT's ALLMODE configuration) a separate CSF is
built per root mode; MTTKRP for mode ``n`` always uses the representation
rooted at ``n``.

:func:`build_csf` is the one construction: two passes (count, then fill
exact-size arrays) over the sorted, deduplicated nonzero stream, which is
one chunk for an in-memory tensor and one chunk per shard for a sharded
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor.coo import CooTensor, INDEX_DTYPE, VALUE_DTYPE, csf_mode_ordering
from repro.util.errors import DimensionError, TensorFormatError

__all__ = ["CsfTensor", "build_csf"]


@dataclass(frozen=True)
class CsfTensor:
    """A CSF tree for one root mode.

    Attributes
    ----------
    shape:
        Shape of the underlying tensor in its *original* mode order.
    mode_order:
        Permutation mapping tree level -> original mode (root first).
    fptr:
        List of ``order - 1`` pointer arrays; ``fptr[l][n]`` is the first
        child of node ``n`` of level ``l``.
    fids:
        List of ``order`` index arrays; ``fids[l][n]`` is the coordinate of
        node ``n`` along mode ``mode_order[l]``.
    values:
        Leaf values aligned with ``fids[-1]``.
    """

    shape: tuple[int, ...]
    mode_order: tuple[int, ...]
    fptr: list[np.ndarray]
    fids: list[np.ndarray]
    values: np.ndarray

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
        return int(self.values.shape[0])

    @property
    def num_slices(self) -> int:
        """Number of non-empty slices (level-0 nodes); the paper's ``S``."""
        return int(self.fids[0].shape[0])

    @property
    def num_fibers(self) -> int:
        """Number of non-empty fibers (level ``N-2`` nodes); the paper's ``F``."""
        return int(self.fids[-2].shape[0])

    def nnz_per_fiber(self) -> np.ndarray:
        """Leaf count of every fiber (level ``N-2`` node)."""
        # ``diff`` already allocates a fresh int64 array; copy=False avoids
        # duplicating it (fiber counts run to hundreds of MB at 1e7 nnz).
        return np.diff(self.fptr[-1]).astype(INDEX_DTYPE, copy=False)

    def nnz_per_slice(self) -> np.ndarray:
        """Leaf count of every slice (level-0 node)."""
        counts = np.diff(self.fptr[-1]).astype(np.int64, copy=False)
        for level in range(self.order - 3, -1, -1):
            ptr = self.fptr[level]
            counts = np.add.reduceat(counts, ptr[:-1]) if counts.size else counts
            # reduceat misbehaves on empty segments; CSF never has empty
            # internal nodes by construction, so segments are non-empty.
        return counts.astype(INDEX_DTYPE)

    def fibers_per_slice(self) -> np.ndarray:
        """Number of level ``N-2`` nodes under each slice."""
        counts = np.ones(self.fids[-2].shape[0], dtype=np.int64)
        for level in range(self.order - 3, -1, -1):
            ptr = self.fptr[level]
            counts = np.add.reduceat(counts, ptr[:-1]) if counts.size else counts
        return counts.astype(INDEX_DTYPE)

    def slice_of_fiber(self) -> np.ndarray:
        """Map each fiber (level ``N-2`` node) to its slice (level-0 node)."""
        owner = np.arange(self.fids[-2].shape[0], dtype=np.int64)
        for level in range(self.order - 3, -1, -1):
            ptr = self.fptr[level]
            parent = np.repeat(
                np.arange(ptr.shape[0] - 1, dtype=np.int64), np.diff(ptr)
            )
            owner = parent[owner] if level < self.order - 3 else parent
        return owner

    def node_index_of_leaf(self, level: int) -> np.ndarray:
        """For each leaf, the id of its ancestor node at ``level``."""
        if not 0 <= level < self.order - 1:
            raise DimensionError(f"level {level} is not an internal level")
        ids = np.arange(self.nnz, dtype=np.int64)
        for l in range(self.order - 2, level - 1, -1):
            ptr = self.fptr[l]
            parent = np.repeat(np.arange(ptr.shape[0] - 1, dtype=np.int64), np.diff(ptr))
            ids = parent[ids]
        return ids

    # ------------------------------------------------------------------ #
    # conversions / checks
    # ------------------------------------------------------------------ #
    def to_coo(self) -> CooTensor:
        """Expand back to a COO tensor (inverse of :func:`build_csf`)."""
        order = self.order
        cols = [None] * order
        # Leaf-level coordinates are stored directly.
        leaf_ids = self.fids[-1]
        cols[self.mode_order[-1]] = leaf_ids
        # Walk up: replicate each internal node's coordinate over its leaves.
        for level in range(order - 2, -1, -1):
            ancestor = self.node_index_of_leaf(level)
            cols[self.mode_order[level]] = self.fids[level][ancestor]
        indices = np.stack(cols, axis=1).astype(INDEX_DTYPE)
        return CooTensor(indices, self.values, self.shape, validate=False)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TensorFormatError`."""
        if len(self.fids) != self.order or len(self.fptr) != self.order - 1:
            raise TensorFormatError("level-array count does not match order")
        expected_nodes = None
        for level in range(self.order - 1):
            ptr = self.fptr[level]
            ids = self.fids[level]
            if ptr.shape[0] != ids.shape[0] + 1:
                raise TensorFormatError(
                    f"level {level}: pointer array must have len(fids)+1 entries"
                )
            if expected_nodes is not None and ids.shape[0] != expected_nodes:
                raise TensorFormatError(
                    f"level {level}: expected {expected_nodes} nodes, got {ids.shape[0]}"
                )
            if ptr.shape[0] and (ptr[0] != 0 or np.any(np.diff(ptr) < 0)):
                raise TensorFormatError(f"level {level}: pointers must be monotone from 0")
            if np.any(np.diff(ptr) == 0):
                raise TensorFormatError(f"level {level}: empty internal node")
            expected_nodes = int(ptr[-1]) if ptr.shape[0] else 0
        if self.fids[-1].shape[0] != (expected_nodes or 0):
            raise TensorFormatError("leaf count does not match last pointer array")
        if self.values.shape[0] != self.fids[-1].shape[0]:
            raise TensorFormatError("values not aligned with leaves")
        for level, mode in enumerate(self.mode_order):
            ids = self.fids[level]
            if ids.size and (ids.min() < 0 or ids.max() >= self.shape[mode]):
                raise TensorFormatError(
                    f"level {level} indices out of bounds for mode {mode}"
                )

    def index_storage_words(self) -> int:
        """Number of 32-bit index words required (Section III-B accounting).

        For a third-order tensor this is ``2S + 2F + M``; in general every
        internal level stores an index and a pointer per node and the leaf
        level stores one index per nonzero.
        """
        words = 0
        for level in range(self.order - 1):
            words += 2 * int(self.fids[level].shape[0])
        words += self.nnz
        return int(words)


def _level_bounds(idx: np.ndarray, mode_order: tuple[int, ...],
                  prev: np.ndarray | None) -> list[np.ndarray]:
    """Per-internal-level "new node starts here" flags for one chunk.

    At level ``l`` a node is identified by the coordinates of modes
    ``mode_order[0..l]``; the chunk is lexicographically sorted, so a node
    starts wherever that coordinate or a coarser level's changes.  ``prev``
    is the last coordinate row of the previous chunk (``None`` at the start
    of the stream) so boundaries crossing a chunk edge are flagged exactly
    as in one unbroken chunk.
    """
    n = idx.shape[0]
    bounds: list[np.ndarray] = []
    coarser: np.ndarray | None = None
    for level in range(len(mode_order) - 1):
        col = idx[:, mode_order[level]]
        cur = np.empty(n, dtype=bool)
        cur[0] = True if prev is None else bool(
            col[0] != prev[mode_order[level]])
        cur[1:] = col[1:] != col[:-1]
        if coarser is not None:
            cur |= coarser
        bounds.append(cur)
        coarser = cur
    return bounds


class _CsfAssembler:
    """Two-pass CSF construction over sorted, deduplicated chunks.

    Pass 1 (:meth:`count`) runs the boundary flags over every chunk to size
    each level; :meth:`allocate` then creates the exact ``fids``/``fptr``
    arrays; pass 2 (:meth:`fill`) re-runs the flags and writes each chunk's
    slab.  A one-chunk stream hands pass 1's flags to pass 2 instead.  A
    caller that already knows the level sizes (HB-CSF's partition scan)
    presets ``node_counts``/``nnz`` and skips pass 1.
    """

    def __init__(self, shape: tuple[int, ...],
                 mode_order: tuple[int, ...]) -> None:
        self.shape = shape
        self.mode_order = mode_order
        self.order = len(shape)
        self.node_counts = [0] * (self.order - 1)
        self.nnz = 0
        self._prev: np.ndarray | None = None

    def count(self, idx: np.ndarray) -> list[np.ndarray] | None:
        """Add one chunk to the level sizes; returns its boundary flags."""
        if idx.shape[0] == 0:
            return None
        bounds = _level_bounds(idx, self.mode_order, self._prev)
        for level, b in enumerate(bounds):
            self.node_counts[level] += int(np.count_nonzero(b))
        self.nnz += int(idx.shape[0])
        self._prev = np.array(idx[-1])
        return bounds

    def allocate(self) -> None:
        self._fids = [np.empty(c, dtype=INDEX_DTYPE)
                      for c in self.node_counts]
        self._fids.append(np.empty(self.nnz, dtype=INDEX_DTYPE))
        self._fptr = [np.empty(c + 1, dtype=INDEX_DTYPE)
                      for c in self.node_counts]
        self._values = np.empty(self.nnz, dtype=VALUE_DTYPE)
        self._pos = [0] * (self.order - 1)
        self._leaf_pos = 0
        self._prev = None

    def fill(self, idx: np.ndarray, vals: np.ndarray,
             bounds: list[np.ndarray] | None = None) -> None:
        """Write one chunk; ``bounds`` reuses the flags :meth:`count`
        returned for this chunk when it was the first of its stream."""
        n = idx.shape[0]
        if n == 0:
            return
        if bounds is None:
            bounds = _level_bounds(idx, self.mode_order, self._prev)
        flat = np.ascontiguousarray(idx).reshape(-1)
        starts = np.flatnonzero(bounds[0])
        for level in range(self.order - 1):
            k = starts.shape[0]
            p = self._pos[level]
            ptr = self._fptr[level][p:p + k]
            if level < self.order - 2:
                # every node start is also a start of its first child, so
                # a node's first child is the child sharing its position
                child = np.flatnonzero(bounds[level + 1])
                np.add(np.flatnonzero(bounds[level][child]),
                       self._pos[level + 1], out=ptr)
            else:
                child = None
                np.add(starts, self._leaf_pos, out=ptr)
            # fids = idx[starts, mode], gathered through flat offsets
            # straight into the output (mode="clip" keeps take unbuffered)
            starts *= self.order
            starts += self.mode_order[level]
            np.take(flat, starts, out=self._fids[level][p:p + k], mode="clip")
            self._pos[level] += k
            starts = child
        leaves = slice(self._leaf_pos, self._leaf_pos + n)
        self._fids[-1][leaves] = idx[:, self.mode_order[-1]]
        self._values[leaves] = vals
        self._leaf_pos += n
        self._prev = np.array(idx[-1])

    def finish(self) -> CsfTensor:
        if self.nnz == 0:
            fids = [np.zeros(0, dtype=INDEX_DTYPE)
                    for _ in range(self.order)]
            fptr = [np.zeros(1, dtype=INDEX_DTYPE)
                    for _ in range(self.order - 1)]
            return CsfTensor(self.shape, self.mode_order, fptr, fids,
                             np.zeros(0, dtype=VALUE_DTYPE))
        for level in range(self.order - 2):
            self._fptr[level][-1] = self.node_counts[level + 1]
        self._fptr[self.order - 2][-1] = self.nnz
        return CsfTensor(self.shape, self.mode_order, self._fptr,
                         self._fids, self._values)


def _sorted_chunks(tensor, mode_order: tuple[int, ...]
                   ) -> Callable[[], Iterable[CooTensor]]:
    """The deduplicated nonzeros of ``tensor`` sorted by ``mode_order``,
    as a function that starts one pass over them.

    An in-memory :class:`CooTensor` is a stream of one chunk, made by one
    packed-key sort-and-sum pass (:meth:`CooTensor.sorted_unique`).  A
    sharded tensor (anything with a true ``is_sharded``, see
    :class:`~repro.tensor.shards.ShardedCooTensor`) streams the shards of
    its cached sorted view one at a time; that view sorts the same keys and
    sums duplicates through the same helper, so both give the same bits.
    """
    if getattr(tensor, "is_sharded", False):
        return tensor.sorted_view(mode_order, dedup=True).iter_chunks
    chunk = tensor.sorted_unique(mode_order)
    return lambda: (chunk,)


def build_csf(tensor: CooTensor, root_mode: int = 0,
              mode_order: Sequence[int] | None = None) -> CsfTensor:
    """Build a CSF tree from a COO tensor.

    Parameters
    ----------
    tensor:
        Input tensor: a :class:`CooTensor`, or a sharded tensor, which is
        streamed one shard at a time so the working set is one shard plus
        the output tree.
    root_mode:
        Mode stored at the root (level 0).  MTTKRP for this mode can then be
        computed without atomics across slices.
    mode_order:
        Optional explicit level -> mode permutation (root first).  Overrides
        ``root_mode`` when given.
    """
    if mode_order is None:
        mode_order = csf_mode_ordering(tensor.order, root_mode)
    else:
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(tensor.order)):
            raise DimensionError(
                f"{mode_order} is not a permutation of 0..{tensor.order - 1}"
            )
    if tensor.order < 2:
        raise DimensionError("CSF requires an order >= 2 tensor")

    chunks = _sorted_chunks(tensor, mode_order)
    asm = _CsfAssembler(tensor.shape, mode_order)
    if getattr(tensor, "is_sharded", False):
        for chunk in chunks():
            asm.count(chunk.indices)
        asm.allocate()
        for chunk in chunks():
            asm.fill(chunk.indices, chunk.values)
    else:
        # one chunk: its boundary flags serve both passes
        (chunk,) = chunks()
        bounds = asm.count(chunk.indices)
        asm.allocate()
        asm.fill(chunk.indices, chunk.values, bounds)
    return asm.finish()
