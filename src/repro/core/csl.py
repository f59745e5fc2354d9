"""CSL: the Compressed SLice format (Section V-A of the paper).

CSL targets slices in which *every* fiber holds exactly one nonzero.  For
such slices the fiber-pointer level of CSF is pure overhead: the slice
pointer can address the nonzeros directly, which saves both the two fiber
arrays (storage) and the per-fiber reduction (operations).

The builders bin a group's short slices by length: the binning of slices
by length that the paper adopts for slc-split (Section IV-A).  Slices of
at most ``CHAIN_MAX_LEN`` nonzeros sit in one bin per length, in root
order within a bin, and the kernel sums a whole bin with vectorised adds
(see :func:`~repro.kernels.csf_mttkrp.segment_sums`); every longer slice
follows, in root order (see :func:`length_order`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.csf_mttkrp import CHAIN_MAX_LEN
from repro.kernels.csl_mttkrp import csl_mttkrp
from repro.tensor.coo import CooTensor, INDEX_DTYPE, VALUE_DTYPE, csf_mode_ordering
from repro.tensor.csf import CsfTensor
from repro.util.errors import TensorFormatError, ValidationError

__all__ = ["CslGroup", "build_csl_group", "length_order"]


@dataclass(frozen=True)
class CslGroup:
    """A group of slices stored in CSL form.

    Attributes
    ----------
    shape:
        Shape of the full tensor (original mode order).
    mode_order:
        CSF mode ordering (root first) that ``rest_indices`` columns follow.
    slice_ptr:
        ``(num_slices + 1,)`` pointers into the nonzero arrays.
    slice_inds:
        ``(num_slices,)`` root-mode index of each slice.  The builders
        emit slices in :func:`length_order` (short slices binned by
        length, then the long ones), not ascending root order; the kernel
        accepts any order of unique roots.
    rest_indices:
        ``(nnz, order - 1)`` non-root indices per nonzero.
    values:
        ``(nnz,)`` values.
    """

    shape: tuple[int, ...]
    mode_order: tuple[int, ...]
    slice_ptr: np.ndarray
    slice_inds: np.ndarray
    rest_indices: np.ndarray
    values: np.ndarray

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def root_mode(self) -> int:
        return self.mode_order[0]

    @property
    def num_slices(self) -> int:
        return int(self.slice_inds.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def nnz_per_slice(self) -> np.ndarray:
        return np.diff(self.slice_ptr).astype(INDEX_DTYPE)

    def mttkrp(self, factors: list[np.ndarray], out: np.ndarray,
               validate: bool = True) -> np.ndarray:
        """Accumulate this group's MTTKRP contribution into ``out``.

        ``validate=False`` skips the kernel's structural re-checks — safe
        for groups produced by :func:`build_csl_group`, which validates the
        slice pointers once at construction.
        """
        return csl_mttkrp(self.slice_ptr, self.slice_inds, self.rest_indices,
                          self.values, factors, self.mode_order, out,
                          validate=validate)

    def index_storage_words(self) -> int:
        """32-bit index words: ``2 S`` for the slice arrays plus ``(N-1)``
        indices per nonzero (Figure 3: the ``fbr_ptr`` array is gone)."""
        return 2 * self.num_slices + (self.order - 1) * self.nnz

    def to_coo(self) -> CooTensor:
        """Expand to COO (original mode order), mostly for testing."""
        if self.nnz == 0:
            return CooTensor.empty(self.shape)
        root_col = np.repeat(self.slice_inds, np.diff(self.slice_ptr))
        cols = [None] * self.order
        cols[self.mode_order[0]] = root_col
        for c, m in enumerate(self.mode_order[1:]):
            cols[m] = self.rest_indices[:, c]
        idx = np.stack(cols, axis=1).astype(INDEX_DTYPE)
        return CooTensor(idx, self.values, self.shape, validate=False)

    def validate(self) -> None:
        if self.slice_ptr.shape[0] != self.num_slices + 1:
            raise TensorFormatError("slice_ptr length must be num_slices + 1")
        if self.num_slices and (self.slice_ptr[0] != 0
                                or np.any(np.diff(self.slice_ptr) <= 0)):
            raise TensorFormatError("slice_ptr must be strictly increasing from 0")
        if self.num_slices and int(self.slice_ptr[-1]) != self.nnz:
            raise TensorFormatError("slice_ptr does not cover all nonzeros")
        if self.rest_indices.shape != (self.nnz, self.order - 1):
            raise TensorFormatError("rest_indices has the wrong shape")


def empty_csl_group(shape: tuple[int, ...], mode_order: tuple[int, ...]) -> CslGroup:
    order = len(shape)
    return CslGroup(
        shape=shape,
        mode_order=mode_order,
        slice_ptr=np.zeros(1, dtype=INDEX_DTYPE),
        slice_inds=np.zeros(0, dtype=INDEX_DTYPE),
        rest_indices=np.zeros((0, order - 1), dtype=INDEX_DTYPE),
        values=np.zeros(0, dtype=VALUE_DTYPE),
    )


def length_order(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Length-binned order of slices listed in root order with nonzero
    ``counts``.

    The sort key is ``(min(count, CHAIN_MAX_LEN + 1), root)``: one bin
    per length the kernel sums with chained adds, then every longer slice
    in root order, since those keep ``reduceat`` and gain nothing from
    binning but the root locality of their output rows.  Returns
    ``(order, slice_ptr, shift)``: ``order`` indexes the slices in that
    order (one stable sort); ``slice_ptr`` is the slice pointer in that
    order; and ``shift[s]`` moves slice ``s``'s nonzeros there, so the
    nonzero at position ``p`` of the root-ordered stream lands at ``p +
    shift[s]``.
    """
    # 8-bit keys, which numpy radix-sorts
    key = np.minimum(counts, CHAIN_MAX_LEN + 1).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    slice_ptr = np.zeros(counts.shape[0] + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts[order], out=slice_ptr[1:])
    root_start = np.cumsum(counts) - counts
    shift = np.empty(counts.shape[0], dtype=np.int64)
    shift[order] = slice_ptr[:-1] - root_start[order]
    return order, slice_ptr, shift


def build_csl_group(csf: CsfTensor, slice_mask: np.ndarray | None = None) -> CslGroup:
    """Build a CSL group from (a subset of) the slices of a CSF tree.

    Parameters
    ----------
    csf:
        Source CSF representation.
    slice_mask:
        Boolean mask over the CSF's slices selecting which ones to store;
        ``None`` selects all slices.  Every selected slice must consist of
        singleton fibers only, otherwise CSL cannot represent it.
    """
    num_slices = csf.num_slices
    if slice_mask is None:
        slice_mask = np.ones(num_slices, dtype=bool)
    slice_mask = np.asarray(slice_mask, dtype=bool)
    if slice_mask.shape[0] != num_slices:
        raise ValidationError(
            f"slice_mask has {slice_mask.shape[0]} entries for {num_slices} slices"
        )
    mode_order = csf.mode_order
    if not slice_mask.any() or csf.nnz == 0:
        return empty_csl_group(csf.shape, mode_order)

    # Eligibility: all fibers of the selected slices are singleton.
    fiber_nnz = csf.nnz_per_fiber()
    slice_of_fiber = csf.slice_of_fiber()
    offending = slice_mask[slice_of_fiber] & (fiber_nnz != 1)
    if offending.any():
        raise ValidationError(
            "CSL requires every fiber of the selected slices to hold exactly "
            f"one nonzero; {int(offending.sum())} fibers violate this"
        )

    # Select the leaves of the chosen slices.
    leaf_slice = csf.node_index_of_leaf(0)
    keep = slice_mask[leaf_slice]
    kept_slice_of_leaf = leaf_slice[keep]

    # Build per-leaf non-root coordinates in mode_order[1:].
    order = csf.order
    rest_cols = []
    for level in range(1, order - 1):
        ancestor = csf.node_index_of_leaf(level)
        rest_cols.append(csf.fids[level][ancestor][keep])
    rest_cols.append(csf.fids[-1][keep])
    rest_indices = (np.stack(rest_cols, axis=1).astype(INDEX_DTYPE)
                    if rest_cols else np.zeros((int(keep.sum()), 0), dtype=INDEX_DTYPE))

    # Leaves are stored slice-contiguously in root order; move each kept
    # slice's run of leaves to its place in length order.
    kept_slices = np.flatnonzero(slice_mask)
    counts = np.bincount(kept_slice_of_leaf, minlength=num_slices)[kept_slices]
    order, slice_ptr, shift = length_order(counts)
    ordinal = np.cumsum(slice_mask) - 1    # kept slice -> position in kept
    dest = shift[ordinal[kept_slice_of_leaf]]
    dest += np.arange(dest.shape[0])
    binned_rest = np.empty_like(rest_indices)
    binned_rest[dest] = rest_indices
    values = np.empty(dest.shape[0], dtype=csf.values.dtype)
    values[dest] = csf.values[keep]

    group = CslGroup(
        shape=csf.shape,
        mode_order=mode_order,
        slice_ptr=slice_ptr,
        slice_inds=csf.fids[0][kept_slices[order]].astype(INDEX_DTYPE),
        rest_indices=binned_rest,
        values=values,
    )
    group.validate()
    return group
