"""CSL MTTKRP (Algorithm 4 of the paper), generalized to any order.

CSL (compressed slice) stores, for slices whose fibers all hold exactly one
nonzero, a slice pointer that addresses the nonzeros directly — the fiber
level is skipped.  Per nonzero the kernel forms the Hadamard product of the
non-root factor rows (like COO) but the root index is read once per slice
and the per-slice partial sums need no atomics.  The scratch is rank-major
``(R, nnz)``, as in every kernel (see :mod:`repro.kernels.csf_mttkrp`).
"""

from __future__ import annotations

import numpy as np

from repro.faults.deadline import check_deadline
from repro.faults.hooks import fault_point
from repro.kernels.csf_mttkrp import rank_major, segment_sum, slab_nnz_for
from repro.util.errors import DimensionError, TensorFormatError

__all__ = ["csl_mttkrp"]


def csl_mttkrp(
    slice_ptr: np.ndarray,
    slice_inds: np.ndarray,
    rest_indices: np.ndarray,
    values: np.ndarray,
    factors: list[np.ndarray],
    mode_order: tuple[int, ...],
    out: np.ndarray,
    validate: bool = True,
    slab_nnz: int | None = None,
) -> np.ndarray:
    """MTTKRP over a CSL-stored group of slices, accumulated into ``out``.

    Parameters
    ----------
    slice_ptr:
        ``(num_slices + 1,)`` pointers into the nonzero arrays.
    slice_inds:
        ``(num_slices,)`` root-mode index of each stored slice.
    rest_indices:
        ``(nnz, order - 1)`` indices of the non-root modes, ordered as
        ``mode_order[1:]``.
    values:
        ``(nnz,)`` nonzero values.
    factors:
        One factor matrix per mode, in *original* mode order.
    mode_order:
        CSF mode ordering (root first) that ``rest_indices`` columns follow.
    out:
        ``(shape[root], R)`` output, accumulated into.  Its dtype is the
        compute dtype.
    validate:
        Skip the structural checks (and the segment-monotonicity scan)
        when ``False`` — for trusted call sites executing a validated
        :class:`~repro.core.csl.CslGroup`.
    slab_nnz:
        Nonzeros per reduction slab (``None`` derives it from
        :data:`repro.kernels.csf_mttkrp.DEFAULT_SLAB_ELEMS` and the rank).
        Slabs split only at slice boundaries, so the result is
        bit-identical to the single-pass evaluation.
    """
    num_slices = slice_inds.shape[0]
    nnz = values.shape[0]
    if validate:
        if slice_ptr.shape[0] != num_slices + 1:
            raise TensorFormatError("slice_ptr must have len(slice_inds) + 1 entries")
        if rest_indices.shape != (nnz, len(mode_order) - 1):
            raise DimensionError(
                f"rest_indices has shape {rest_indices.shape}, expected "
                f"{(nnz, len(mode_order) - 1)}"
            )
    if num_slices == 0 or nnz == 0:
        return out
    if validate and int(slice_ptr[-1]) != nnz:
        raise TensorFormatError("slice_ptr does not cover all nonzeros")

    rank = out.shape[1]
    compute_dtype = out.dtype
    vals = values.astype(compute_dtype, copy=False)
    factors = rank_major(factors, compute_dtype, skip=mode_order[0])

    slab = slab_nnz_for(rank, slab_nnz)
    start = 0
    while start < num_slices:
        # cooperative watchdog boundary (see csf_mttkrp's slab loop)
        fault_point("kernel.slab")
        check_deadline("kernel.slab")
        stop = int(np.searchsorted(slice_ptr, slice_ptr[start] + slab,
                                   side="right")) - 1
        stop = min(max(stop, start + 1), num_slices)
        lo, hi = int(slice_ptr[start]), int(slice_ptr[stop])
        seg = slice_ptr[start:stop + 1]
        _slice_reduce(vals[lo:hi], rest_indices[lo:hi], seg - seg[0],
                      slice_inds[start:stop], factors, mode_order, rank,
                      out, validate)
        start = stop
    return out


def _slice_reduce(vals: np.ndarray, rest_indices: np.ndarray,
                  slice_ptr: np.ndarray, slice_inds: np.ndarray,
                  factors: list[np.ndarray], mode_order: tuple,
                  rank: int, out: np.ndarray, validate: bool) -> None:
    """One (slab of a) CSL group reduced into ``out``.  ``slice_ptr`` must
    be rebased to start at 0 and the arrays sliced consistently."""
    acc = None
    for col, m in enumerate(mode_order[1:]):
        gathered = np.take(factors[m].T, rest_indices[:, col], axis=1)
        # Scale the first (R, nnz) gather by the values in place and
        # multiply the rest into it, so at most two scratch arrays are ever
        # live; elementwise multiplication is commutative bit-for-bit.
        if acc is None:
            gathered *= vals
            acc = gathered
        else:
            acc *= gathered
    if acc is None:  # order-1 group: no non-root factors to gather
        acc = np.repeat(vals[None, :], rank, axis=0)
    # slices are unique, so each slice's row is written once
    out.T[:, slice_inds] += segment_sum(acc, slice_ptr, validate=validate)
