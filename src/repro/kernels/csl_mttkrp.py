"""CSL MTTKRP (Algorithm 4 of the paper), generalized to any order.

CSL (compressed slice) stores, for slices whose fibers all hold exactly one
nonzero, a slice pointer that addresses the nonzeros directly — the fiber
level is skipped.  Per nonzero the kernel forms the Hadamard product of the
non-root factor rows (like COO) but the root index is read once per slice
and the per-slice partial sums need no atomics.  The kernel runs in passes
of rank rows times whole slices over a rank-major ``(rows, nnz)`` scratch,
as every kernel does (see :mod:`repro.kernels.csf_mttkrp`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csf_mttkrp import (Scratch, check_rows, kernel_passes,
                                      rank_major, segment_sum)
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
        Nonzeros per pass (``None`` derives it from
        :data:`repro.kernels.csf_mttkrp.DEFAULT_SLAB_ELEMS` and the rank).
        Passes split only at slice boundaries, so the result is
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
    if validate:
        for col, m in enumerate(mode_order[1:]):
            check_rows(rest_indices[:, col], factors[m].shape[0],
                       f"rest_indices column {col}")

    scratch = Scratch(compute_dtype)
    for start, stop, r0, r1 in kernel_passes(slice_ptr, rank, slab_nnz):
        if r0 == 0:
            lo, hi = int(slice_ptr[start]), int(slice_ptr[stop])
            seg = slice_ptr[start:stop + 1]
            ptr = seg - seg[0]
            inds = slice_inds[start:stop]
            # contiguous intp columns: np.take's index form, made once for
            # every row block's gathers
            cols = [np.ascontiguousarray(rest_indices[lo:hi, c], dtype=np.intp)
                    for c in range(len(mode_order) - 1)]
            range_vals = vals[lo:hi]
        tables = [factors[m].T[r0:r1] for m in mode_order[1:]]
        acc = scratch.hadamard(tables, cols, range_vals, r1 - r0)
        # slices are unique, so each slice's row is written once
        out.T[r0:r1, inds] += segment_sum(acc, ptr, validate=validate)
    return out
