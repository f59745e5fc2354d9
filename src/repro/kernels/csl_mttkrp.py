"""CSL MTTKRP (Algorithm 4 of the paper), generalized to any order.

CSL (compressed slice) stores, for slices whose fibers all hold exactly one
nonzero, a slice pointer that addresses the nonzeros directly — the fiber
level is skipped.  Per nonzero the kernel forms the Hadamard product of the
non-root factor rows (like COO) but the root index is read once per slice
and the per-slice partial sums need no atomics.  Like the paper's kernel,
whose warps span the rank and read each nonzero's factor rows whole, it
works row-major: each pass gathers whole rows of C-contiguous ``(I, R)``
row tables into an ``(n, R)`` scratch over whole slices of about
``ROW_PASS_NNZ`` nonzeros, sums every slice with
:func:`~repro.kernels.csf_mttkrp.segment_sums` and adds each slice's row
into ``out`` once (see :mod:`repro.kernels.csf_mttkrp`).  The builders
bin the short slices by length and store the long ones after them in root
order (:func:`repro.core.csl.length_order`), so a pass's slices fall
into one or two runs that chained vectorised adds or one ``reduceat``
sum; a group in any other slice order gives the same bits, more slowly.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csf_mttkrp import (Scratch, check_rows, kernel_passes,
                                      row_major, row_pass_nnz, segment_sums)
from repro.util.errors import DimensionError, TensorFormatError

__all__ = ["csl_mttkrp", "check_csl"]


def check_csl(slice_ptr: np.ndarray, slice_inds: np.ndarray,
              rest_indices: np.ndarray, values: np.ndarray,
              mode_order: tuple[int, ...], rows) -> None:
    """Raise on a CSL structure the unchecked kernel (``validate=False``)
    would misread: pointer and index shapes, slice pointers that do not
    rise strictly from 0 to nnz, or a non-root index outside its mode's
    ``rows[m]`` factor rows."""
    num_slices, nnz = slice_inds.shape[0], values.shape[0]
    if slice_ptr.shape[0] != num_slices + 1:
        raise TensorFormatError("slice_ptr must have len(slice_inds) + 1 entries")
    if rest_indices.shape != (nnz, len(mode_order) - 1):
        raise DimensionError(
            f"rest_indices has shape {rest_indices.shape}, expected "
            f"{(nnz, len(mode_order) - 1)}"
        )
    if num_slices == 0 or nnz == 0:
        return
    if int(slice_ptr[0]) != 0 or int(slice_ptr[-1]) != nnz:
        raise TensorFormatError("slice_ptr does not cover all nonzeros")
    if np.any(np.diff(slice_ptr) <= 0):
        raise TensorFormatError("slice_ptr must be strictly increasing")
    for col, m in enumerate(mode_order[1:]):
        check_rows(rest_indices[:, col], rows[m], f"rest_indices column {col}")


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
        ``(num_slices,)`` root-mode index of each stored slice, unique, in
        any order (the builders use :func:`repro.core.csl.length_order`).
    rest_indices:
        ``(nnz, order - 1)`` indices of the non-root modes, ordered as
        ``mode_order[1:]``.
    values:
        ``(nnz,)`` nonzero values.
    factors:
        One factor matrix per mode, in *original* mode order.  Converted
        to C-contiguous row tables (:func:`~repro.kernels.csf_mttkrp.
        row_major`) unless they already are.
    mode_order:
        CSF mode ordering (root first) that ``rest_indices`` columns follow.
    out:
        ``(shape[root], R)`` output, accumulated into.  Its dtype is the
        compute dtype.
    validate:
        Skip the structural checks (:func:`check_csl`) when ``False`` —
        for trusted call sites executing a validated
        :class:`~repro.core.csl.CslGroup`.
    slab_nnz:
        Nonzeros per pass (``None``:
        :func:`~repro.kernels.csf_mttkrp.row_pass_nnz`).  Passes split
        only at slice boundaries and every slice is summed in
        ``reduceat``'s association, so the result is bit-identical to the
        single-pass evaluation.
    """
    if validate:
        check_csl(slice_ptr, slice_inds, rest_indices, values, mode_order,
                  [len(f) for f in factors])
    if slice_inds.shape[0] == 0 or values.shape[0] == 0:
        return out

    rank = out.shape[1]
    compute_dtype = out.dtype
    vals = values.astype(compute_dtype, copy=False)
    tables = row_major(factors, compute_dtype, skip=mode_order[0])
    tables = [tables[m] for m in mode_order[1:]]

    scratch = Scratch(compute_dtype)
    for start, stop, r0, r1 in kernel_passes(slice_ptr, rank,
                                             row_pass_nnz(rank, slab_nnz)):
        if r0 == 0:
            lo, hi = int(slice_ptr[start]), int(slice_ptr[stop])
            offsets = slice_ptr[start:stop] - lo
            inds = slice_inds[start:stop]
            # contiguous intp columns: np.take's index form, made once for
            # every rank block's gathers
            cols = [np.ascontiguousarray(rest_indices[lo:hi, c], dtype=np.intp)
                    for c in range(len(mode_order) - 1)]
            range_vals = vals[lo:hi]
        acc = scratch.hadamard(tables, cols, range_vals, r0, r1)
        # slices are unique, so each slice's row is written once
        out[inds, r0:r1] += segment_sums(acc, offsets)
    return out
