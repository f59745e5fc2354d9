"""COO MTTKRP (Algorithm 2 of the paper), vectorized.

For every nonzero ``X[i0, ..., i_{N-1}]`` the kernel forms the elementwise
(Hadamard) product of the corresponding rows of all factor matrices except
the target mode's, scales it by the value and accumulates it into the output
row of the target mode.

Two accumulation strategies are available:

* ``"add_at"`` — ``np.add.at`` scatter-accumulate, the vectorized
  equivalent of the atomic adds the GPU COO kernels (ParTI) issue.  Its
  random-access write pattern is cache-hostile on large tensors.
* ``"sort"`` — sorted segment-sum: stable-argsort the target-mode indices
  first, gather the factor rows through the permuted index columns, sum
  each run of equal indices over all ``R`` columns at once with
  :func:`~repro.kernels.csf_mttkrp.segment_sums` (``np.add.reduceat``'s
  bits; a pass of length-1 runs, such as the HB-CSF COO group, is a
  copy), and add each run's total into its (unique) output row.
  One radix sort plus sequential reductions; the fastest path once nnz is
  large.

``"auto"`` (the default) picks ``"sort"`` for large-nnz tensors and keeps
the scatter path for tiny ones, where sort overhead dominates
(:func:`auto_method`).  Both paths produce the same sums up to float
addition order (they agree to allclose tolerance; per-row partial sums are
reassociated).

The kernel runs in passes (see
:func:`repro.kernels.csf_mttkrp.kernel_passes`) of every rank row times
about :data:`~repro.kernels.csf_mttkrp.ROW_PASS_NNZ` nonzeros, so its
scratch stays in L2 and within
:data:`~repro.kernels.csf_mttkrp.DEFAULT_SLAB_ELEMS` elements per array
like every other kernel's.  Where a pass may split the nonzeros depends
on the accumulator, and keeps every output bit of the single-pass
evaluation: ``"sort"`` passes split only between runs of one target index
(a run longer than a pass is one pass, in rank blocks if its full rank
exceeds the budget), ``"add_at"`` passes anywhere (its adds land in
nonzero order either way).

The Hadamard accumulator of a pass is a row-major ``(n, R)`` array of
whole factor rows gathered from C-contiguous ``(I, R)`` row tables
(:func:`~repro.kernels.csf_mttkrp.row_major`), formed by scaling the
*first* gathered factor by the values in place — no all-ones matrix is
materialised — and is computed in the requested compute dtype
(``float32`` halves the memory traffic of this bandwidth-bound kernel;
see :mod:`repro.util.dtypes`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csf_mttkrp import (Scratch, kernel_passes, row_major,
                                      row_pass_nnz, segment_sums)
from repro.tensor.coo import CooTensor
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError, ValidationError

__all__ = ["coo_mttkrp", "auto_method", "COO_ACCUMULATE_METHODS",
           "SORT_MIN_NNZ"]

#: accumulation strategies accepted by :func:`coo_mttkrp`.
COO_ACCUMULATE_METHODS = ("auto", "add_at", "sort")

#: nnz threshold above which ``"auto"`` switches from the ``"add_at"``
#: scatter path to the ``"sort"`` segment-sum path.  Below it the stable
#: argsort costs more than it saves; above it the sequential
#: ``np.add.reduceat`` writes beat ``np.add.at``'s random-access scatter by
#: ~1.3-1.4x at the paper's ``R = 32`` (measured on NumPy 2.x with the
#: ``kernel.coo-scatter`` vs ``kernel.coo-sorted`` bench targets; the
#: numbers are recorded where CHANGES.md introduces the sort path).  It is
#: the only rule: no caller above the kernel picks the accumulator.
SORT_MIN_NNZ = 2048


def auto_method(nnz: int) -> str:
    """The accumulator ``"auto"`` runs for a tensor of ``nnz`` nonzeros."""
    return "sort" if nnz >= SORT_MIN_NNZ else "add_at"


def coo_mttkrp(
    tensor: CooTensor,
    factors: list[np.ndarray],
    mode: int,
    out: np.ndarray | None = None,
    method: str = "auto",
    dtype=None,
    validate: bool = True,
) -> np.ndarray:
    """Mode-``mode`` MTTKRP of a COO tensor.

    Parameters
    ----------
    tensor:
        Input sparse tensor.
    factors:
        One factor matrix per mode; ``factors[mode]`` is ignored (only its
        shape is checked) exactly as in the paper's Algorithm 2.  The
        others are converted to C-contiguous row tables
        (:func:`~repro.kernels.csf_mttkrp.row_major`) unless they already
        are.
    mode:
        Target mode.
    out:
        Optional pre-allocated ``(shape[mode], R)`` output; accumulated into
        (not cleared), mirroring the GPU kernels' atomic accumulation.  Its
        dtype determines the compute dtype.
    method:
        ``"auto"`` (default), ``"add_at"`` or ``"sort"`` — see the module
        docstring.
    dtype:
        Compute dtype when ``out`` is not supplied (``float32`` /
        ``float64``; default float64).
    validate:
        Skip the method and factor-shape checks when ``False`` — for
        trusted internal re-invocations (ALS inner loops, HB-CSF group
        dispatch) where the shapes were validated once up front.
    """
    # The method check is O(1) — unlike the shape scans it is never worth
    # skipping, and a typo'd method must not surface as a KeyError after
    # the full accumulation.
    if method not in COO_ACCUMULATE_METHODS:
        raise ValidationError(
            f"unknown COO accumulation method {method!r}; choose one of "
            f"{', '.join(COO_ACCUMULATE_METHODS)}"
        )
    if validate:
        rank = _check_factors(tensor.shape, factors, mode)
    else:
        rank = factors[mode].shape[1]
    rows = tensor.shape[mode]
    if out is None:
        out = np.zeros((rows, rank), dtype=resolve_dtype(dtype), order="F")
    elif out.shape != (rows, rank):
        raise DimensionError(
            f"out has shape {out.shape}, expected {(rows, rank)}"
        )

    if tensor.nnz == 0:
        return out

    if method == "auto":
        method = auto_method(tensor.nnz)
    tables = row_major(factors, out.dtype, skip=mode)
    nnz = tensor.nnz
    target = tensor.indices[:, mode]
    perm = None
    if method == "sort":
        # Sort first, then gather through the permuted index columns: the
        # per-element products are the same as permuting a finished
        # accumulator, and no unsorted scratch is ever live.  Passes split
        # between runs of equal indices.
        perm = np.argsort(target, kind="stable")
        target = target[perm]
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(target)) + 1, [nnz]))
    else:
        bounds = np.arange(nnz + 1)   # adds land in nonzero order anyway
    others = [m for m in range(tensor.order) if m != mode]
    tables = [tables[m] for m in others]

    scratch = Scratch(out.dtype)
    for start, stop, r0, r1 in kernel_passes(bounds, rank,
                                             row_pass_nnz(rank)):
        if r0 == 0:
            lo, hi = int(bounds[start]), int(bounds[stop])
            sel = slice(lo, hi) if perm is None else perm[lo:hi]
            # contiguous intp columns: np.take's index form, made once for
            # every rank block's gathers
            cols = [np.ascontiguousarray(tensor.indices[sel, m], dtype=np.intp)
                    for m in others]
            vals = tensor.values[sel].astype(out.dtype, copy=False)
            idx = np.ascontiguousarray(target[lo:hi], dtype=np.intp)
            if method == "sort":
                runs = bounds[start:stop] - lo
                heads = idx[runs]
        acc = scratch.hadamard(tables, cols, vals, r0, r1)
        if method == "sort":
            # each run's head is a unique output row
            out[heads, r0:r1] += segment_sums(acc, runs)
        else:
            np.add.at(out[:, r0:r1], idx, acc)
    return out
