"""COO MTTKRP (Algorithm 2 of the paper), vectorized.

For every nonzero ``X[i0, ..., i_{N-1}]`` the kernel forms the elementwise
(Hadamard) product of the corresponding rows of all factor matrices except
the target mode's, scales it by the value and accumulates it into the output
row of the target mode.

Three accumulation strategies are available:

* ``"add_at"`` — ``np.add.at`` scatter-accumulate, the vectorized
  equivalent of the atomic adds the GPU COO kernels (ParTI) issue.  Its
  random-access write pattern is cache-hostile on large tensors.
* ``"sort"`` — sorted segment-sum: stable-argsort the target-mode indices
  first, gather the factor rows through the permuted index columns, reduce
  each run of equal indices with one ``np.add.reduceat`` over all ``R``
  rows at once, and add each run's total into its (unique) output row.
  One radix sort plus sequential reductions; the fastest path once nnz is
  large.
* ``"bincount"`` — one sort-free ``np.bincount(weights=...)`` pass per
  factor column.  Kept as an alternative dense-output path (it can win when
  ``R`` is very small); measured slower than ``"sort"`` at the paper's
  ``R = 32`` on NumPy 2.x.  Serial-only: each pass read-modify-writes the
  full output column, so the threaded backend (whose shards share the
  output array) rejects it.

``"auto"`` (the default) picks ``"sort"`` for large-nnz tensors and keeps
the scatter path for tiny ones, where sort overhead dominates.  All paths
produce the same sums up to float addition order (they agree to allclose
tolerance; per-row partial sums are reassociated).

The Hadamard accumulator is a rank-major ``(R, nnz)`` array (the layout
of every kernel, see :mod:`repro.kernels.csf_mttkrp`) formed by scaling the
*first* gathered factor by the values in place — no all-ones matrix is
materialised — and is computed in the requested compute dtype (``float32``
halves the memory traffic of this bandwidth-bound kernel; see
:mod:`repro.util.dtypes`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csf_mttkrp import rank_major
from repro.tensor.coo import CooTensor
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError, ValidationError

__all__ = ["coo_mttkrp", "COO_ACCUMULATE_METHODS", "SORT_MIN_NNZ"]

#: accumulation strategies accepted by :func:`coo_mttkrp`.
COO_ACCUMULATE_METHODS = ("auto", "add_at", "sort", "bincount")

#: nnz threshold above which ``"auto"`` switches from the ``"add_at"``
#: scatter path to the ``"sort"`` segment-sum path.  Below it the stable
#: argsort costs more than it saves; above it the sequential
#: ``np.add.reduceat`` writes beat ``np.add.at``'s random-access scatter by
#: ~1.3-1.4x at the paper's ``R = 32`` (measured on NumPy 2.x; see
#: ``BENCH_kernels.json``, targets ``kernel.coo-scatter`` vs
#: ``kernel.coo-sorted``).  The empirical autotuner (:mod:`repro.tune`)
#: refines this static default per tensor.
SORT_MIN_NNZ = 2048


def _accumulate_add_at(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    np.add.at(out, idx, acc.T)


def _accumulate_sort(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    # ``idx`` and ``acc`` arrive permuted into stable target-index order
    # (see :func:`coo_mttkrp`), so each run of equal indices is one
    # contiguous segment and its head is a unique output row.
    starts = np.concatenate(([0], np.flatnonzero(np.diff(idx)) + 1))
    out.T[:, idx[starts]] += np.add.reduceat(acc, starts, axis=1)


def _accumulate_bincount(out: np.ndarray, idx: np.ndarray, acc: np.ndarray) -> None:
    for r in range(acc.shape[0]):
        out[:, r] += np.bincount(idx, weights=acc[r], minlength=out.shape[0])


_ACCUMULATORS = {
    "add_at": _accumulate_add_at,
    "sort": _accumulate_sort,
    "bincount": _accumulate_bincount,
}


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
        shape is checked) exactly as in the paper's Algorithm 2.
    mode:
        Target mode.
    out:
        Optional pre-allocated ``(shape[mode], R)`` output; accumulated into
        (not cleared), mirroring the GPU kernels' atomic accumulation.  Its
        dtype determines the compute dtype.
    method:
        ``"auto"`` (default), ``"add_at"``, ``"sort"`` or ``"bincount"`` —
        see the module docstring.
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
        method = "sort" if tensor.nnz >= SORT_MIN_NNZ else "add_at"
    factors = rank_major(factors, out.dtype, skip=mode)
    idx = tensor.indices[:, mode]
    perm = slice(None)
    if method == "sort":
        # Sort first, then gather through the permuted index columns: the
        # per-element products are the same as permuting a finished
        # accumulator, and no unsorted (R, nnz) array is ever live.
        perm = np.argsort(idx, kind="stable")
        idx = idx[perm]
    values = tensor.values[perm].astype(out.dtype, copy=False)
    acc = None
    for m in range(tensor.order):
        if m == mode:
            continue
        gathered = np.take(factors[m].T, tensor.indices[perm, m], axis=1)
        if acc is None:
            # Scale the first (R, nnz) gather by the values in place: no
            # all-ones matrix is materialised and the multiplication order
            # per element is unchanged.
            gathered *= values
            acc = gathered
        else:
            acc *= gathered
    if acc is None:  # order-1 tensor: no non-target factors to gather
        acc = np.repeat(values[None, :], rank, axis=0)

    _ACCUMULATORS[method](out, idx, acc)
    return out
