"""CSF MTTKRP (Algorithm 3 of the paper), generalized to any order.

The kernel walks the CSF tree bottom-up.  For a third-order tensor rooted at
the target mode it is exactly Equation (8) / Algorithm 3:

* every nonzero contributes ``val * C[k, :]``,
* contributions are reduced within each fiber (the ``tmp[]`` array),
* the fiber result is scaled by ``B[j, :]`` and reduced within the slice,
* the slice result is written to the output row of the slice index.

Factoring the reductions this way is what saves the ``R (J - 1)``
multiplications per fiber relative to COO (Section II-C).

Kernel layout (shared by every kernel in :mod:`repro.kernels`): the
per-nonzero scratch is a C-contiguous ``(R, n)`` array.  Factor rows are
gathered with ``np.take(F.T, idx, axis=1)`` from the ``(R, I)`` view of an
F-contiguous ``(I, R)`` factor (see :func:`rank_major`), segments are
reduced along the last axis, and each reduced row is written into the
output once, with a plain indexed add wherever the target rows are unique.
The ``(R, n)`` layout gives ``np.add.reduceat`` contiguous segments, and
reduceat associates a segment's sum the same way along either axis, so the
output bits do not depend on the layout (``tests/kernels/golden_mttkrp.json``
pins them).
"""

from __future__ import annotations

import numpy as np

from repro.faults.deadline import check_deadline
from repro.faults.hooks import fault_point
from repro.tensor.csf import CsfTensor
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError, TensorFormatError

__all__ = ["csf_mttkrp", "segment_sum", "rank_major", "DEFAULT_SLAB_ELEMS",
           "slab_nnz_for"]

#: soft cap on the elements of the ``(R, nnz)`` scratch the CSF and CSL
#: kernels materialise per slab (2^22 float64 elements = 32 MB).  Tensors
#: are evaluated in root-aligned slabs (one slab when the nonzeros fit) so
#: peak scratch stays bounded no matter how far the out-of-core ladder
#: scales nnz.
DEFAULT_SLAB_ELEMS = 1 << 22


def slab_nnz_for(rank: int, slab_nnz: int | None = None) -> int:
    """Nonzeros per reduction slab: explicit override or the element budget."""
    if slab_nnz is not None:
        if slab_nnz < 1:
            raise TensorFormatError(
                f"slab_nnz must be >= 1, got {slab_nnz}")
        return slab_nnz
    return max(1, DEFAULT_SLAB_ELEMS // max(rank, 1))


def rank_major(factors: list[np.ndarray], dtype=None,
               skip: int | None = None) -> list[np.ndarray]:
    """``factors`` as F-contiguous ``(I, R)`` arrays (in ``dtype`` if given).

    ``f.T`` of each result is the C-contiguous ``(R, I)`` view the kernels
    gather from.  Factors already in that layout and dtype pass through
    without a copy, so converting once per dispatch makes every kernel,
    HB-CSF group, shard and slab below it copy-free.  ``factors[skip]``
    (the target mode, which no kernel reads) is passed through untouched.
    """
    return [f if m == skip else np.asfortranarray(f, dtype=dtype)
            for m, f in enumerate(factors)]


def segment_sum(data: np.ndarray, ptr: np.ndarray,
                validate: bool = True) -> np.ndarray:
    """Sum ``data`` along its last axis over segments ``[ptr[n], ptr[n+1])``.

    CSF guarantees no empty internal nodes, so every segment is non-empty,
    which lets us use ``np.add.reduceat`` directly.

    ``validate=False`` skips the ``np.diff`` monotonicity scan (an extra
    O(len(ptr)) pass) for internal call sites — the CSF/B-CSF kernels and
    validated :class:`~repro.core.csl.CslGroup` structures — whose builders
    already guarantee non-empty monotone segments.
    """
    if validate:
        if ptr.shape[0] == 0:
            raise TensorFormatError("pointer array must have at least one entry")
        if data.shape[-1] != int(ptr[-1]):
            raise TensorFormatError(
                f"pointer array covers {int(ptr[-1])} entries but data has {data.shape[-1]}"
            )
        if np.any(np.diff(ptr) <= 0):
            raise TensorFormatError("segment_sum requires non-empty, monotone segments")
    if ptr.shape[0] == 1:
        return np.zeros(data.shape[:-1] + (0,), dtype=data.dtype)
    return np.add.reduceat(data, ptr[:-1], axis=-1)


def csf_mttkrp(
    csf: CsfTensor,
    factors: list[np.ndarray],
    mode: int | None = None,
    out: np.ndarray | None = None,
    dtype=None,
    validate: bool = True,
    slab_nnz: int | None = None,
) -> np.ndarray:
    """MTTKRP for the root mode of a CSF tensor.

    Parameters
    ----------
    csf:
        CSF representation.  Its root mode must be the target mode (the
        paper follows SPLATT's ALLMODE configuration: one CSF per mode).
    factors:
        One factor matrix per mode (original mode order).
    mode:
        Target mode; defaults to ``csf.root_mode`` and must equal it.
    out:
        Optional pre-allocated ``(shape[mode], R)`` output, accumulated into.
        Its dtype determines the compute dtype.
    dtype:
        Compute dtype when ``out`` is not supplied (``float32`` /
        ``float64``; default float64).
    validate:
        Skip the factor-shape checks and the segment-monotonicity scans
        when ``False`` — for trusted internal re-invocations on
        builder-produced trees.
    slab_nnz:
        Nonzeros per reduction slab (``None`` derives it from
        :data:`DEFAULT_SLAB_ELEMS` and the rank).  Slabs split only at
        root-entry boundaries, so every output row is produced by exactly
        one slab and the result is bit-identical to the single-pass
        evaluation regardless of the slab size; a single root entry larger
        than the slab is evaluated whole.
    """
    if mode is None:
        mode = csf.root_mode
    if mode != csf.root_mode:
        raise DimensionError(
            f"CSF is rooted at mode {csf.root_mode}; cannot compute mode-{mode} "
            "MTTKRP without re-rooting (build a CSF per mode, as SPLATT ALLMODE does)"
        )
    if validate:
        rank = _check_factors(csf.shape, factors, mode)
    else:
        rank = factors[mode].shape[1]
    rows = csf.shape[mode]
    if out is None:
        out = np.zeros((rows, rank), dtype=resolve_dtype(dtype), order="F")
    elif out.shape != (rows, rank):
        raise DimensionError(f"out has shape {out.shape}, expected {(rows, rank)}")
    if csf.nnz == 0:
        return out

    compute_dtype = out.dtype
    factors = rank_major(factors, compute_dtype, skip=mode)
    values = csf.values.astype(compute_dtype, copy=False)

    slab = slab_nnz_for(rank, slab_nnz)
    # Leaf offset of every root-entry boundary: chain the pointer levels.
    off = csf.fptr[0]
    for ptr in csf.fptr[1:]:
        off = ptr[off]
    nroot = csf.fids[0].shape[0]
    start = 0
    while start < nroot:
        # Slab boundaries are the kernel's cooperative watchdog points:
        # an ambient deadline (bench cell timeout, service budget) is
        # polled here, so a slabbed kernel can be interrupted between
        # slabs instead of hanging a whole pass.
        fault_point("kernel.slab")
        check_deadline("kernel.slab")
        stop = int(np.searchsorted(off, off[start] + slab, side="right")) - 1
        stop = min(max(stop, start + 1), nroot)
        # Restrict every level to the [start, stop) root entries: pointer
        # views are rebased to the slab, index/value views are plain slices.
        lo, hi = start, stop
        fids, fptr = [], []
        for ptr in csf.fptr:
            fids.append(csf.fids[len(fptr)][lo:hi])
            seg = ptr[lo:hi + 1]
            fptr.append(seg - seg[0])
            lo, hi = int(ptr[lo]), int(ptr[hi])
        fids.append(csf.fids[-1][lo:hi])
        _tree_reduce(values[lo:hi], fids, fptr, csf.mode_order, factors,
                     out, validate)
        start = stop
    return out


def _tree_reduce(values: np.ndarray, fids: list, fptr: list,
                 mode_order: tuple, factors: list[np.ndarray],
                 out: np.ndarray, validate: bool) -> None:
    """Bottom-up CSF tree reduction over one (slab of a) tensor,
    accumulated into ``out``.  ``fptr`` entries must be rebased to start
    at 0 and ``values``/``fids`` sliced consistently; ``factors`` are
    F-contiguous (:func:`rank_major`)."""
    order = len(mode_order)
    # Leaf level: val * A_leafmode[leaf index, :], gathered as an (R, nnz)
    # array and scaled in place (multiplication is commutative bit-for-bit).
    buf = np.take(factors[mode_order[-1]].T, fids[-1], axis=1)
    buf *= values

    # Reduce up the tree, scaling by the factor of each internal level except
    # the root.
    for level in range(order - 2, 0, -1):
        buf = segment_sum(buf, fptr[level], validate=validate)
        buf *= np.take(factors[mode_order[level]].T, fids[level], axis=1)

    # Root level: reduce fibers (or sub-trees) into slices and write each
    # slice's row once.  Roots are unique except in an order-2 tree, whose
    # root level is the fiber level fbr-split may repeat.
    slice_vals = segment_sum(buf, fptr[0], validate=validate)
    if order == 2:
        np.add.at(out, fids[0], slice_vals.T)
    else:
        out.T[:, fids[0]] += slice_vals
