"""Fit / error computation for CP models.

The relative fit of a CP model ``[[λ; A_0, ..., A_{N-1}]]`` against a sparse
tensor ``X`` is computed without densifying anything, using the standard
identity

    ||X - X̃||² = ||X||² + ||X̃||² - 2 <X, X̃>

where ``||X̃||² = λᵀ (∗_m A_mᵀA_m) λ`` and the inner product is accumulated
from the last MTTKRP of the ALS sweep.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import CooTensor
from repro.util.errors import DimensionError

__all__ = ["tensor_norm", "cp_norm", "cp_innerprod", "cp_fit", "column_dots"]


def tensor_norm(tensor: CooTensor) -> float:
    """Frobenius norm of a sparse tensor."""
    return float(np.linalg.norm(tensor.values))


#: columns :func:`column_dots` multiplies per step when an input is not
#: F-contiguous: eight float64 columns of a C-ordered ``(I, R)`` array are
#: one 64-byte cache line per row.
_DOT_COLS = 8


def column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.sum(a * b, axis=0)`` of two ``(I, R)`` arrays without an
    ``(I, R)`` temporary.

    Columns are multiplied into one reused F-ordered buffer and each
    product column is reduced on its own.  F-contiguous inputs (CP-ALS
    factors) go one column at a time through an ``(I,)`` buffer that stays
    in cache; otherwise :data:`_DOT_COLS` columns at a time go through an
    ``(I, 8)`` buffer, so a C-ordered input (the MTTKRP outputs of
    :meth:`~repro.core.hybrid.HbcsfTensor.mttkrp`) is read a cache line per
    row rather than one strided column per pass.  Each product column is
    contiguous and reduced by the same pairwise sum, so the result is
    bit-identical to the full product on F-contiguous arrays, whatever the
    inputs' layout.
    """
    dtype = np.result_type(a, b)
    rows, rank = a.shape
    step = 1 if a.flags.f_contiguous and b.flags.f_contiguous else _DOT_COLS
    block = np.empty((rows, min(step, rank)), dtype=dtype, order="F")
    dots = np.empty(rank, dtype=dtype)
    for r0 in range(0, rank, step):
        prod = block[:, :min(step, rank - r0)]
        np.multiply(a[:, r0:r0 + step], b[:, r0:r0 + step], out=prod)
        for j in range(prod.shape[1]):
            dots[r0 + j] = np.add.reduce(prod[:, j])
    return dots


def cp_norm(weights: np.ndarray, factors: list[np.ndarray],
            grams: list[np.ndarray] | None = None) -> float:
    """Frobenius norm of the CP model ``[[weights; factors]]``.

    ``grams`` may supply the precomputed ``A_mᵀA_m`` matrices (one per
    factor) — CPD-ALS maintains exactly these in its inner loop, so the
    per-iteration fit does not redo one matmul per mode.
    """
    rank = factors[0].shape[1]
    if weights.shape != (rank,):
        raise DimensionError(f"weights must have shape ({rank},)")
    gram = np.ones((rank, rank), dtype=np.float64)
    if grams is None:
        for f in factors:
            gram *= f.T @ f
    else:
        if len(grams) != len(factors):
            raise DimensionError("need one Gram matrix per factor")
        for g in grams:
            gram *= g
    value = float(weights @ gram @ weights)
    return float(np.sqrt(max(value, 0.0)))


def cp_innerprod(tensor: CooTensor, weights: np.ndarray,
                 factors: list[np.ndarray],
                 mttkrp_last: np.ndarray | None = None,
                 last_mode: int | None = None) -> float:
    """Inner product ``<X, X̃>``.

    If the MTTKRP of the last updated mode is available (as it is at the end
    of every ALS sweep) the inner product is just
    ``sum(A_last * M_last) @ weights`` — no extra pass over the tensor.
    Otherwise it is accumulated directly from the nonzeros.
    """
    if mttkrp_last is not None and last_mode is not None:
        per_col = column_dots(factors[last_mode], mttkrp_last)
        return float(per_col @ weights)
    if tensor.nnz == 0:
        return 0.0
    acc = np.repeat(weights[None, :], tensor.nnz, axis=0)
    for m in range(tensor.order):
        acc = acc * factors[m][tensor.indices[:, m]]
    model_at_nonzeros = acc.sum(axis=1)
    return float(model_at_nonzeros @ tensor.values)


def cp_fit(tensor: CooTensor, weights: np.ndarray, factors: list[np.ndarray],
           mttkrp_last: np.ndarray | None = None,
           last_mode: int | None = None,
           norm_x: float | None = None,
           grams: list[np.ndarray] | None = None) -> float:
    """Relative fit ``1 - ||X - X̃|| / ||X||`` (1 is a perfect model).

    ``grams`` optionally forwards precomputed ``A_mᵀA_m`` matrices to
    :func:`cp_norm` (the ALS fast path).
    """
    norm_x = tensor_norm(tensor) if norm_x is None else norm_x
    if norm_x == 0.0:
        return 1.0
    norm_model = cp_norm(weights, factors, grams)
    inner = cp_innerprod(tensor, weights, factors, mttkrp_last, last_mode)
    residual_sq = max(norm_x ** 2 + norm_model ** 2 - 2.0 * inner, 0.0)
    return 1.0 - float(np.sqrt(residual_sq)) / norm_x
