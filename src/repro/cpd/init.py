"""Factor-matrix initialisation for CPD-ALS."""

from __future__ import annotations

import numpy as np

from repro.tensor.coo import CooTensor
from repro.util.errors import ValidationError
from repro.util.prng import default_rng

__all__ = ["init_factors"]


def init_factors(
    tensor: CooTensor,
    rank: int,
    method: str = "random",
    rng: np.random.Generator | int | None = None,
) -> list[np.ndarray]:
    """Initial factor matrices for CPD-ALS, F-contiguous (the MTTKRP
    kernels' rank-major layout; the values do not depend on the layout).

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
        return [np.asfortranarray(rng.random((s, rank)))
                for s in tensor.shape]
    if method == "randn":
        return [np.asfortranarray(rng.standard_normal((s, rank)))
                for s in tensor.shape]
    raise ValidationError(f"unknown init method {method!r}; use 'random' or 'randn'")
