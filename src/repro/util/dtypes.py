"""The compute-dtype policy shared by kernels, builders, ALS and bench.

All four CPU MTTKRP kernels are bandwidth-bound: their cost is dominated by
streaming the per-nonzero accumulator and the gathered factor rows through
memory, not by the multiplies.  Computing in ``float32`` therefore roughly
halves the wall-clock time at the price of ~1e-6 relative accuracy — a
trade-off the caller should make, not the kernel.  This module defines the
single knob: every public entry point (``mttkrp()``, ``MttkrpPlan``,
``cp_als``, the format builders) accepts a ``dtype``
that is resolved here.

``None`` resolves to the package default (float64, the paper's reference
precision), so existing callers are bit-for-bit unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError

__all__ = ["COMPUTE_DTYPES", "DEFAULT_COMPUTE_DTYPE", "resolve_dtype",
           "dtype_token"]

#: accepted compute dtypes, by canonical name.
COMPUTE_DTYPES: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

#: the package default: the paper's reference precision.
DEFAULT_COMPUTE_DTYPE = COMPUTE_DTYPES["float64"]


def resolve_dtype(dtype) -> np.dtype:
    """Resolve a user-facing dtype spelling to a concrete :class:`np.dtype`.

    Accepts ``None`` (→ float64), the strings ``"float32"`` / ``"float64"``,
    or anything :class:`np.dtype` accepts that resolves to one of the two;
    everything else raises :class:`ValidationError`.
    """
    if dtype is None:
        return DEFAULT_COMPUTE_DTYPE
    if isinstance(dtype, str):
        key = dtype.strip().lower()
        if key in COMPUTE_DTYPES:
            return COMPUTE_DTYPES[key]
        raise ValidationError(
            f"unknown compute dtype {dtype!r}; choose one of "
            f"{', '.join(COMPUTE_DTYPES)}")
    resolved = np.dtype(dtype)
    if resolved.name not in COMPUTE_DTYPES:
        raise ValidationError(
            f"compute dtype must be float32 or float64, got {resolved.name}")
    return resolved


def dtype_token(dtype) -> str:
    """Stable cache-key token for a (possibly ``None``) compute dtype."""
    return resolve_dtype(dtype).name


def cast_values(rep, dtype):
    """Return ``rep`` with its ``values`` array stored in ``dtype``.

    The single casting rule for every representation that owns a value
    array (CSF trees, CSL groups): a frozen-dataclass copy with the values
    downcast, or ``rep`` itself when the dtype already matches (a float64
    request on a float64 build is free).  Pre-casting at build time —
    instead of per kernel call — is what makes the float32 policy actually
    halve the streamed value bytes.
    """
    import dataclasses

    dtype = resolve_dtype(dtype)
    if rep.values.dtype == dtype:
        return rep
    return dataclasses.replace(rep, values=rep.values.astype(dtype))
