"""Correctness checks.  None of them runs inside a timed section.

* each mode's hb-csf MTTKRP against the ``coo`` kernel: max relative error
  at most :data:`MAX_REL_ERR`;
* the threaded backend against serial: bit-identical under a uint64 view
  (the repository's promise for ``backend="threads"``);
* every repeat of a deterministic MTTKRP against the first: bit-identical
  (compared by :func:`digest`, so the first outputs need not be kept);
* ``cp_als``: the requested iterations ran and every fit is finite.

Each check returns ``None`` when it passes and a reason when it fails; the
caller marks the operation that produced the output as failed.
"""

from __future__ import annotations

import hashlib

import numpy as np

MAX_REL_ERR = 1e-10


def rel_error(got: np.ndarray, ref: np.ndarray) -> float:
    """``max |got - ref| / max |ref|`` (absolute error when ``ref`` is 0)."""
    if got.shape != ref.shape:
        return float("inf")
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    diff = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    return diff / scale if scale > 0.0 else diff


def check_close(got: np.ndarray, ref: np.ndarray, what: str) -> str | None:
    err = rel_error(got, ref)
    if not err <= MAX_REL_ERR:
        return f"{what}: max relative error {err:.3e} > {MAX_REL_ERR:.0e}"
    return None


def check_identical(got: np.ndarray, ref: np.ndarray,
                    what: str) -> str | None:
    if got.shape != ref.shape or got.dtype != ref.dtype:
        return f"{what}: shape/dtype {got.shape}/{got.dtype} != " \
               f"{ref.shape}/{ref.dtype}"
    bits_got = np.ascontiguousarray(got).view(np.uint64)
    bits_ref = np.ascontiguousarray(ref).view(np.uint64)
    if not np.array_equal(bits_got, bits_ref):
        return f"{what}: not bit-identical " \
               f"({int(np.count_nonzero(bits_got != bits_ref))} words differ)"
    return None


def check_als(result, n_iters: int) -> str | None:
    if result.iterations != n_iters or len(result.fits) != n_iters:
        return f"cp_als ran {result.iterations} of {n_iters} iterations"
    if not np.all(np.isfinite(result.fits)):
        return f"cp_als fits not finite: {result.fits}"
    return None


def digest(arr: np.ndarray) -> str:
    """Content hash of an array's bytes, dtype and shape."""
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(memoryview(np.ascontiguousarray(arr)).cast("B"))
    return h.hexdigest()
