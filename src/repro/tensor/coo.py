"""N-order sparse tensor in coordinate (COO) form.

COO is the interchange format of the package: every other representation
(CSF, B-CSF, CSL, HB-CSF, HiCOO, F-COO) is constructed from a
:class:`CooTensor` and every MTTKRP implementation is validated against the
COO/dense reference.

The layout follows Section III-A of the paper: an order-``N`` tensor with
``M`` nonzeros stores an ``(M, N)`` integer index array and an ``(M,)``
value array.  Index storage is therefore ``4 * N * M`` bytes when 32-bit
indices are used (the paper's convention, see :mod:`repro.analysis.storage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.telemetry import counter_add
from repro.util.errors import DimensionError, ValidationError

__all__ = ["CooTensor", "encode_coordinates", "run_starts", "sum_runs"]

#: dtype used for indices.  The paper uses 32-bit unsigned integers; we keep
#: a signed 64-bit working dtype internally (NumPy index arithmetic) and
#: account for 4-byte indices only in the storage *analysis*.
INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


def _as_index_array(indices: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    arr = np.asarray(indices)
    if arr.ndim != 2:
        raise DimensionError(
            f"indices must be a 2-D (nnz, order) array, got ndim={arr.ndim}"
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(arr, 1), 0)):
            raise ValidationError("indices must be integers")
    return np.ascontiguousarray(arr, dtype=INDEX_DTYPE)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only: in place, unless it views memory that some
    other object can still write (freezing a view does not freeze what it
    views), then as a copy."""
    base = arr.base
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    if isinstance(base, np.ndarray):
        shared = bool(base.flags.writeable)
    elif base is not None:
        try:
            shared = not memoryview(base).readonly
        except TypeError:  # not a buffer: cannot tell, so assume writeable
            shared = True
    else:
        shared = False
    if shared:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CooTensor:
    """Immutable N-order coordinate sparse tensor.

    The index and value arrays are read-only from construction on, so the
    content the caches keyed by a tensor (its memoised fingerprint, the
    build-plan cache) have seen cannot change under them.  An input array
    stored without a copy (already ``int64`` / ``float64`` and contiguous)
    is made read-only in place; pass a copy to keep writing into it, or
    derive a new tensor with :meth:`with_values`.  An input that views
    memory still writeable elsewhere (``buf[:n]`` of a writeable ``buf``,
    a buffer such as a ``bytearray``) is copied, since freezing the view
    would not stop writes through ``buf``.

    Attributes
    ----------
    indices:
        ``(nnz, order)`` integer array; row ``z`` holds the coordinates of
        nonzero ``z``.
    values:
        ``(nnz,)`` float array of nonzero values.
    shape:
        Tuple of mode sizes ``(I_0, ..., I_{N-1})``.
    """

    indices: np.ndarray
    values: np.ndarray
    shape: tuple[int, ...]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __init__(
        self,
        indices: np.ndarray | Sequence[Sequence[int]],
        values: np.ndarray | Sequence[float],
        shape: Sequence[int] | None = None,
        *,
        validate: bool = True,
        sum_duplicates: bool = False,
    ) -> None:
        idx = _as_index_array(indices)
        vals = np.ascontiguousarray(values, dtype=VALUE_DTYPE)
        if vals.ndim != 1:
            vals = vals.ravel()
        if idx.shape[0] != vals.shape[0]:
            raise ValidationError(
                f"{idx.shape[0]} index rows but {vals.shape[0]} values"
            )
        if shape is None:
            if idx.shape[0] == 0:
                raise DimensionError("shape is required for an empty tensor")
            shape = tuple(int(m) + 1 for m in idx.max(axis=0))
        shape = tuple(int(s) for s in shape)
        if len(shape) != idx.shape[1] and idx.shape[0] > 0:
            raise DimensionError(
                f"shape has {len(shape)} modes but indices have {idx.shape[1]}"
            )
        if idx.shape[0] == 0 and idx.shape[1] != len(shape):
            idx = idx.reshape(0, len(shape))

        if validate:
            _validate(idx, vals, shape)
        if sum_duplicates and idx.shape[0]:
            idx, vals = _sorted_unique(idx, vals, shape, tuple(range(len(shape))))

        # frozen in place where that suffices: see the class docstring
        object.__setattr__(self, "indices", _frozen(idx))
        object.__setattr__(self, "values", _frozen(vals))
        object.__setattr__(self, "shape", shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CooTensor":
        """Build a COO tensor from a dense ndarray (zeros are dropped)."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        idx = np.argwhere(dense != 0.0)
        vals = dense[tuple(idx.T)] if idx.size else np.zeros(0, dtype=VALUE_DTYPE)
        return cls(idx.reshape(-1, dense.ndim), vals, dense.shape, validate=False)

    @classmethod
    def empty(cls, shape: Sequence[int]) -> "CooTensor":
        shape = tuple(int(s) for s in shape)
        return cls(
            np.zeros((0, len(shape)), dtype=INDEX_DTYPE),
            np.zeros(0, dtype=VALUE_DTYPE),
            shape,
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Number of modes (the paper's ``N``)."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros (the paper's ``M``)."""
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        """``nnz / prod(shape)`` as reported in Table III."""
        total = float(np.prod(np.asarray(self.shape, dtype=np.float64)))
        return self.nnz / total if total > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(s) for s in self.shape)
        return f"CooTensor(shape={dims}, nnz={self.nnz})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CooTensor):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a = self.sorted_by_modes(tuple(range(self.order)))
        b = other.sorted_by_modes(tuple(range(other.order)))
        return bool(
            np.array_equal(a.indices, b.indices) and np.allclose(a.values, b.values)
        )

    def __hash__(self) -> int:  # dataclass(frozen) would otherwise define one
        return id(self)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def astype(self, dtype) -> "CooTensor":
        return CooTensor(self.indices, self.values.astype(dtype), self.shape,
                         validate=False)

    def permute_modes(self, perm: Sequence[int]) -> "CooTensor":
        """Return a tensor whose mode ``p`` is this tensor's mode ``perm[p]``."""
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(self.order)):
            raise DimensionError(f"{perm} is not a permutation of 0..{self.order - 1}")
        return CooTensor(
            self.indices[:, perm],
            self.values,
            tuple(self.shape[p] for p in perm),
            validate=False,
        )

    def sorted_by_modes(self, mode_order: Sequence[int] | None = None) -> "CooTensor":
        """Return a copy with nonzeros sorted lexicographically.

        ``mode_order`` gives the significance of the key: the first listed
        mode is the most significant.  This is the ordering CSF construction
        relies on (root mode first).  The sort is stable — duplicate
        coordinates keep their order of appearance — so the permutation is
        exactly ``np.lexsort``'s.
        """
        if self.nnz == 0:
            return self
        perm, _ = _sort_runs(self.indices, self.shape,
                             self._check_mode_order(mode_order))
        return CooTensor(_take_rows(self.indices, perm),
                         _take_rows(self.values, perm), self.shape,
                         validate=False)

    def sorted_unique(self, mode_order: Sequence[int] | None = None) -> "CooTensor":
        """Return a copy sorted like :meth:`sorted_by_modes` with duplicate
        coordinates summed.

        One sort of the packed coordinate keys, then one ``np.bincount``
        over the runs of equal keys: each duplicate group sums its values
        in order of appearance.  The result is the same whatever
        ``mode_order`` is, up to the order of its rows.
        """
        if self.nnz == 0:
            return self
        idx, vals = _sorted_unique(self.indices, self.values, self.shape,
                                   self._check_mode_order(mode_order))
        return CooTensor(idx, vals, self.shape, validate=False)

    def deduplicated(self) -> "CooTensor":
        """Return a copy with duplicate coordinates summed, sorted in natural
        mode order."""
        return self.sorted_unique()

    def with_values(self, values: np.ndarray) -> "CooTensor":
        values = np.asarray(values, dtype=VALUE_DTYPE).ravel()
        if values.shape[0] != self.nnz:
            raise ValidationError(
                f"expected {self.nnz} values, got {values.shape[0]}"
            )
        return CooTensor(self.indices, values, self.shape, validate=False)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ndarray (small tensors / testing only)."""
        total = int(np.prod(self.shape))
        if total > 50_000_000:
            raise ValidationError(
                f"refusing to densify a tensor with {total} cells"
            )
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        if self.nnz:
            np.add.at(dense, tuple(self.indices.T), self.values)
        return dense

    # ------------------------------------------------------------------ #
    # structural queries used throughout the paper
    # ------------------------------------------------------------------ #
    def mode_index(self, mode: int) -> np.ndarray:
        """Return the index column of ``mode`` (checked)."""
        mode = self._check_mode(mode)
        return self.indices[:, mode]

    def slice_keys(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(unique slice indices, nonzeros per slice)`` for ``mode``.

        A *slice* fixes the given mode (the CSF root); this is the quantity
        whose standard deviation Table II reports as "stdev #nnz per slc".
        """
        mode = self._check_mode(mode)
        return np.unique(self.indices[:, mode], return_counts=True)

    def fiber_keys(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(fiber ids, nonzeros per fiber)`` for a CSF rooted at ``mode``.

        A *fiber* fixes every mode except the last one in the CSF mode
        ordering ``(mode, other modes in natural order)``; its nonzero count
        is the quantity whose standard deviation Table II reports as
        "stdev #nnz per fbr".
        """
        mode = self._check_mode(mode)
        ordering = csf_mode_ordering(self.order, mode)
        upper = ordering[:-1]
        if self.nnz == 0:
            return np.zeros(0, dtype=INDEX_DTYPE), np.zeros(0, dtype=INDEX_DTYPE)
        key = np.zeros(self.nnz, dtype=np.int64)
        for m in upper:
            key = key * int(self.shape[m]) + self.indices[:, m]
        _, counts = np.unique(key, return_counts=True)
        fiber_ids = np.arange(counts.shape[0], dtype=INDEX_DTYPE)
        return fiber_ids, counts.astype(INDEX_DTYPE)

    def num_slices(self, mode: int) -> int:
        """Number of non-empty slices when rooted at ``mode`` (paper's ``S``)."""
        return int(self.slice_keys(mode)[0].shape[0])

    def num_fibers(self, mode: int) -> int:
        """Number of non-empty fibers when rooted at ``mode`` (paper's ``F``)."""
        return int(self.fiber_keys(mode)[1].shape[0])

    def _check_mode_order(self, mode_order: Sequence[int] | None
                          ) -> tuple[int, ...]:
        if mode_order is None:
            return tuple(range(self.order))
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(self.order)):
            raise DimensionError(
                f"{mode_order} is not a permutation of 0..{self.order - 1}"
            )
        return mode_order

    def _check_mode(self, mode: int) -> int:
        mode = int(mode)
        if not 0 <= mode < self.order:
            raise DimensionError(
                f"mode {mode} out of range for an order-{self.order} tensor"
            )
        return mode


def csf_mode_ordering(order: int, root_mode: int) -> tuple[int, ...]:
    """Mode ordering used for a CSF representation rooted at ``root_mode``.

    Following SPLATT's ALLMODE convention (which the paper adopts), the root
    mode comes first and the remaining modes keep their natural order.
    """
    if not 0 <= root_mode < order:
        raise DimensionError(f"root mode {root_mode} out of range for order {order}")
    rest = [m for m in range(order) if m != root_mode]
    return (root_mode, *rest)


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _validate(indices: np.ndarray, values: np.ndarray, shape: tuple[int, ...]) -> None:
    if any(s <= 0 for s in shape):
        raise DimensionError(f"all mode sizes must be positive, got {shape}")
    if indices.shape[0] == 0:
        return
    if indices.min() < 0:
        raise ValidationError("negative indices are not allowed")
    maxes = indices.max(axis=0)
    for m, (mx, s) in enumerate(zip(maxes, shape)):
        if mx >= s:
            raise ValidationError(
                f"index {int(mx)} out of bounds for mode {m} with size {s}"
            )
    if not np.all(np.isfinite(values)):
        raise ValidationError("values must be finite (no NaN / inf)")


def encode_coordinates(indices: np.ndarray, shape: Sequence[int],
                       mode_order: Sequence[int]) -> np.ndarray:
    """Encode each coordinate row as one int64 sort key.

    ``mode_order[0]`` is the most significant digit, so the order of the
    keys is the lexicographic order of the rows by ``mode_order``, and two
    rows share a key exactly when they share coordinates.  Shapes whose
    cell count reaches ``2**63`` cannot be encoded and raise
    :class:`ValidationError`: the in-memory sorts fall back to
    ``np.lexsort`` for them, the out-of-core sort refuses them up front.
    """
    if not _keys_fit(shape):
        raise ValidationError(
            f"packed coordinate keys require prod(shape) < 2**63, "
            f"got shape {tuple(shape)}")
    key = indices[:, mode_order[0]].astype(np.int64, copy=True)
    for m in mode_order[1:]:
        np.multiply(key, int(shape[m]), out=key)
        np.add(key, indices[:, m], out=key)
    return key


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Flags of a sorted key stream: true where a run of equal keys starts."""
    boundary = np.empty(keys.shape[0], dtype=bool)
    boundary[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    return boundary


def sum_runs(boundary: np.ndarray, values: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Sum the runs of a sorted stream.

    ``boundary[i]`` is true where a new run (one distinct coordinate)
    starts, as :func:`run_starts` flags it; ``boundary[0]`` must be true.
    Returns the start position and the value sum of every run.  Sums come
    from one ``np.bincount`` over the run ids, which adds each run's
    values left to right starting from ``0.0`` — so a lone ``-0.0`` sums
    to ``0.0``.  The in-memory
    :meth:`CooTensor.sorted_unique` and the out-of-core sort both dedup
    through here, which keeps them bit-identical.
    """
    starts = np.flatnonzero(boundary)
    group = np.cumsum(boundary)
    group -= 1
    sums = np.bincount(group, weights=values, minlength=starts.shape[0])
    return starts, sums


def _keys_fit(shape: Sequence[int]) -> bool:
    total = 1
    for s in shape:
        total *= int(s)
    return total < 2**63


def _sort_runs(indices: np.ndarray, shape: Sequence[int],
               mode_order: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort permutation of ``indices`` by ``mode_order`` and the
    run-start flags of the sorted rows (see :func:`sum_runs`).

    The packed keys are sorted with the default (fastest) ``np.argsort``:
    when every key is distinct all sort kinds return the same permutation,
    so only a stream whose sorted keys repeat is sorted again with
    ``kind="stable"``.  A shape too large to pack falls back to
    ``np.lexsort`` over the index columns and counts one
    ``tensor.sort.fallback``.
    """
    if not _keys_fit(shape):
        counter_add("tensor.sort.fallback")
        # np.lexsort takes the *last* key as primary; reverse accordingly.
        perm = np.lexsort(tuple(indices[:, m] for m in reversed(mode_order)))
        boundary = np.zeros(perm.shape[0], dtype=bool)
        for m in mode_order:
            boundary |= run_starts(indices[perm, m])
        return perm, boundary
    key = encode_coordinates(indices, shape, mode_order)
    perm = np.argsort(key)
    boundary = run_starts(key[perm])
    if not boundary.all():
        # equal keys sort to the same place under every kind, so the run
        # flags stand; only the order inside each run must become stable
        perm = np.argsort(key, kind="stable")
    return perm, boundary


def _sorted_unique(indices: np.ndarray, values: np.ndarray,
                   shape: Sequence[int], mode_order: tuple[int, ...]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``indices``/``values`` sorted by ``mode_order`` with duplicates
    summed (``indices`` non-empty)."""
    perm, boundary = _sort_runs(indices, shape, mode_order)
    starts, sums = sum_runs(boundary, _take_rows(values, perm))
    if starts.shape[0] < perm.shape[0]:
        perm = perm[starts]
    return _take_rows(indices, perm), sums


def _take_rows(arr: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``arr[perm]`` for in-range row positions: ``take`` along rows is
    ~4x faster than fancy indexing on an ``(nnz, order)`` array, and
    ``mode="clip"`` skips the bounds check."""
    return arr.take(perm, axis=0, mode="clip")
