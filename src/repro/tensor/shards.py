"""Sharded out-of-core COO storage.

A *sharded* tensor lives on disk as a directory: a JSON manifest
(``manifest.json``) describing shape/nnz/dtypes plus one pair of ``.npy``
chunk files per shard (``shard-00000.indices.npy`` / ``.values.npy``).
:class:`ShardedCooTensor` iterates :class:`~repro.tensor.coo.CooTensor`
chunks through ``np.load(..., mmap_mode="r")`` without ever concatenating,
so GB-scale tensors stream through format builders and per-mode statistics
with a working set bounded by one shard.

Shards are cut at exact ``shard_nnz`` boundaries regardless of how the
writer was fed, so the manifest digest — the content address the build-plan
cache keys sharded inputs by — depends only on the logical nonzero stream
and the shard size, never on append batching.

:func:`sort_sharded` is the out-of-core companion of
``CooTensor.sorted_unique(...)``: an external merge sort over the same
int64-encoded coordinates (:func:`~repro.tensor.coo.encode_coordinates`)
whose stable runs/merges preserve the original appearance order of
duplicate coordinates, and whose duplicate sums go through the same
:func:`~repro.tensor.coo.sum_runs` — the CSF-family builders, which
stream a sharded input through its sorted view, rely on this to stay
bit-identical to the in-memory builds.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import shutil
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.faults.hooks import fault_point
from repro.telemetry import counter_add, stage
from repro.tensor.coo import (
    CooTensor, INDEX_DTYPE, VALUE_DTYPE, csf_mode_ordering, encode_coordinates,
    run_starts, sum_runs,
)
from repro.util.errors import DimensionError, ShardIntegrityError, ValidationError
from repro.util.safe_io import atomic_save_npy, atomic_write_json

__all__ = [
    "SHARD_FORMAT_VERSION",
    "DEFAULT_SHARD_NNZ",
    "ShardedCooWriter",
    "ShardedCooTensor",
    "save_sharded",
    "open_sharded",
    "sort_sharded",
    "trim_allocator",
]

SHARD_FORMAT_VERSION = 1

#: default nonzeros per shard: an order-3 shard is ~32 MB (24 B of indices
#: plus 8 B of value per nonzero).
DEFAULT_SHARD_NNZ = 1 << 20

MANIFEST_NAME = "manifest.json"

#: rows per block when sorting/merging (decoupled from the shard size so
#: the sort working set stays bounded even with huge shards).  The merge
#: and dedup stages materialise a handful of block-sized temporaries at
#: once, so the block is kept at 2^19 rows (~16 MB of order-3 indices) to
#: hold the sort's peak RSS well under the streamed builders' budget.
_SORT_BLOCK_NNZ = 1 << 19


def trim_allocator() -> None:
    """Return freed heap pages to the kernel (best-effort glibc
    ``malloc_trim``).

    The external sort churns through thousands of block-sized temporaries;
    glibc retains the freed arenas, so without a trim they stay resident
    and inflate the RSS high-water mark of whatever runs next (the streamed
    format builders, an RSS-gated benchmark cell).  No-op on non-glibc
    platforms.
    """
    import ctypes
    import gc

    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


def _sha256_array(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(arr.dtype.str.encode())
    h.update(repr(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()


def _canonical_manifest_bytes(manifest: dict) -> bytes:
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()


class ShardedCooWriter:
    """Incrementally write a sharded COO tensor.

    ``append`` accepts arbitrary-size batches; full shards are flushed to
    disk as soon as ``shard_nnz`` rows accumulate, so the working set is
    bounded by one shard regardless of the total stream length.  ``shape``
    may be omitted and is then inferred at :meth:`close` from the per-mode
    maxima observed while streaming.
    """

    def __init__(self, root: str | os.PathLike,
                 shape: Sequence[int] | None = None, *,
                 shard_nnz: int = DEFAULT_SHARD_NNZ,
                 sorted_by: Sequence[int] | None = None,
                 deduplicated: bool = False,
                 extra: dict | None = None) -> None:
        if shard_nnz < 1:
            raise ValidationError(f"shard_nnz must be >= 1, got {shard_nnz}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shape = tuple(int(s) for s in shape) if shape is not None else None
        self.shard_nnz = int(shard_nnz)
        self.sorted_by = (tuple(int(m) for m in sorted_by)
                          if sorted_by is not None else None)
        self.deduplicated = bool(deduplicated)
        self.extra = dict(extra or {})
        self._parts: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending = 0
        self._shards: list[dict] = []
        self._nnz = 0
        self._order: int | None = len(self.shape) if self.shape else None
        self._maxima: np.ndarray | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    def append(self, indices: np.ndarray, values: np.ndarray, *,
               validate: bool = True) -> None:
        if self._closed:
            raise ValidationError("writer is closed")
        idx = np.ascontiguousarray(np.asarray(indices), dtype=INDEX_DTYPE)
        vals = np.ascontiguousarray(np.asarray(values, dtype=VALUE_DTYPE)).ravel()
        if idx.ndim != 2:
            raise DimensionError(
                f"indices must be a 2-D (nnz, order) array, got ndim={idx.ndim}")
        if idx.shape[0] != vals.shape[0]:
            raise ValidationError(
                f"{idx.shape[0]} index rows but {vals.shape[0]} values")
        if idx.shape[0] == 0:
            return
        if self._order is None:
            self._order = idx.shape[1]
        elif idx.shape[1] != self._order:
            raise DimensionError(
                f"batch has {idx.shape[1]} modes, expected {self._order}")
        if validate:
            if idx.min() < 0:
                raise ValidationError("negative indices are not allowed")
            if not np.all(np.isfinite(vals)):
                raise ValidationError("values must be finite (no NaN / inf)")
            if self.shape is not None:
                maxes = idx.max(axis=0)
                for m, (mx, s) in enumerate(zip(maxes, self.shape)):
                    if mx >= s:
                        raise ValidationError(
                            f"index {int(mx)} out of bounds for mode {m} "
                            f"with size {s}")
        if self.shape is None:
            maxes = idx.max(axis=0)
            if self._maxima is None:
                self._maxima = maxes.copy()
            else:
                np.maximum(self._maxima, maxes, out=self._maxima)
        self._parts.append((idx, vals))
        self._pending += idx.shape[0]
        while self._pending >= self.shard_nnz:
            self._flush_shard(self.shard_nnz)

    def _take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Pop exactly ``n`` rows off the front of the pending parts."""
        taken_idx: list[np.ndarray] = []
        taken_vals: list[np.ndarray] = []
        need = n
        while need > 0:
            idx, vals = self._parts[0]
            if idx.shape[0] <= need:
                taken_idx.append(idx)
                taken_vals.append(vals)
                need -= idx.shape[0]
                self._parts.pop(0)
            else:
                taken_idx.append(idx[:need])
                taken_vals.append(vals[:need])
                self._parts[0] = (idx[need:], vals[need:])
                need = 0
        self._pending -= n
        if len(taken_idx) == 1:
            return np.ascontiguousarray(taken_idx[0]), np.ascontiguousarray(taken_vals[0])
        return (np.concatenate(taken_idx, axis=0),
                np.concatenate(taken_vals))

    def _flush_shard(self, n: int) -> None:
        idx, vals = self._take(n)
        num = len(self._shards)
        idx_name = f"shard-{num:05d}.indices.npy"
        val_name = f"shard-{num:05d}.values.npy"
        # Crash-safe commit: payload to a temp file, fsync, atomic rename.
        # The "shards.write" fault point sits between payload and rename,
        # so an injected raise models a writer killed mid-batch (temp file
        # only, no torn shard) and injected truncate/corrupt model a
        # committed-then-rotted file that open_sharded must catch.
        atomic_save_npy(self.root / idx_name, idx, fault="shards.write")
        atomic_save_npy(self.root / val_name, vals, fault="shards.write")
        self._shards.append({
            "indices": idx_name,
            "values": val_name,
            "nnz": int(idx.shape[0]),
            "sha256_indices": _sha256_array(idx),
            "sha256_values": _sha256_array(vals),
        })
        self._nnz += int(idx.shape[0])

    # ------------------------------------------------------------------ #
    def close(self, shape: Sequence[int] | None = None) -> "ShardedCooTensor":
        """Flush the remainder, write the manifest and open the result."""
        if self._closed:
            raise ValidationError("writer is already closed")
        if self._pending:
            self._flush_shard(self._pending)
        self._closed = True
        if shape is not None:
            self.shape = tuple(int(s) for s in shape)
        if self.shape is None:
            if self._maxima is None:
                raise DimensionError("shape is required for an empty tensor")
            self.shape = tuple(int(m) + 1 for m in self._maxima)
        elif self._maxima is not None:
            for m, (mx, s) in enumerate(zip(self._maxima, self.shape)):
                if mx >= s:
                    raise ValidationError(
                        f"index {int(mx)} out of bounds for mode {m} "
                        f"with size {s}")
        manifest = {
            "format_version": SHARD_FORMAT_VERSION,
            "shape": list(self.shape),
            "order": len(self.shape),
            "nnz": self._nnz,
            "shard_nnz": self.shard_nnz,
            "index_dtype": np.dtype(INDEX_DTYPE).str,
            "value_dtype": np.dtype(VALUE_DTYPE).str,
            "sorted_by": (list(self.sorted_by)
                          if self.sorted_by is not None else None),
            "deduplicated": self.deduplicated,
            "shards": self._shards,
        }
        manifest.update(self.extra)
        # The manifest is the commit marker of the whole directory: written
        # last, atomically, after every shard file it names is durable.  A
        # crash at any earlier point leaves a directory without a manifest,
        # which open_sharded reports as a typed error and the cache layers
        # rebuild from scratch.
        atomic_write_json(self.root / MANIFEST_NAME, manifest,
                          fault="shards.write")
        return ShardedCooTensor(self.root, manifest)

    def __enter__(self) -> "ShardedCooWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._closed:
            self.close()


class ShardedCooTensor:
    """A sharded COO tensor opened from its on-disk manifest.

    Duck-types the :class:`~repro.tensor.coo.CooTensor` surface the format
    registry and autotuner touch before a representation is built —
    ``shape`` / ``order`` / ``nnz`` / ``density`` and the per-mode
    statistics (``slice_keys`` / ``fiber_keys`` / ``num_slices`` /
    ``num_fibers``) — all computed by streaming shard chunks, never by
    concatenating them.  The build-plan cache keys sharded inputs by
    :meth:`manifest_digest` instead of hashing in-RAM arrays.
    """

    #: duck-typing marker: the CSF-family builders stream inputs that
    #: carry it, and the in-memory-only formats materialise them.
    is_sharded = True

    def __init__(self, root: str | os.PathLike, manifest: dict) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self.shape: tuple[int, ...] = tuple(int(s) for s in manifest["shape"])
        self.shards: list[dict] = list(manifest["shards"])
        self.shard_nnz = int(manifest.get("shard_nnz", DEFAULT_SHARD_NNZ))
        sorted_by = manifest.get("sorted_by")
        self.sorted_by: tuple[int, ...] | None = (
            tuple(int(m) for m in sorted_by) if sorted_by is not None else None)
        self.deduplicated = bool(manifest.get("deduplicated", False))
        self._digest: str | None = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.manifest["nnz"])

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def density(self) -> float:
        total = float(np.prod(np.asarray(self.shape, dtype=np.float64)))
        return self.nnz / total if total > 0 else 0.0

    def shard_bytes(self, i: int) -> int:
        """Payload bytes of shard ``i`` (indices + values, headers excluded)."""
        n = int(self.shards[i]["nnz"])
        return n * self.order * np.dtype(INDEX_DTYPE).itemsize \
            + n * np.dtype(VALUE_DTYPE).itemsize

    @property
    def largest_shard_bytes(self) -> int:
        if not self.shards:
            return 0
        return max(self.shard_bytes(i) for i in range(self.num_shards))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(s) for s in self.shape)
        return (f"ShardedCooTensor(shape={dims}, nnz={self.nnz}, "
                f"shards={self.num_shards}, root={str(self.root)!r})")

    # ------------------------------------------------------------------ #
    # content address
    # ------------------------------------------------------------------ #
    def manifest_digest(self) -> str:
        """sha256 of the canonical manifest JSON.

        The manifest embeds a sha256 per shard payload, so the digest is a
        content address of the full tensor; :func:`repro.formats.plan_cache.
        tensor_fingerprint` short-circuits to it for sharded inputs.
        """
        if self._digest is None:
            self._digest = hashlib.sha256(
                _canonical_manifest_bytes(self.manifest)).hexdigest()
        return self._digest

    # ------------------------------------------------------------------ #
    # chunk iteration
    # ------------------------------------------------------------------ #
    def _load_shard(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        entry = self.shards[i]
        idx_path = self.root / entry["indices"]
        val_path = self.root / entry["values"]
        try:
            idx = np.load(idx_path, mmap_mode="r")
            vals = np.load(val_path, mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise ValidationError(
                f"sharded tensor at {self.root} is damaged: cannot load "
                f"shard {i} ({exc})") from exc
        return idx, vals

    def iter_chunks(self) -> Iterator[CooTensor]:
        """Yield one memory-mapped :class:`CooTensor` per shard, in order."""
        for i in range(self.num_shards):
            idx, vals = self._load_shard(i)
            yield CooTensor(idx, vals, self.shape, validate=False)

    def to_coo(self) -> CooTensor:
        """Materialise the full tensor in RAM (small tensors / testing)."""
        if not self.shards:
            return CooTensor.empty(self.shape)
        idx = np.concatenate([c.indices for c in self.iter_chunks()], axis=0)
        vals = np.concatenate([c.values for c in self.iter_chunks()])
        return CooTensor(idx, vals, self.shape, validate=False)

    # ------------------------------------------------------------------ #
    # streaming per-mode statistics (CooTensor-equivalent results)
    # ------------------------------------------------------------------ #
    def _check_mode(self, mode: int) -> int:
        mode = int(mode)
        if not 0 <= mode < self.order:
            raise DimensionError(
                f"mode {mode} out of range for an order-{self.order} tensor")
        return mode

    def mode_slice_counts(self, mode: int) -> np.ndarray:
        """Nonzeros per index of ``mode`` (length ``shape[mode]``)."""
        mode = self._check_mode(mode)
        counts = np.zeros(self.shape[mode], dtype=np.int64)
        for chunk in self.iter_chunks():
            counts += np.bincount(chunk.indices[:, mode],
                                  minlength=self.shape[mode])
        return counts

    def slice_keys(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        counts = self.mode_slice_counts(mode)
        nz = np.flatnonzero(counts)
        return nz.astype(INDEX_DTYPE), counts[nz]

    def num_slices(self, mode: int) -> int:
        return int(self.slice_keys(mode)[0].shape[0])

    def fiber_keys(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """Streaming equivalent of :meth:`CooTensor.fiber_keys`."""
        mode = self._check_mode(mode)
        upper = csf_mode_ordering(self.order, mode)[:-1]
        if self.nnz == 0:
            return (np.zeros(0, dtype=INDEX_DTYPE),
                    np.zeros(0, dtype=INDEX_DTYPE))
        uniqs: list[np.ndarray] = []
        cnts: list[np.ndarray] = []
        for chunk in self.iter_chunks():
            key = np.zeros(chunk.nnz, dtype=np.int64)
            for m in upper:
                np.multiply(key, int(self.shape[m]), out=key)
                np.add(key, chunk.indices[:, m], out=key)
            u, c = np.unique(key, return_counts=True)
            uniqs.append(u)
            cnts.append(c)
        cat = np.concatenate(uniqs)
        _, inverse = np.unique(cat, return_inverse=True)
        counts = np.bincount(inverse, weights=np.concatenate(cnts))
        fiber_ids = np.arange(counts.shape[0], dtype=INDEX_DTYPE)
        return fiber_ids, counts.astype(INDEX_DTYPE)

    def num_fibers(self, mode: int) -> int:
        return int(self.fiber_keys(mode)[1].shape[0])

    # ------------------------------------------------------------------ #
    # sorted views
    # ------------------------------------------------------------------ #
    def sorted_view(self, mode_order: Sequence[int] | None = None, *,
                    dedup: bool = True) -> "ShardedCooTensor":
        """A sharded view sorted lexicographically by ``mode_order``.

        Views are materialised once under ``<root>/sorted-...`` and reused;
        a stale view (its recorded ``source_digest`` no longer matches this
        manifest) is rebuilt.  With ``dedup`` duplicate coordinates are
        summed exactly like ``CooTensor.deduplicated()``.
        """
        if mode_order is None:
            mode_order = tuple(range(self.order))
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(self.order)):
            raise DimensionError(
                f"{mode_order} is not a permutation of 0..{self.order - 1}")
        if (self.sorted_by == mode_order
                and (self.deduplicated or not dedup)):
            return self
        tag = "-".join(str(m) for m in mode_order)
        name = f"sorted-m{tag}" + ("" if dedup else "-raw")
        out_root = self.root / name
        if (out_root / MANIFEST_NAME).exists():
            damaged = False
            try:
                view = open_sharded(out_root)
                if view.manifest.get("source_digest") == self.manifest_digest():
                    return view
            except ValidationError:
                damaged = True
            if damaged:
                # A torn/corrupt view is derivable state: drop it, count
                # the recovery, rebuild.  (A merely stale view — source
                # digest moved — is routine invalidation, not a recovery.)
                with stage("recovery.sorted_view", root=str(out_root)):
                    counter_add("faults.recovered")
                    shutil.rmtree(out_root, ignore_errors=True)
            else:
                shutil.rmtree(out_root, ignore_errors=True)
        return sort_sharded(self, mode_order, out_root, dedup=dedup)


def save_sharded(tensor: CooTensor, root: str | os.PathLike, *,
                 shard_nnz: int = DEFAULT_SHARD_NNZ) -> ShardedCooTensor:
    """Write an in-memory tensor as a shard manifest under ``root``."""
    writer = ShardedCooWriter(root, tensor.shape, shard_nnz=shard_nnz)
    if tensor.nnz:
        writer.append(tensor.indices, tensor.values, validate=False)
    return writer.close()


def _npy_header(path: Path) -> tuple[tuple[int, ...], np.dtype, int]:
    """``(shape, dtype, data offset)`` of an ``.npy`` file's header."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            raise ValueError(f"unsupported npy format version {version}")
        if fortran:
            raise ValueError("fortran-ordered shard files are not supported")
        return tuple(int(s) for s in shape), dtype, fh.tell()


def _verify_shard_file(root: Path, name: str, *, shard: int,
                       expect_shape: tuple[int, ...],
                       expect_dtype: np.dtype) -> None:
    """Exact integrity check of one shard file against its manifest entry.

    Parses the npy header and requires the declared shape/dtype to match
    the manifest and the file's byte length to equal header + payload
    *exactly* — a partially-appended final shard (writer killed mid-batch
    on a non-atomic filesystem) or any grown/shrunk file fails with a
    typed :class:`ShardIntegrityError` naming the file.
    """
    path = root / name
    if not path.exists():
        raise ShardIntegrityError(
            f"sharded tensor at {root} is missing shard file {name} "
            f"(shard {shard})", path=path)
    try:
        shape, dtype, data_offset = _npy_header(path)
    except (OSError, ValueError) as exc:
        raise ShardIntegrityError(
            f"shard file {name} at {root} has an unreadable npy header "
            f"(shard {shard}): {exc}", path=path) from None
    if shape != expect_shape or dtype != expect_dtype:
        raise ShardIntegrityError(
            f"shard file {name} at {root} declares {dtype} {shape}, but "
            f"the manifest expects {np.dtype(expect_dtype)} {expect_shape} "
            f"(shard {shard})", path=path)
    count = 1
    for s in shape:
        count *= s
    expected_bytes = data_offset + count * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected_bytes:
        raise ShardIntegrityError(
            f"shard file {name} at {root} is "
            f"{'truncated' if actual < expected_bytes else 'overlong'} "
            f"({actual} bytes, manifest expects exactly {expected_bytes}; "
            f"shard {shard})", path=path)


def open_sharded(root: str | os.PathLike, *,
                 verify: str = "size") -> ShardedCooTensor:
    """Open a shard manifest, validating every listed file against disk.

    A missing manifest, unsupported format version or malformed manifest
    raises a clean :class:`ValidationError`; a missing, truncated, grown
    or (under ``verify="digest"``) bit-rotted shard file raises
    :class:`ShardIntegrityError` naming the file — never a raw
    ``FileNotFoundError`` from deep inside ``np.load``.

    ``verify="size"`` (default) checks each file's npy header and exact
    byte length against the manifest; ``verify="digest"`` additionally
    re-hashes every payload against the manifest's per-shard sha256 —
    full bitrot detection at the cost of reading every byte.
    """
    if verify not in ("size", "digest"):
        raise ValidationError(
            f'verify must be "size" or "digest", got {verify!r}')
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(
            f"no shard manifest at {manifest_path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"unreadable shard manifest at {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or "shards" not in manifest:
        raise ValidationError(f"malformed shard manifest at {manifest_path}")
    version = int(manifest.get("format_version", 0))
    if version != SHARD_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported shard manifest version {version} at {root} "
            f"(expected {SHARD_FORMAT_VERSION})")
    order = len(manifest.get("shape", []))
    idx_dtype = np.dtype(INDEX_DTYPE)
    val_dtype = np.dtype(VALUE_DTYPE)
    for i, entry in enumerate(manifest["shards"]):
        n = int(entry["nnz"])
        _verify_shard_file(root, entry["indices"], shard=i,
                           expect_shape=(n, order), expect_dtype=idx_dtype)
        _verify_shard_file(root, entry["values"], shard=i,
                           expect_shape=(n,), expect_dtype=val_dtype)
        if verify == "digest":
            for key, digest_key in (("indices", "sha256_indices"),
                                    ("values", "sha256_values")):
                recorded = entry.get(digest_key)
                if recorded is None:
                    continue
                arr = np.load(root / entry[key], mmap_mode="r")
                if _sha256_array(np.asarray(arr)) != recorded:
                    raise ShardIntegrityError(
                        f"shard file {entry[key]} at {root} fails its "
                        f"manifest sha256 (shard {i}): payload corrupted",
                        path=root / entry[key])
    return ShardedCooTensor(root, manifest)


# --------------------------------------------------------------------- #
# out-of-core sort + dedup
# --------------------------------------------------------------------- #
def _release_mapped_prefix(arr: np.ndarray, rows: int) -> None:
    """Best-effort ``MADV_DONTNEED`` on the first ``rows`` rows of a
    memory-mapped array.

    Sequential consumers (sort runs, merge cursors) otherwise accumulate
    every clean page they touch into the process RSS high-water mark for
    as long as the mapping lives; dropping the consumed prefix keeps the
    resident set at one block.  The pages re-fault from disk if re-read,
    so this is purely a paging hint, never a correctness concern.
    """
    mm = getattr(arr, "_mmap", None)
    if mm is None:
        return
    row_bytes = int(arr.strides[0]) if arr.ndim > 1 else int(arr.itemsize)
    end = int(getattr(arr, "offset", 0)) + rows * row_bytes
    length = (end // mmap.PAGESIZE) * mmap.PAGESIZE
    if length <= 0:
        return
    try:
        mm.madvise(mmap.MADV_DONTNEED, 0, length)
    except (AttributeError, ValueError, OSError):  # pragma: no cover
        pass


class _RunCursor:
    """Block-buffered reader over one sorted run (a pair of npy files)."""

    def __init__(self, idx_path: Path, val_path: Path, block: int) -> None:
        self._idx = np.load(idx_path, mmap_mode="r")
        self._vals = np.load(val_path, mmap_mode="r")
        self.rows = int(self._idx.shape[0])
        self._pos = 0
        self._block = block
        self.idx: np.ndarray | None = None
        self.vals: np.ndarray | None = None
        self.keys: np.ndarray | None = None
        self._shape: Sequence[int] | None = None
        self._mode_order: Sequence[int] | None = None

    def start(self, shape: Sequence[int], mode_order: Sequence[int]) -> None:
        self._shape = shape
        self._mode_order = mode_order
        self._refill()

    @property
    def has(self) -> bool:
        return self.idx is not None and self.idx.shape[0] > 0

    def _exhausted(self) -> bool:
        return self._pos >= self._idx.shape[0]

    def _load_block(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = self._pos, min(self._pos + self._block, self._idx.shape[0])
        idx = np.asarray(self._idx[a:b])
        vals = np.asarray(self._vals[a:b])
        self._pos = b
        _release_mapped_prefix(self._idx, b)
        _release_mapped_prefix(self._vals, b)
        keys = encode_coordinates(idx, self._shape, self._mode_order)
        return idx, vals, keys

    def _refill(self) -> None:
        if self._exhausted():
            self.idx = self.vals = self.keys = None
            return
        self.idx, self.vals, self.keys = self._load_block()

    def extend_past(self, limit: int) -> None:
        """Grow the buffer until its last key exceeds ``limit`` (or EOF).

        Keeps a key group from straddling the buffer edge, which would
        break the stable (original-appearance-order) merge of duplicates.
        """
        while self.has and self.keys[-1] == limit and not self._exhausted():
            idx, vals, keys = self._load_block()
            self.idx = np.concatenate([self.idx, idx], axis=0)
            self.vals = np.concatenate([self.vals, vals])
            self.keys = np.concatenate([self.keys, keys])

    def consume(self, n: int) -> None:
        if n >= self.idx.shape[0]:
            self._refill()
        else:
            self.idx = self.idx[n:]
            self.vals = self.vals[n:]
            self.keys = self.keys[n:]


class _DedupSink:
    """Stream sorted blocks into a writer, summing duplicate coordinates.

    The last key group of every pushed block is held back (raw rows, never
    partial sums) and prepended to the next block, so each group is summed
    by one :func:`~repro.tensor.coo.sum_runs` over contiguous rows — the
    accumulation order of the in-memory :meth:`CooTensor.sorted_unique`.
    """

    def __init__(self, writer: ShardedCooWriter, dedup: bool) -> None:
        self._writer = writer
        self._dedup = dedup
        self._carry: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def push(self, idx: np.ndarray, vals: np.ndarray, keys: np.ndarray) -> None:
        if idx.shape[0] == 0:
            return
        if not self._dedup:
            self._writer.append(idx, vals, validate=False)
            return
        if self._carry is not None:
            cidx, cvals, ckeys = self._carry
            idx = np.concatenate([cidx, idx], axis=0)
            vals = np.concatenate([cvals, vals])
            keys = np.concatenate([ckeys, keys])
            self._carry = None
        # hold back the (possibly incomplete) last group
        last = int(np.searchsorted(keys, keys[-1]))
        self._carry = (idx[last:].copy(), vals[last:].copy(),
                       keys[last:].copy())
        if last:
            self._emit(idx[:last], vals[:last], keys[:last])

    def _emit(self, idx: np.ndarray, vals: np.ndarray,
              keys: np.ndarray) -> None:
        starts, sums = sum_runs(run_starts(keys), vals)
        self._writer.append(idx[starts], sums, validate=False)

    def close(self) -> None:
        if self._carry is not None:
            self._emit(*self._carry)
            self._carry = None


def _write_run(tmp_dir: Path, num: int, idx: np.ndarray,
               vals: np.ndarray) -> tuple[Path, Path]:
    idx_path = tmp_dir / f"run-{num:05d}.indices.npy"
    val_path = tmp_dir / f"run-{num:05d}.values.npy"
    np.save(idx_path, idx)
    np.save(val_path, vals)
    return idx_path, val_path


def _merge_pair(a: _RunCursor, b: _RunCursor, push) -> None:
    """Stable two-way merge of sorted runs (``a``'s rows precede ``b``'s)."""
    fault_point("shards.sort.merge")
    while a.has and b.has:
        limit = int(min(a.keys[-1], b.keys[-1]))
        a.extend_past(limit)
        b.extend_past(limit)
        na = int(np.searchsorted(a.keys, limit, side="right"))
        nb = int(np.searchsorted(b.keys, limit, side="right"))
        keys = np.concatenate([a.keys[:na], b.keys[:nb]])
        perm = np.argsort(keys, kind="stable")
        idx = np.concatenate([a.idx[:na], b.idx[:nb]], axis=0)[perm]
        vals = np.concatenate([a.vals[:na], b.vals[:nb]])[perm]
        push(idx, vals, keys[perm])
        a.consume(na)
        b.consume(nb)
    rest = a if a.has else b
    while rest.has:
        push(rest.idx, rest.vals, rest.keys)
        rest.consume(rest.idx.shape[0])


def sort_sharded(sharded: ShardedCooTensor, mode_order: Sequence[int],
                 out_root: str | os.PathLike, *, dedup: bool = True,
                 block_nnz: int = _SORT_BLOCK_NNZ) -> ShardedCooTensor:
    """External merge sort of a sharded tensor by ``mode_order``.

    Phase 1 cuts the stream into stable-sorted runs of ``block_nnz`` rows;
    phase 2 merges runs pairwise (earlier-stream run first on equal keys,
    so duplicates keep their original appearance order); the final merge
    streams through a dedup sink into the output writer.  Working set is
    ``O(block_nnz)`` — independent of tensor and shard size.
    """
    mode_order = tuple(int(m) for m in mode_order)
    if sorted(mode_order) != list(range(sharded.order)):
        raise DimensionError(
            f"{mode_order} is not a permutation of 0..{sharded.order - 1}")
    out_root = Path(out_root)
    if out_root.exists():
        # Pre-clean: a crashed earlier sort leaves shard files without a
        # manifest (the manifest is written last, as the commit marker);
        # rebuilding on top would strand the stale higher-numbered files.
        # Anything with a source_digest manifest is a derived view and
        # equally safe to drop.  A manifest *without* a source digest is a
        # primary tensor — refuse to clobber it.
        existing = None
        try:
            with open(out_root / MANIFEST_NAME, encoding="utf-8") as fh:
                existing = json.load(fh)
        except (OSError, json.JSONDecodeError, FileNotFoundError):
            existing = None
        if isinstance(existing, dict) and "source_digest" not in existing:
            raise ValidationError(
                f"refusing to sort into {out_root}: it holds a shard "
                "manifest that is not a derived sorted view")
        shutil.rmtree(out_root, ignore_errors=True)
    extra = {"source_digest": sharded.manifest_digest()}
    # The view's shards are capped at the sort block: downstream streaming
    # consumers map one shard at a time, so the cap keeps their resident
    # set at O(block_nnz) even when the source shards are much larger.
    writer = ShardedCooWriter(out_root, sharded.shape,
                              shard_nnz=min(sharded.shard_nnz, block_nnz),
                              sorted_by=mode_order, deduplicated=dedup,
                              extra=extra)
    if sharded.nnz == 0:
        return writer.close()

    tmp_dir = out_root / ".runs"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        # phase 1: stable-sorted runs of <= block_nnz rows
        runs: list[tuple[Path, Path]] = []
        for chunk in sharded.iter_chunks():
            for a in range(0, chunk.nnz, block_nnz):
                b = min(a + block_nnz, chunk.nnz)
                idx = np.asarray(chunk.indices[a:b])
                vals = np.asarray(chunk.values[a:b])
                # source shards may be far larger than one sort block
                _release_mapped_prefix(chunk.indices, b)
                _release_mapped_prefix(chunk.values, b)
                keys = encode_coordinates(idx, sharded.shape, mode_order)
                perm = np.argsort(keys, kind="stable")
                runs.append(_write_run(tmp_dir, len(runs), idx[perm],
                                       vals[perm]))
        sink = _DedupSink(writer, dedup)

        if len(runs) == 1:
            cur = _RunCursor(*runs[0], block_nnz)
            cur.start(sharded.shape, mode_order)
            while cur.has:
                sink.push(cur.idx, cur.vals, cur.keys)
                cur.consume(cur.idx.shape[0])
        else:
            # phase 2: pairwise cascade; the last merge feeds the sink
            gen = 0
            while len(runs) > 2:
                merged: list[tuple[Path, Path]] = []
                gen += 1
                gen_dir = tmp_dir / f"gen-{gen}"
                gen_dir.mkdir(exist_ok=True)
                for i in range(0, len(runs) - 1, 2):
                    a = _RunCursor(*runs[i], block_nnz)
                    b = _RunCursor(*runs[i + 1], block_nnz)
                    a.start(sharded.shape, mode_order)
                    b.start(sharded.shape, mode_order)
                    out_writer = _PairRunWriter(gen_dir, len(merged),
                                                a.rows + b.rows,
                                                sharded.order)
                    _merge_pair(a, b, out_writer.push)
                    merged.append(out_writer.close())
                    for path in (*runs[i], *runs[i + 1]):
                        path.unlink(missing_ok=True)
                if len(runs) % 2:
                    merged.append(runs[-1])
                runs = merged
            a = _RunCursor(*runs[0], block_nnz)
            b = _RunCursor(*runs[1], block_nnz)
            a.start(sharded.shape, mode_order)
            b.start(sharded.shape, mode_order)
            _merge_pair(a, b, sink.push)
        sink.close()
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    view = writer.close()
    # Hand freed sort temporaries back to the kernel so consumers of the
    # sorted view start from a clean resident-set baseline.
    trim_allocator()
    return view


class _PairRunWriter:
    """Stream merged blocks of one cascade pair straight to a run file.

    A merge never changes the row count, so the total is known upfront and
    the ``.npy`` header can be written first; blocks then go out through
    buffered file writes.  The merged run therefore never occupies more
    than one block of process memory — dirty pages belong to the page
    cache, not this process's RSS high-water mark.
    """

    def __init__(self, tmp_dir: Path, num: int, rows: int, order: int) -> None:
        self._rows = rows
        self._written = 0
        self._idx_path = tmp_dir / f"run-{num:05d}.indices.npy"
        self._val_path = tmp_dir / f"run-{num:05d}.values.npy"
        self._idx_fh = open(self._idx_path, "wb")
        self._val_fh = open(self._val_path, "wb")
        np.lib.format.write_array_header_1_0(self._idx_fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(INDEX_DTYPE)),
            "fortran_order": False, "shape": (rows, order)})
        np.lib.format.write_array_header_1_0(self._val_fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(VALUE_DTYPE)),
            "fortran_order": False, "shape": (rows,)})

    def push(self, idx: np.ndarray, vals: np.ndarray, keys: np.ndarray) -> None:
        np.ascontiguousarray(idx, dtype=INDEX_DTYPE).tofile(self._idx_fh)
        np.ascontiguousarray(vals, dtype=VALUE_DTYPE).tofile(self._val_fh)
        self._written += int(idx.shape[0])

    def close(self) -> tuple[Path, Path]:
        self._idx_fh.close()
        self._val_fh.close()
        if self._written != self._rows:
            raise ValidationError(
                f"cascade merge wrote {self._written} rows, expected "
                f"{self._rows}")
        return self._idx_path, self._val_path
