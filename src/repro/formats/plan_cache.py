"""Content-addressed build-plan cache.

Building a sparse-format representation (CSF tree, B-CSF splitting, HB-CSF
partition) is the pre-processing cost the paper's Figures 9 and 10 analyse —
and it used to be paid on *every* ``mttkrp()`` call, every experiment figure
and every bench sweep that touched the same tensor.  This module caches
built representations keyed by content, not identity:

    (tensor fingerprint, format name, mode, split-config token)

The fingerprint hashes the tensor's shape, indices and values, so two
``CooTensor`` objects with equal content share cache entries.  Entries keep
the wall-clock seconds of the original build; consumers that account for
pre-processing time (``MttkrpPlan``, CPD-ALS) report that recorded cost even
when the structure came from the cache, which keeps the paper's
preprocessing-vs-iteration trade-off measurements honest while the repeated
builds themselves are amortised away.

The cache is a process-global LRU (:func:`plan_cache`) bounded both by
entry count and by an approximate payload-byte cap, so sweeping many large
tensors (a figure sweep, a dataset-zoo ALS run) evicts old
representations instead of pinning them for the process lifetime.  Tensors
are treated as immutable, which :class:`~repro.tensor.coo.CooTensor` (a
frozen dataclass) already promises.  Mutating a tensor's arrays in place
after a build has never been supported and would now also alias a stale
cache entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.faults.hooks import fault_point
from repro.telemetry.counters import counter_add
from repro.util.errors import ValidationError

__all__ = [
    "PlanBuild",
    "PlanCache",
    "plan_cache",
    "plan_cache_stats",
    "clear_plan_cache",
    "tensor_fingerprint",
    "config_token",
]

#: default number of cached representations (one per tensor x mode x
#: config cell).
DEFAULT_MAX_ENTRIES = 64

#: default approximate payload cap; once the estimated bytes of all cached
#: representations exceed this, least-recently-used entries are evicted
#: even if the entry count is below :data:`DEFAULT_MAX_ENTRIES`.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def _estimate_rep_bytes(rep) -> int:
    """Approximate footprint of a built representation.

    Uses the format's own storage accounting (``index_storage_words``,
    32-bit words) plus 8 bytes per nonzero for the values; representations
    exposing neither are counted as zero (bounded by the entry cap alone).
    """
    try:
        nnz = int(getattr(rep, "nnz", 0))
    except (TypeError, ValueError):
        nnz = 0
    try:
        words = int(rep.index_storage_words())
    except AttributeError:
        # plain COO representations store one index per mode per nonzero
        words = int(getattr(rep, "order", 0)) * nnz
    return words * 4 + nnz * 8

#: id(tensor) -> fingerprint memo; entries evaporate with their tensor.
_FINGERPRINTS: dict[int, str] = {}
_FINGERPRINT_LOCK = threading.Lock()


def tensor_fingerprint(tensor) -> str:
    """Content hash of a sparse tensor (shape + indices + values).

    The digest is memoised per tensor *object* (evicted by a weakref
    finalizer when the tensor is collected), so repeated plan builds hash
    each tensor once.
    """
    key = id(tensor)
    cached = _FINGERPRINTS.get(key)
    if cached is not None:
        return cached
    digest_fn = getattr(tensor, "manifest_digest", None)
    if callable(digest_fn):
        # Sharded tensors are content-addressed by their manifest (which
        # embeds a sha256 per shard payload) — never pull GBs of mmap'd
        # indices through the hash.
        digest = "sharded:" + digest_fn()
        with _FINGERPRINT_LOCK:
            if key not in _FINGERPRINTS:
                _FINGERPRINTS[key] = digest
                weakref.finalize(tensor, _FINGERPRINTS.pop, key, None)
        return digest
    h = hashlib.sha256()
    h.update(repr(tuple(tensor.shape)).encode())
    for arr in (tensor.indices, tensor.values):
        arr = np.ascontiguousarray(arr)
        h.update(arr.dtype.str.encode())
        h.update(repr(arr.shape).encode())
        # hash the C-contiguous buffer in place (``tobytes()`` would copy
        # the whole index array first); the digest is byte-for-byte the same
        h.update(memoryview(arr))
    digest = h.hexdigest()
    with _FINGERPRINT_LOCK:
        if key not in _FINGERPRINTS:
            _FINGERPRINTS[key] = digest
            weakref.finalize(tensor, _FINGERPRINTS.pop, key, None)
    return digest


def config_token(config) -> str:
    """Stable cache-key token for a (possibly ``None``) build config."""
    if config is None:
        return "default"
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        items = sorted(dataclasses.asdict(config).items())
        return ",".join(f"{k}={v!r}" for k, v in items)
    return repr(config)


@dataclass(frozen=True)
class PlanBuild:
    """Result of :func:`repro.formats.build_plan`.

    ``build_seconds`` is the wall-clock cost of the original construction
    (recorded once, replayed on hits); ``cache_hit`` says whether this call
    actually built anything.
    """

    rep: object
    build_seconds: float
    cache_hit: bool
    key: tuple


@dataclass
class _Entry:
    rep: object
    build_seconds: float
    approx_bytes: int = 0


class PlanCache:
    """An LRU of built format representations with hit statistics.

    Bounded by ``max_entries`` and (approximately) by ``max_bytes``: the
    per-entry footprint is estimated from the format's own storage
    accounting, and least-recently-used entries are dropped while either
    bound is exceeded (the most recent entry always stays).

    Thread-safe: one lock serialises lookups (which mutate LRU order, the
    counters and the amortised-seconds tally), insertions, discards and
    stats snapshots — the threaded execution backend and concurrent
    ``MttkrpPlan`` users hit this cache from worker threads.

    ``telemetry=True`` (the process-global instance) mirrors every
    hit/miss/eviction into the :mod:`repro.telemetry` counter registry as
    ``plan_cache.*``, so counter deltas and traces see cache behaviour as
    deltas without touching this object's cumulative totals.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 telemetry: bool = False):
        if max_entries < 1:
            raise ValidationError(
                f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValidationError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.telemetry = bool(telemetry)
        self.enabled = True
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._approx_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: build seconds that cache hits avoided re-spending.
        self.amortised_seconds = 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> _Entry | None:
        if not self.enabled:
            return None
        # "plan_cache.load" is the lookup fault point: a fired raise is a
        # simulated crash inside the cache, a fired corrupt/truncate (no
        # file here — the cache is in-memory, derivable state) drops the
        # entry so the caller transparently rebuilds it, a stall models a
        # slow cold path.
        fired = fault_point("plan_cache.load")
        lost = any(kind in ("corrupt", "truncate") for kind in fired)
        recovered = False
        with self._lock:
            entry = self._entries.get(key)
            if lost and entry is not None:
                self._entries.pop(key)
                self._approx_bytes -= entry.approx_bytes
                entry = None
                recovered = True
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                self.amortised_seconds += entry.build_seconds
        if recovered:
            # the rebuild the caller now performs *is* the recovery
            counter_add("faults.recovered")
        if self.telemetry:
            counter_add("plan_cache.hits" if entry is not None
                        else "plan_cache.misses")
        return entry

    def put(self, key: tuple, rep, build_seconds: float) -> None:
        if not self.enabled:
            return
        entry = _Entry(rep=rep, build_seconds=build_seconds,
                       approx_bytes=_estimate_rep_bytes(rep))
        evicted_n = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._approx_bytes -= old.approx_bytes
            self._entries[key] = entry
            self._approx_bytes += entry.approx_bytes
            while len(self._entries) > 1 and (
                    len(self._entries) > self.max_entries
                    or self._approx_bytes > self.max_bytes):
                _, evicted = self._entries.popitem(last=False)
                self._approx_bytes -= evicted.approx_bytes
                self.evictions += 1
                evicted_n += 1
        if self.telemetry:
            counter_add("plan_cache.inserts")
            if evicted_n:
                counter_add("plan_cache.evictions", evicted_n)

    def discard(self, *, format: str | None = None,
                fingerprint: str | None = None) -> int:
        """Drop entries matching the given key fields (AND semantics).

        Used to invalidate a format's cached representations when its
        registration is overwritten/removed, and by measurements that need
        a cold cache for one tensor without wiping unrelated entries.
        Returns the number of entries removed; counters are not reset.
        """
        removed = 0
        with self._lock:
            for key in list(self._entries):
                if format is not None and key[1] != format:
                    continue
                if fingerprint is not None and key[0] != fingerprint:
                    continue
                entry = self._entries.pop(key)
                self._approx_bytes -= entry.approx_bytes
                removed += 1
        return removed

    def clear(self, *, reset_stats: bool = True) -> None:
        with self._lock:
            self._entries.clear()
            self._approx_bytes = 0
            if reset_stats:
                self.hits = 0
                self.misses = 0
                self.evictions = 0
                self.amortised_seconds = 0.0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "approx_bytes": self._approx_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "amortised_seconds": self.amortised_seconds,
            }


_GLOBAL_CACHE = PlanCache(telemetry=True)


def plan_cache() -> PlanCache:
    """The process-global plan cache used by :func:`repro.formats.build_plan`."""
    return _GLOBAL_CACHE


def plan_cache_stats() -> dict:
    """Snapshot of the global cache counters (hits/misses/evictions)."""
    return _GLOBAL_CACHE.stats()


def clear_plan_cache() -> None:
    """Drop all cached representations and reset the counters."""
    _GLOBAL_CACHE.clear()
