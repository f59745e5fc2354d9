"""Process-wide counter / gauge registry.

Counters are the always-on half of the observability layer: monotonically
accumulating numbers (call counts, cache hits, stage seconds) that every
instrumented layer feeds and that a caller reads as deltas around the
work it measures.  They are deliberately cheap — one lock and one
dict update per increment — so they stay enabled even when span tracing
(:mod:`repro.telemetry.tracer`) is off.

Gauges are point-in-time values (last worker count, peak RSS); setting one
overwrites the previous value instead of accumulating.

Consumers measure *deltas*, not absolutes: snapshot before an operation,
subtract after (:func:`counters_delta`).  That makes concurrent
instrumentation additive instead of destructive — nothing ever needs to
reset the registry to measure, so independent measurements (benchmark
runs, tests, the traced CI leg) cannot clobber each other.

Histograms are the opt-in third metric kind: fixed log-spaced-bucket
distributions from which p50/p95/p99 are derivable without storing raw
samples.  They are off by default (``REPRO_HISTOGRAMS=1`` or
:func:`enable_histograms` turns them on) because a distribution per stage
is only worth its lock traffic when someone will read the percentiles —
the latency-distribution machinery the service layer consumes.
"""

from __future__ import annotations

import math
import os
import threading

from repro.util.errors import ValidationError

__all__ = [
    "counter_add",
    "counter_add_stage",
    "gauge_set",
    "gauge_max",
    "counters_snapshot",
    "gauges_snapshot",
    "counters_delta",
    "reset_counters",
    "Histogram",
    "HISTOGRAMS_ENV",
    "histogram_observe",
    "histograms_snapshot",
    "histograms_enabled",
    "enable_histograms",
    "disable_histograms",
]

# --------------------------------------------------------------------- #
# histograms
# --------------------------------------------------------------------- #

#: truthy values of this variable enable histogram recording process-wide.
HISTOGRAMS_ENV = "REPRO_HISTOGRAMS"

#: default bucket geometry: bucket 0 is [0, LO], bucket b>=1 covers
#: (LO*GROWTH^(b-1), LO*GROWTH^b].  LO=1us and 40 doubling buckets span
#: sub-microsecond noise up to ~6 days — every duration this library can
#: plausibly record lands in a real bucket, not the overflow.
HIST_LO = 1e-6
HIST_GROWTH = 2.0
HIST_BUCKETS = 40


class Histogram:
    """Fixed log-spaced-bucket distribution accumulator.

    Records values into ``buckets`` counting slots whose upper bounds grow
    geometrically from ``lo`` by ``growth``; quantiles are reconstructed
    by geometric interpolation inside the covering bucket and clamped to
    the observed min/max, so a histogram holding one repeated value
    reports that value exactly.  Two histograms with identical geometry
    :meth:`merge` by adding bucket counts — per-worker histograms combine
    into a process view without raw samples.

    ``record`` takes the instance lock once — *lock-per-record* — so
    concurrent recorders are safe and the disabled path (the caller never
    invoking ``record``) costs nothing.
    """

    __slots__ = ("lo", "growth", "counts", "count", "total",
                 "min", "max", "_lock", "_log_growth")

    def __init__(self, *, lo: float = HIST_LO, growth: float = HIST_GROWTH,
                 buckets: int = HIST_BUCKETS):
        if lo <= 0:
            raise ValidationError(f"histogram lo must be > 0, got {lo}")
        if growth <= 1.0:
            raise ValidationError(
                f"histogram growth must be > 1, got {growth}")
        if buckets < 2:
            raise ValidationError(
                f"histogram needs >= 2 buckets, got {buckets}")
        self.lo = float(lo)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.counts = [0] * int(buckets)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def bucket_index(self, value: float) -> int:
        """The bucket a value lands in (clamped to the last bucket)."""
        if value <= self.lo:
            return 0
        idx = 1 + int(math.floor(math.log(value / self.lo)
                                 / self._log_growth + 1e-12))
        return min(idx, len(self.counts) - 1)

    def bucket_upper(self, index: int) -> float:
        """Inclusive upper bound of bucket ``index``."""
        return self.lo * self.growth ** index

    def record(self, value: float) -> None:
        """Accumulate one observation (one lock acquisition)."""
        value = float(value)
        idx = self.bucket_index(value)
        with self._lock:
            self.counts[idx] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        if (self.lo != other.lo or self.growth != other.growth
                or len(self.counts) != len(other.counts)):
            raise ValidationError(
                "cannot merge histograms with different bucket geometry: "
                f"lo {self.lo} vs {other.lo}, growth {self.growth} vs "
                f"{other.growth}, buckets {len(self.counts)} vs "
                f"{len(other.counts)}")
        with other._lock:
            counts = list(other.counts)
            count, total = other.count, other.total
            omin, omax = other.min, other.max
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.count += count
            self.total += total
            self.min = min(self.min, omin)
            self.max = max(self.max, omax)

    # ------------------------------------------------------------------ #
    def percentile(self, q: float) -> float:
        """The q-quantile (``q`` in [0, 1]) reconstructed from buckets.

        Exact to within one bucket's geometric width; clamped to the
        observed ``[min, max]`` so degenerate distributions round-trip.
        Raises :class:`ValidationError` on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"percentile q must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                raise ValidationError(
                    "cannot take a percentile of an empty histogram")
            counts = list(self.counts)
            count, vmin, vmax = self.count, self.min, self.max
        target = max(q * count, 1e-12)
        cum = 0
        for b, c in enumerate(counts):
            if c == 0:
                continue
            if cum + c >= target:
                frac = (target - cum) / c
                if b == 0:
                    est = self.lo * frac
                else:
                    est = (self.lo * self.growth ** (b - 1)
                           * self.growth ** frac)
                return min(max(est, vmin), vmax)
            cum += c
        return vmax  # pragma: no cover - float-rounding fallback

    def quantiles(self) -> dict[str, float]:
        """The conventional summary: p50 / p95 / p99 (plus count & mean)."""
        return {
            "count": self.count,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-safe serialisation (the trace-footer / bench format)."""
        with self._lock:
            return {
                "lo": self.lo,
                "growth": self.growth,
                "counts": list(self.counts),
                "count": self.count,
                "total": self.total,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
            }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        try:
            hist = cls(lo=float(data["lo"]), growth=float(data["growth"]),
                       buckets=len(data["counts"]))
            counts = [int(c) for c in data["counts"]]
            if any(c < 0 for c in counts):
                raise ValueError("negative bucket count")
            hist.counts = counts
            hist.count = int(data["count"])
            hist.total = float(data["total"])
            hist.min = (float(data["min"]) if data.get("min") is not None
                        else math.inf)
            hist.max = (float(data["max"]) if data.get("max") is not None
                        else -math.inf)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed histogram dict: {exc}") from None
        return hist


class _HistogramState:
    """Mutable process-wide on/off flag, readable with one attribute load.

    The ``stage()`` hot path checks ``HIST_STATE.enabled`` before touching
    any histogram machinery — when off, histogram support costs exactly
    that attribute read.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


HIST_STATE = _HistogramState()


def histograms_enabled() -> bool:
    """Whether histogram recording is currently on."""
    return HIST_STATE.enabled


def enable_histograms() -> None:
    """Turn on histogram recording process-wide."""
    HIST_STATE.enabled = True


def disable_histograms() -> None:
    """Turn off histogram recording (recorded data is kept)."""
    HIST_STATE.enabled = False


class CounterRegistry:
    """Thread-safe name → number accumulator with a gauge side-table."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float | int] = {}
        self._gauges: dict[str, float | int] = {}
        self._histograms: dict[str, Histogram] = {}

    def add(self, name: str, value: float | int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def add_stage(self, name: str, seconds: float) -> None:
        """One stage completion: ``<name>.count`` += 1, ``<name>.seconds``
        += ``seconds`` under a single lock acquisition (the dispatch hot
        path calls this once per kernel execution)."""
        count_key = name + ".count"
        seconds_key = name + ".seconds"
        with self._lock:
            counters = self._counters
            counters[count_key] = counters.get(count_key, 0) + 1
            counters[seconds_key] = counters.get(seconds_key, 0.0) + seconds

    def set_gauge(self, name: str, value: float | int) -> None:
        with self._lock:
            self._gauges[name] = value

    def max_gauge(self, name: str, value: float | int) -> None:
        """Raise gauge ``name`` to ``value`` if it is higher (high-water
        marks like per-stage allocation peaks)."""
        with self._lock:
            if value > self._gauges.get(name, value - 1):
                self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name`` (created on first use).

        The registry lock only guards the name lookup; the record itself
        takes the histogram's own lock, so concurrent recorders of
        different names do not serialise on one global lock.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
        hist.record(value)

    def histograms(self) -> dict[str, Histogram]:
        """Point-in-time copy of the name → histogram mapping (live
        objects — serialise via :meth:`Histogram.to_dict`)."""
        with self._lock:
            return dict(self._histograms)

    def histograms_snapshot(self) -> dict[str, dict]:
        """JSON-safe snapshot of every histogram."""
        with self._lock:
            hists = dict(self._histograms)
        return {name: h.to_dict() for name, h in hists.items()}

    def snapshot(self) -> dict[str, float | int]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, float | int]:
        with self._lock:
            return dict(self._gauges)

    def delta(self, before: dict[str, float | int]) -> dict[str, float | int]:
        """Counter movement since ``before`` (a prior :meth:`snapshot`).

        Zero-movement names are dropped, so the result names exactly the
        counters the measured operation touched.
        """
        now = self.snapshot()
        moved: dict[str, float | int] = {}
        for name, value in now.items():
            change = value - before.get(name, 0)
            if change:
                moved[name] = change
        return moved

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: the process-global registry every instrumented layer feeds.
_REGISTRY = CounterRegistry()


def counter_add(name: str, value: float | int = 1) -> None:
    """Accumulate ``value`` into counter ``name``."""
    _REGISTRY.add(name, value)


def counter_add_stage(name: str, seconds: float) -> None:
    """Record one completed stage (``<name>.count`` / ``<name>.seconds``)."""
    _REGISTRY.add_stage(name, seconds)


def gauge_set(name: str, value: float | int) -> None:
    """Set gauge ``name`` to ``value`` (overwrites)."""
    _REGISTRY.set_gauge(name, value)


def gauge_max(name: str, value: float | int) -> None:
    """Raise gauge ``name`` to ``value`` if higher (high-water mark)."""
    _REGISTRY.max_gauge(name, value)


def histogram_observe(name: str, value: float) -> None:
    """Record one observation into histogram ``name``.

    Callers on hot paths must gate on :func:`histograms_enabled` (the
    recording itself is unconditional so tests and explicit consumers can
    observe without flipping the global flag).
    """
    _REGISTRY.observe(name, value)


def histograms_snapshot() -> dict[str, dict]:
    """A JSON-safe point-in-time copy of every histogram."""
    return _REGISTRY.histograms_snapshot()


def counters_snapshot() -> dict[str, float | int]:
    """A point-in-time copy of every counter."""
    return _REGISTRY.snapshot()


def gauges_snapshot() -> dict[str, float | int]:
    """A point-in-time copy of every gauge."""
    return _REGISTRY.gauges()


def counters_delta(before: dict[str, float | int]) -> dict[str, float | int]:
    """Counters that moved since ``before`` (a prior snapshot)."""
    return _REGISTRY.delta(before)


def reset_counters() -> None:
    """Zero the whole registry, histograms included (tests only — prefer
    delta measurement)."""
    _REGISTRY.reset()


def init_histograms_from_env(environ=None) -> bool:
    """Enable histogram recording when ``REPRO_HISTOGRAMS`` is truthy.

    Called once on package import; returns whether recording was enabled.
    """
    env = os.environ if environ is None else environ
    if env.get(HISTOGRAMS_ENV, "").strip().lower() in ("1", "true", "yes",
                                                       "on"):
        enable_histograms()
        return True
    return False


init_histograms_from_env()
