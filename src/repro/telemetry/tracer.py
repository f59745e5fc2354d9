"""Span-based tracer with a module-level no-op fast path.

A *span* is one named, timed region of execution with structured
attributes: ``with span("kernel", format="hb-csf", mode=0): ...``.  Spans
nest — each thread keeps its own stack, so a span opened inside another
becomes its child — and cross-thread parentage is explicit: the dispatcher
captures :func:`current_span_id` before submitting work to the pool and
passes it as ``parent=`` to the worker-side spans, which is how a trace of
the threaded backend reconstructs per-worker timelines under the kernel
span that launched them.

Tracing is **off by default** and costs nearly nothing while off:
:func:`span` returns a shared no-op singleton after a single global check —
no allocation, no timestamps, no locking.  It is enabled by

* ``REPRO_TRACE=1`` (writes :data:`DEFAULT_TRACE_FILE` in the cwd),
* ``REPRO_TRACE_FILE=<path>`` (writes there), or
* the API: :func:`enable` / :func:`trace_to` / :func:`capture`.

Enabled spans are emitted as JSONL records (:mod:`repro.telemetry.export`)
streamed to the trace file as they close — a crashed process still leaves a
readable trace — with monotonic ``time.perf_counter`` timestamps shared by
every thread of the process.

:class:`stage` is the dispatch-layer instrumentation primitive: it always
feeds the counter registry (``<name>.count`` / ``<name>.seconds``, whose
deltas give per-stage breakdowns) and
additionally emits a span when tracing is enabled.  Two further opt-ins
hang off it, both a single attribute check while off:

* histogram recording (``REPRO_HISTOGRAMS=1`` /
  :func:`repro.telemetry.counters.enable_histograms`) feeds each stage's
  duration into a ``<name>.duration`` histogram, from which p50/p95/p99
  are derivable;
* memory tracking (``REPRO_TRACE_MEM=1`` /
  :func:`enable_memory_tracking`) records each stage's tracemalloc
  allocation peak as a ``<name>.alloc_peak_bytes`` high-water gauge.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from repro.telemetry.counters import (
    HIST_STATE,
    counter_add_stage,
    counters_snapshot,
    gauge_max,
    gauges_snapshot,
    histogram_observe,
    histograms_snapshot,
)
from repro.telemetry.export import TRACE_SCHEMA_VERSION
from repro.util.errors import ValidationError

__all__ = [
    "TRACE_ENV",
    "TRACE_FILE_ENV",
    "TRACE_MEM_ENV",
    "DEFAULT_TRACE_FILE",
    "Tracer",
    "span",
    "stage",
    "current_span_id",
    "tracing_enabled",
    "enable",
    "disable",
    "disabled",
    "trace_to",
    "capture",
    "get_tracer",
    "memory_tracking_enabled",
    "enable_memory_tracking",
    "disable_memory_tracking",
    "init_mem_from_env",
]

#: truthy values of this variable turn tracing on process-wide.
TRACE_ENV = "REPRO_TRACE"

#: trace-file override; setting it implies tracing unless REPRO_TRACE=0.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

#: truthy values enable tracemalloc-based per-stage allocation peaks.
TRACE_MEM_ENV = "REPRO_TRACE_MEM"

#: file written when tracing is enabled without an explicit path.
DEFAULT_TRACE_FILE = "repro-trace.jsonl"

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")

_next_span_id = itertools.count(1).__next__

_STACKS = threading.local()


def _stack() -> list:
    stack = getattr(_STACKS, "spans", None)
    if stack is None:
        stack = _STACKS.spans = []
    return stack


def _json_safe(value):
    """Coerce one attribute value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


class Tracer:
    """Collects finished spans into a JSONL file and/or an in-memory list.

    ``path`` streams one JSON record per finished span (plus a ``meta``
    header and ``counters`` / ``caches`` footers written by
    :meth:`close`); ``buffer`` appends the same record dicts to a caller
    list (used by :func:`capture` and the tests).  At least one sink must
    be given.  Emission is serialised by one lock — pool workers finish
    spans concurrently.
    """

    def __init__(self, path: str | os.PathLike | None = None,
                 buffer: list | None = None):
        if path is None and buffer is None:
            raise ValidationError("Tracer needs a path and/or a buffer sink")
        self.path = Path(path) if path is not None else None
        self.buffer = buffer
        self._lock = threading.Lock()
        self._file = None
        self._closed = False
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "w", encoding="utf-8")
            self._emit({
                "type": "meta",
                "schema": TRACE_SCHEMA_VERSION,
                "pid": os.getpid(),
                "clock": "perf_counter",
                "created_at": time.time(),
            })

    # ------------------------------------------------------------------ #
    def _emit(self, record: dict) -> None:
        with self._lock:
            if self._closed:
                return
            if self.buffer is not None:
                self.buffer.append(record)
            if self._file is not None:
                self._file.write(json.dumps(record))
                self._file.write("\n")
                self._file.flush()

    def emit_span(self, span_id: int, parent: int | None, name: str,
                  t0: float, t1: float, attrs: dict) -> None:
        self._emit({
            "type": "span",
            "id": span_id,
            "parent": parent,
            "name": name,
            "t0": t0,
            "t1": t1,
            "dur": t1 - t0,
            "thread": threading.current_thread().name,
            "attrs": {k: _json_safe(v) for k, v in attrs.items()},
        })

    def close(self) -> None:
        """Write the counter / cache-stats footers and release the file."""
        if self._closed:
            return
        footer = {
            "type": "counters",
            "values": counters_snapshot(),
            "gauges": gauges_snapshot(),
        }
        histograms = histograms_snapshot()
        if histograms:
            footer["histograms"] = histograms
        self._emit(footer)
        self._emit({"type": "caches", **_cache_stats_safe()})
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None


def _cache_stats_safe() -> dict:
    """Live plan/decision cache stats; degrades to empty on import trouble."""
    stats: dict = {}
    try:
        from repro.formats import plan_cache_stats

        stats["plan_cache"] = plan_cache_stats()
    except Exception:  # pragma: no cover - defensive (partial interpreter)
        stats["plan_cache"] = {}
    try:
        from repro.tune import decision_cache_stats

        stats["decision_cache"] = decision_cache_stats()
    except Exception:  # pragma: no cover - defensive
        stats["decision_cache"] = {}
    return stats


# --------------------------------------------------------------------- #
# the global tracer slot and the no-op fast path
# --------------------------------------------------------------------- #
_TRACER: Tracer | None = None
_TRACER_LOCK = threading.Lock()


class _NoopSpan:
    """Shared do-nothing span handle returned while tracing is off."""

    __slots__ = ()
    id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _LiveSpan:
    """A real span: pushed on the thread's stack, emitted on exit."""

    __slots__ = ("_tracer", "name", "parent", "attrs", "id", "_t0")

    def __init__(self, tracer: Tracer, name: str, parent, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.parent = getattr(parent, "id", parent)
        self.attrs = attrs
        self.id = None
        self._t0 = 0.0

    def __enter__(self) -> "_LiveSpan":
        stack = _stack()
        if self.parent is None and stack:
            self.parent = stack[-1].id
        self.id = _next_span_id()
        stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - unbalanced exit safety
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer.emit_span(self.id, self.parent, self.name,
                               self._t0, t1, self.attrs)
        return False

    def set(self, **attrs) -> "_LiveSpan":
        self.attrs.update(attrs)
        return self


def span(name: str, *, parent=None, **attrs):
    """A context manager timing one named region with attributes.

    While tracing is disabled this returns a shared no-op singleton after
    one global check — the disabled fast path allocates nothing.  When
    enabled, the span records monotonic enter/exit timestamps, the current
    thread name, and its parent: the innermost open span on this thread,
    or the explicit ``parent=`` (a span handle or id) for spans that run
    on pool threads.
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return _LiveSpan(tracer, name, parent, attrs)


# --------------------------------------------------------------------- #
# opt-in tracemalloc memory tracking
# --------------------------------------------------------------------- #
class _MemState:
    """Process-wide on/off flag for per-stage allocation tracking."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


MEM_STATE = _MemState()


def memory_tracking_enabled() -> bool:
    """Whether per-stage allocation peaks are being recorded."""
    return MEM_STATE.enabled


def enable_memory_tracking() -> None:
    """Start tracemalloc (if needed) and record per-stage allocation peaks.

    Every :class:`stage` then sets a ``<name>.alloc_peak_bytes`` gauge to
    the high-water mark of the stage's peak traced allocation above its
    entry point.  Tracemalloc multiplies allocation cost several-fold —
    this is a diagnostic mode, not a production default.
    """
    if not tracemalloc.is_tracing():
        tracemalloc.start()
    MEM_STATE.enabled = True


def disable_memory_tracking() -> None:
    """Stop recording allocation peaks and stop tracemalloc."""
    MEM_STATE.enabled = False
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def _mem_stack() -> list:
    stack = getattr(_STACKS, "mem", None)
    if stack is None:
        stack = _STACKS.mem = []
    return stack


def _mem_enter() -> list | None:
    """Open one allocation-tracking window: ``[entry_current, max_peak]``.

    The peak register is process-global, so before resetting it for this
    stage the current peak is folded into every enclosing open window —
    nesting loses nothing.  Windows are per-thread; with concurrent
    threads allocating, a stage's peak includes other threads' traffic
    (tracemalloc cannot attribute per thread), which is the honest
    process-wide reading.
    """
    if not tracemalloc.is_tracing():  # disabled mid-flight
        return None
    current, peak = tracemalloc.get_traced_memory()
    stack = _mem_stack()
    for entry in stack:
        if peak > entry[1]:
            entry[1] = peak
    tracemalloc.reset_peak()
    entry = [current, current]
    stack.append(entry)
    return entry


def _mem_exit(name: str, entry: list) -> None:
    if tracemalloc.is_tracing():
        _, peak = tracemalloc.get_traced_memory()
    else:  # disabled mid-flight
        peak = entry[1]
    stack = _mem_stack()
    if stack and stack[-1] is entry:
        stack.pop()
    elif entry in stack:  # pragma: no cover - unbalanced exit safety
        stack.remove(entry)
    final_peak = max(entry[1], peak)
    gauge_max(name + ".alloc_peak_bytes", max(0, final_peak - entry[0]))


class stage:
    """Instrument one pipeline stage: counters always, a span when tracing.

    ``with stage("kernel", format=..., mode=...) as sp:`` accumulates
    ``kernel.count`` / ``kernel.seconds`` in the counter registry on every
    execution (per-stage breakdowns read these deltas) and emits a
    ``kernel`` span when a tracer is installed.  ``sp`` is the span handle
    (the no-op singleton while disabled), so ``sp.set(...)`` is always
    safe.

    When histogram recording is enabled the duration additionally lands
    in the ``<name>.duration`` histogram; when memory tracking is enabled
    the stage's allocation peak lands in the ``<name>.alloc_peak_bytes``
    gauge.  Both opt-ins cost one attribute check while off.
    """

    __slots__ = ("_name", "_span", "_t0", "_mem")

    def __init__(self, name: str, **attrs):
        self._name = name
        self._span = span(name, **attrs)

    def __enter__(self):
        self._mem = _mem_enter() if MEM_STATE.enabled else None
        self._t0 = time.perf_counter()
        return self._span.__enter__()

    def __exit__(self, exc_type, exc, tb) -> bool:
        result = self._span.__exit__(exc_type, exc, tb)
        seconds = time.perf_counter() - self._t0
        counter_add_stage(self._name, seconds)
        if HIST_STATE.enabled:
            histogram_observe(self._name + ".duration", seconds)
        if self._mem is not None:
            _mem_exit(self._name, self._mem)
        return result


def current_span_id() -> int | None:
    """Id of the innermost open span on this thread (None when disabled)."""
    if _TRACER is None:
        return None
    stack = getattr(_STACKS, "spans", None)
    return stack[-1].id if stack else None


def tracing_enabled() -> bool:
    """Whether a tracer is installed (spans are live, not no-ops)."""
    return _TRACER is not None


def get_tracer() -> Tracer | None:
    """The installed tracer, if any."""
    return _TRACER


def _install(tracer: Tracer | None) -> Tracer | None:
    global _TRACER
    with _TRACER_LOCK:
        previous = _TRACER
        _TRACER = tracer
    return previous


def enable(path: str | os.PathLike | None = None,
           buffer: list | None = None) -> Tracer:
    """Install a process-wide tracer; returns it.

    ``path`` defaults to :data:`DEFAULT_TRACE_FILE` when no buffer is
    given.  A previously installed tracer is closed first.
    """
    if path is None and buffer is None:
        path = DEFAULT_TRACE_FILE
    tracer = Tracer(path, buffer)
    previous = _install(tracer)
    if previous is not None:
        previous.close()
    return tracer


def disable() -> None:
    """Remove and close the installed tracer (no-op when already off)."""
    previous = _install(None)
    if previous is not None:
        previous.close()


@contextmanager
def disabled():
    """Force tracing off for a block, restoring the prior tracer after.

    Unlike :func:`disable` the prior tracer is *not* closed — the CI leg
    that traces a whole test run keeps its file open across tests that
    exercise the disabled fast path.
    """
    previous = _install(None)
    try:
        yield
    finally:
        _install(previous)


@contextmanager
def trace_to(path: str | os.PathLike):
    """Trace the block into ``path``, restoring the prior tracer after."""
    tracer = Tracer(path)
    previous = _install(tracer)
    try:
        yield tracer
    finally:
        _install(previous)
        tracer.close()


@contextmanager
def capture():
    """Trace the block into an in-memory list of record dicts.

    Yields the list; span records (``{"type": "span", ...}``) appear in it
    as their spans close.  The prior tracer, if any, is restored (not
    closed) on exit — but it does not see the block's spans.
    """
    events: list[dict] = []
    tracer = Tracer(buffer=events)
    previous = _install(tracer)
    try:
        yield events
    finally:
        _install(previous)
        tracer.close()


# --------------------------------------------------------------------- #
# environment activation
# --------------------------------------------------------------------- #
def _close_global() -> None:  # pragma: no cover - exercised at interpreter exit
    disable()


def init_from_env(environ=None) -> Tracer | None:
    """Install a tracer according to ``REPRO_TRACE`` / ``REPRO_TRACE_FILE``.

    ``REPRO_TRACE`` set to a falsy spelling (``0``/``false``/``no``/``off``)
    wins over a configured trace file; an explicit ``REPRO_TRACE_FILE``
    alone is enough to enable.  Called once on package import.
    """
    env = os.environ if environ is None else environ
    flag = env.get(TRACE_ENV, "").strip().lower()
    path = env.get(TRACE_FILE_ENV, "").strip()
    if flag in _FALSY:
        return None
    if flag in _TRUTHY or path:
        tracer = enable(path or DEFAULT_TRACE_FILE)
        atexit.register(_close_global)
        return tracer
    return None


def init_mem_from_env(environ=None) -> bool:
    """Enable memory tracking when ``REPRO_TRACE_MEM`` is truthy.

    Called once on package import; returns whether tracking was enabled.
    """
    env = os.environ if environ is None else environ
    if env.get(TRACE_MEM_ENV, "").strip().lower() in _TRUTHY:
        enable_memory_tracking()
        return True
    return False
