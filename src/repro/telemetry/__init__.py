"""Observability layer: span tracing + process-wide counters.

Two halves:

* **Counters** (:mod:`repro.telemetry.counters`) are always on — cheap
  accumulators every instrumented layer feeds (``kernel.count``,
  ``plan_cache.hits``, ``gpusim.flops``, ...).  Consumers snapshot before
  and diff after (:func:`counters_delta`); ``perfbench`` records the
  delta of its whole run.

* **Spans** (:mod:`repro.telemetry.tracer`) are off by default and
  near-free while off.  ``REPRO_TRACE=1`` (or ``REPRO_TRACE_FILE=path``,
  or :func:`enable` / :func:`trace_to` / :func:`capture`) streams nested,
  attributed, monotonic-clock spans to a JSONL file that
  ``repro-telemetry`` renders as stage summaries, per-worker timelines,
  and cache statistics.

See ``src/repro/telemetry/README.md`` for the span/counter model and the
trace schema.
"""

from repro.telemetry.counters import (
    HISTOGRAMS_ENV,
    CounterRegistry,
    Histogram,
    counter_add,
    counter_add_stage,
    counters_delta,
    counters_snapshot,
    disable_histograms,
    enable_histograms,
    gauge_max,
    gauge_set,
    gauges_snapshot,
    histogram_observe,
    histograms_enabled,
    histograms_snapshot,
    reset_counters,
)
from repro.telemetry.export import (
    TRACE_SCHEMA_VERSION,
    SpanRecord,
    Trace,
    parse_events,
    read_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.summary import (
    render_summary,
    render_timeline,
    span_summary,
    worker_timelines,
)
from repro.telemetry.tracer import (
    DEFAULT_TRACE_FILE,
    TRACE_ENV,
    TRACE_FILE_ENV,
    TRACE_MEM_ENV,
    Tracer,
    capture,
    current_span_id,
    disable,
    disable_memory_tracking,
    disabled,
    enable,
    enable_memory_tracking,
    get_tracer,
    init_from_env,
    init_mem_from_env,
    memory_tracking_enabled,
    span,
    stage,
    trace_to,
    tracing_enabled,
)

__all__ = [
    # counters
    "CounterRegistry",
    "counter_add",
    "counter_add_stage",
    "counters_delta",
    "counters_snapshot",
    "gauge_max",
    "gauge_set",
    "gauges_snapshot",
    "reset_counters",
    # histograms
    "HISTOGRAMS_ENV",
    "Histogram",
    "disable_histograms",
    "enable_histograms",
    "histogram_observe",
    "histograms_enabled",
    "histograms_snapshot",
    # tracer
    "DEFAULT_TRACE_FILE",
    "TRACE_ENV",
    "TRACE_FILE_ENV",
    "TRACE_MEM_ENV",
    "Tracer",
    "capture",
    "current_span_id",
    "disable",
    "disable_memory_tracking",
    "disabled",
    "enable",
    "enable_memory_tracking",
    "get_tracer",
    "init_from_env",
    "init_mem_from_env",
    "memory_tracking_enabled",
    "span",
    "stage",
    "trace_to",
    "tracing_enabled",
    # export / analysis
    "TRACE_SCHEMA_VERSION",
    "SpanRecord",
    "Trace",
    "parse_events",
    "read_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_summary",
    "render_timeline",
    "span_summary",
    "worker_timelines",
]

# Environment activation: REPRO_TRACE=1 / REPRO_TRACE_FILE=path installs a
# process-wide tracer the moment any instrumented layer imports telemetry;
# REPRO_TRACE_MEM=1 additionally starts tracemalloc for per-stage
# allocation peaks (REPRO_HISTOGRAMS is handled in counters' own import).
init_from_env()
init_mem_from_env()
