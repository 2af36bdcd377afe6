"""Unified observability: tracing, metrics registry, exporters.

The first cross-cutting layer of the reproduction — every subsystem
reports through one surface:

* :mod:`repro.obs.trace` — nested, monotonic-clocked spans with
  attributes, JSONL trace files, flame-style text trees.  Disabled by
  default and zero-cost when disabled; ``classminer … --trace PATH``
  installs a real tracer for one run.
* :mod:`repro.obs.metrics` — the shared :class:`LatencyHistogram`
  and :func:`format_seconds`.
* :mod:`repro.obs.registry` — named counter / gauge / histogram
  families under one lock, plus read-time collectors for the lock-free
  kernel and index hot-path stats.  :func:`get_registry` is the
  process-wide instance serving, ingest and mining all default to.
* :mod:`repro.obs.export` — Prometheus text exposition (``GET
  /metrics``), with a line-format checker.
* :mod:`repro.obs.bridge` — ingest ``JobEvent`` → span/counter bridge
  and the default registry collectors.
* :mod:`repro.obs.slowlog` — bounded slow-query log retaining the N
  slowest queries (``GET /debug/slow``, ``classminer obs slow --url``).

Traces also cross process boundaries: the gateway accepts/generates
``X-Trace-Id``, RPC frames carry ``trace_id``/``parent_span``, workers
ship their spans back in response frames, and the coordinator stitches
them into one flame tree (see docs/OBSERVABILITY.md).

Instrumented call sites write::

    from repro import obs

    with obs.span("mine.shots", window=config.shot_window) as sp:
        shots = detect_shots(stream)
        sp.set(shots=len(shots))

which is a no-op while no tracer is installed.
"""

from repro.obs.bridge import JobEventBridge, register_default_collectors
from repro.obs.export import (
    render_prometheus,
    render_prometheus_dumps,
    validate_prometheus_text,
)
from repro.obs.metrics import BUCKET_BOUNDS, LatencyHistogram, format_seconds
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricFamily,
    MetricsRegistry,
    get_registry,
)
from repro.obs.slowlog import SlowQuery, SlowQueryLog, get_slow_log
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    active_tracer,
    current_trace_id,
    install_tracer,
    load_trace,
    new_trace_id,
    render_spans,
    span,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "JobEventBridge",
    "LatencyHistogram",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "active_tracer",
    "current_trace_id",
    "format_seconds",
    "get_registry",
    "get_slow_log",
    "install_tracer",
    "load_trace",
    "new_trace_id",
    "register_default_collectors",
    "render_prometheus",
    "render_prometheus_dumps",
    "render_spans",
    "span",
    "validate_prometheus_text",
]
