"""Bridges between existing signals and the observability layer.

Two kinds of glue live here:

* :class:`JobEventBridge` consumes ingest
  :class:`~repro.ingest.progress.JobEvent`\\ s and turns them into
  registry counters (``ingest_events_total{kind=…}``,
  ``ingest_jobs_total{outcome=…}``) and — for terminal events — spans
  on the active tracer, back-dated from the event's monotonic
  ``timestamp`` minus its ``wall_time`` so job spans line up with any
  in-process pipeline stage spans.
* :func:`register_default_collectors` attaches read-time collectors
  for the lock-free hot-path counters the kernel and index layers keep
  (:data:`repro.core.kernels.KERNEL_STATS`,
  :data:`repro.database.index.INDEX_STATS`) — the hot loops pay a bare
  attribute increment, the registry pays the aggregation only when a
  snapshot or export actually reads it.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import active_tracer

#: JobEvent kinds that terminate a job (and therefore carry a span).
_TERMINAL_KINDS = {"cached", "finished", "failed"}


class JobEventBridge:
    """A progress callback that mirrors job events into obs.

    Usable directly as an executor progress sink, or composed around
    an existing callback::

        bridge = JobEventBridge(registry)
        run_jobs(jobs, store, progress=bridge.wrap(tracker))
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._events = registry.counter(
            "ingest_events_total",
            "Ingest job events observed, by event kind.",
            labelnames=("kind",),
        )
        self._jobs = registry.counter(
            "ingest_jobs_total",
            "Terminal ingest job outcomes.",
            labelnames=("outcome",),
        )
        self._wall = registry.histogram(
            "ingest_job_seconds",
            "Wall seconds of terminal ingest attempts.",
        )

    def __call__(self, event) -> None:
        """Record one :class:`~repro.ingest.progress.JobEvent`."""
        self._events.labels(kind=event.kind).inc()
        if event.kind not in _TERMINAL_KINDS:
            return
        self._jobs.labels(outcome=event.kind).inc()
        self._wall.record(event.wall_time)
        tracer = active_tracer()
        if tracer.enabled:
            attributes = {"outcome": event.kind, "key": event.key[:12]}
            if event.attempt:
                attributes["attempt"] = event.attempt
            if event.shots is not None:
                attributes["shots"] = event.shots
            if event.scenes is not None:
                attributes["scenes"] = event.scenes
            if event.message:
                attributes["message"] = event.message
            tracer.add_span(
                f"ingest.job:{event.title}",
                start=event.timestamp - event.wall_time,
                duration=event.wall_time,
                **attributes,
            )

    def wrap(self, progress):
        """Compose with another progress callback (None passes through)."""
        if progress is None:
            return self

        def composed(event) -> None:
            self(event)
            progress(event)

        return composed


def kernel_stats_collector() -> dict[str, float]:
    """Read-time gauges from the similarity-kernel hot-path counters."""
    from repro.core.kernels import KERNEL_STATS

    return {
        "kernel_packs_total": float(KERNEL_STATS.packs),
        "kernel_packed_rows_total": float(KERNEL_STATS.packed_rows),
        "kernel_chunks_total": float(KERNEL_STATS.chunks),
        "kernel_pair_evals_total": float(KERNEL_STATS.pair_evals),
    }


def index_stats_collector() -> dict[str, float]:
    """Read-time gauges from the hierarchical-index hot-path counters."""
    from repro.database.index import INDEX_STATS

    return {
        "index_descents_total": float(INDEX_STATS.descents),
        "index_center_block_builds_total": float(INDEX_STATS.center_block_builds),
    }


def register_default_collectors(registry: MetricsRegistry) -> None:
    """Attach the kernel and index collectors to ``registry``.

    The imports happen inside the collectors, at read time, so a
    registry can exist before (or without) the heavy numeric modules.
    """
    registry.register_collector(kernel_stats_collector)
    registry.register_collector(index_stats_collector)
