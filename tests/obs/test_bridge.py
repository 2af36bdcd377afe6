"""JobEvent bridging and the hot-path stat collectors."""

from __future__ import annotations

import time

from repro.core.kernels import KERNEL_STATS, FeatureMatrix, cross_stsim
from repro.database.index import INDEX_STATS
from repro.ingest.progress import JobEvent
from repro.obs import (
    JobEventBridge,
    MetricsRegistry,
    Tracer,
    install_tracer,
    register_default_collectors,
)

import numpy as np


def _event(kind: str, **overrides) -> JobEvent:
    defaults = dict(
        kind=kind,
        title="demo",
        key="abcdef0123456789",
        attempt=1,
        wall_time=0.5,
    )
    defaults.update(overrides)
    return JobEvent(**defaults)


class TestJobEventBridge:
    def test_counts_events_and_outcomes(self):
        registry = MetricsRegistry()
        bridge = JobEventBridge(registry)
        bridge(_event("queued", attempt=0, wall_time=0.0))
        bridge(_event("started", wall_time=0.0))
        bridge(_event("finished", shots=16, scenes=3))
        view = registry.snapshot()
        assert view["ingest_events_total{kind=queued}"] == 1.0
        assert view["ingest_events_total{kind=finished}"] == 1.0
        assert view["ingest_jobs_total{outcome=finished}"] == 1.0
        assert view["ingest_job_seconds_count"] == 1.0
        # Non-terminal events don't count as outcomes.
        assert "ingest_jobs_total{outcome=started}" not in view

    def test_terminal_events_become_backdated_spans(self):
        registry = MetricsRegistry()
        bridge = JobEventBridge(registry)
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            bridge(_event("finished", shots=16, scenes=3, wall_time=0.25))
            bridge(_event("started", wall_time=0.0))  # no span
        finally:
            install_tracer(previous)
        (span,) = tracer.spans()
        assert span.name == "ingest.job:demo"
        assert span.duration == 0.25
        assert span.attributes["outcome"] == "finished"
        assert span.attributes["key"] == "abcdef012345"
        assert span.attributes["shots"] == 16

    def test_no_spans_while_tracing_disabled(self):
        registry = MetricsRegistry()
        bridge = JobEventBridge(registry)
        bridge(_event("failed", message="boom"))  # must not raise
        assert registry.snapshot()["ingest_jobs_total{outcome=failed}"] == 1.0

    def test_wrap_composes_with_existing_callback(self):
        registry = MetricsRegistry()
        bridge = JobEventBridge(registry)
        seen: list[str] = []
        composed = bridge.wrap(lambda event: seen.append(event.kind))
        composed(_event("cached"))
        assert seen == ["cached"]
        assert registry.snapshot()["ingest_jobs_total{outcome=cached}"] == 1.0
        assert bridge.wrap(None) is bridge


class TestJobEventTimestamp:
    def test_timestamp_defaults_to_monotonic_now(self):
        before = time.perf_counter()
        event = _event("queued")
        after = time.perf_counter()
        assert before <= event.timestamp <= after

    def test_describe_output_unchanged_by_timestamp(self):
        event = _event("finished", shots=16, scenes=3, timestamp=123.0)
        text = event.describe()
        assert "123" not in text
        assert "demo" in text
        assert "16 shots" in text and "3 scenes" in text


class TestHotPathCollectors:
    def test_kernel_stats_observe_batch_work(self):
        KERNEL_STATS.reset()
        rng = np.random.default_rng(0)
        histograms = rng.random((4, 16))
        histograms /= histograms.sum(axis=1, keepdims=True)
        textures = rng.random((4, 10)) * 0.3
        matrix = FeatureMatrix(list(histograms), list(textures))
        cross_stsim(matrix, matrix)
        assert KERNEL_STATS.packs >= 1
        assert KERNEL_STATS.packed_rows >= 4
        assert KERNEL_STATS.chunks >= 1
        assert KERNEL_STATS.pair_evals >= 16

    def test_register_default_collectors(self):
        registry = MetricsRegistry()
        register_default_collectors(registry)
        view = registry.snapshot()
        for name in (
            "kernel_packs_total",
            "kernel_pair_evals_total",
            "index_descents_total",
            "index_center_block_builds_total",
        ):
            assert name in view
        # The leaf block cache is gone, and so are its gauges.
        assert not any("block_cache" in name for name in view)

    def test_stats_reset_and_snapshot(self):
        KERNEL_STATS.reset()
        assert KERNEL_STATS.snapshot() == {
            "packs": 0,
            "packed_rows": 0,
            "chunks": 0,
            "pair_evals": 0,
        }
        INDEX_STATS.reset()
        assert set(INDEX_STATS.snapshot()) == {
            "descents",
            "center_block_builds",
        }
