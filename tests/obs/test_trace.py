"""Span tracing: nesting, serialisation, rendering, the null tracer."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    active_tracer,
    get_registry,
    install_tracer,
    load_trace,
    render_prometheus,
    render_spans,
    validate_prometheus_text,
)
from repro.obs import trace as trace_module


class TestTracer:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        spans = {span.name: span for span in tracer.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner.a"].parent_id == spans["outer"].span_id
        assert spans["inner.b"].parent_id == spans["outer"].span_id
        # Children complete before the parent in the record order.
        assert [span.name for span in tracer.spans()] == [
            "inner.a",
            "inner.b",
            "outer",
        ]

    def test_attributes_at_open_and_mid_span(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as sp:
            sp.set(done=True)
        (span,) = tracer.spans()
        assert span.attributes == {"items": 3, "done": True}

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans()
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration
        assert outer.start <= inner.start

    def test_threads_nest_independently(self):
        tracer = Tracer()

        def worker():
            with tracer.span("thread-root"):
                pass

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = {span.name: span for span in tracer.spans()}
        # The other thread's stack is empty: its span is a root, not a
        # child of the main thread's open span.
        assert spans["thread-root"].parent_id is None
        assert spans["main-root"].parent_id is None

    def test_add_span_backdates(self):
        tracer = Tracer()
        now = tracer._clock()
        span = tracer.add_span("bridged", start=now - 1.0, duration=1.0, key="abc")
        assert span.duration == 1.0
        assert span.attributes == {"key": "abc"}
        assert tracer.spans() == [span]

    def test_add_span_nests_under_open_span(self):
        tracer = Tracer()
        with tracer.span("parent"):
            bridged = tracer.add_span("child", start=tracer._clock(), duration=0.0)
        parent = tracer.spans()[-1]
        assert bridged.parent_id == parent.span_id

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.spans() == []


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", title="demo"):
            with tracer.span("inner"):
                pass
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert [s.to_json() for s in loaded] == [
            s.to_json() for s in tracer.spans()
        ]

    def test_traced_demo_mine_round_trips_every_stage(self, tmp_path, demo_stream):
        from repro.core import ClassMiner

        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            ClassMiner().mine(demo_stream)
        finally:
            install_tracer(previous)
        stages = ("shots", "groups", "scenes", "clustering", "cues", "audio", "events")
        assert {span.name for span in tracer.spans()} >= {"mine", *(f"mine.{s}" for s in stages)}
        loaded = load_trace(tracer.write_jsonl(tmp_path / "mine.jsonl"))
        assert [s.to_json() for s in loaded] == [s.to_json() for s in tracer.spans()]
        assert "mine.shots" in render_spans(loaded)
        # The mine fed the process-wide registry, and what it exports parses.
        assert get_registry().snapshot()["kernel_packs_total"] > 0
        assert validate_prometheus_text(render_prometheus(get_registry())) == []

    def test_empty_trace_round_trip(self, tmp_path):
        path = Tracer().write_jsonl(tmp_path / "empty.jsonl")
        assert load_trace(path) == []

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ObservabilityError):
            load_trace(path)

    def test_malformed_span_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"span_id": 1}\n')
        with pytest.raises(ObservabilityError):
            load_trace(path)


class TestRender:
    def test_tree_shape_and_shares(self):
        spans = [
            Span(2, 1, "child.fast", 0.0, 0.25, "main"),
            Span(3, 1, "child.slow", 0.25, 0.75, "main"),
            Span(1, None, "root", 0.0, 1.0, "main", {"title": "demo"}),
        ]
        text = render_spans(spans)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert "title=demo" in lines[0]
        assert "(25%)" in lines[1] and "child.fast" in lines[1]
        assert "(75%)" in lines[2] and "child.slow" in lines[2]
        assert "└─" in lines[2]

    def test_orphans_render_as_roots_without_share(self):
        spans = [Span(5, 99, "orphan", 0.0, 0.5, "main")]
        text = render_spans(spans)
        assert "orphan" in text
        assert "%" not in text

    def test_children_beyond_max_are_elided(self):
        spans = [Span(1, None, "root", 0.0, 1.0, "main")]
        spans += [
            Span(2 + i, 1, f"child{i}", i * 0.01, 0.01, "main") for i in range(10)
        ]
        text = render_spans(spans, max_spans=3)
        assert "7 more spans elided" in text

    def test_empty(self):
        assert render_spans([]) == "(empty trace)"


class TestNullTracer:
    def test_span_handle_is_shared_and_noop(self):
        null = NullTracer()
        handle_a = null.span("a", key=1)
        handle_b = null.span("b")
        assert handle_a is handle_b  # the zero-allocation contract
        with handle_a as sp:
            sp.set(anything=True)
        assert null.spans() == []
        assert null.render() == "(tracing disabled)"
        assert null.add_span("x", start=0.0, duration=1.0) is None

    def test_install_and_restore(self):
        assert active_tracer() is NULL_TRACER
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            assert previous is NULL_TRACER
            assert active_tracer() is tracer
            with trace_module.span("via-module"):
                pass
            assert [s.name for s in tracer.spans()] == ["via-module"]
        finally:
            install_tracer(previous)
        assert active_tracer() is NULL_TRACER

    def test_module_span_is_noop_when_disabled(self):
        assert active_tracer() is NULL_TRACER
        with trace_module.span("ignored") as sp:
            assert sp is trace_module._NULL_HANDLE

    def test_install_none_restores_null(self):
        install_tracer(Tracer())
        install_tracer(None)
        assert active_tracer() is NULL_TRACER
