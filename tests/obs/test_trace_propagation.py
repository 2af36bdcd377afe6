"""Cross-process trace plumbing: adopt, explicit spans, remote stitching."""

from __future__ import annotations

import threading

from repro.obs import NULL_TRACER, Span, Tracer, new_trace_id, render_spans


class TestTraceIds:
    def test_new_trace_id_shape_and_uniqueness(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)  # hex

    def test_adopt_exposes_trace_id_per_thread(self):
        tracer = Tracer()
        assert tracer.current_trace_id() is None
        with tracer.adopt("cafe0123cafe0123"):
            assert tracer.current_trace_id() == "cafe0123cafe0123"
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(tracer.current_trace_id())
            )
            thread.start()
            thread.join()
            assert seen == [None]  # thread-local, not process-global
        assert tracer.current_trace_id() is None

    def test_adopt_restores_previous_trace_id(self):
        tracer = Tracer()
        with tracer.adopt("outer"):
            with tracer.adopt("inner"):
                assert tracer.current_trace_id() == "inner"
            assert tracer.current_trace_id() == "outer"


class TestAdoptParent:
    def test_adopt_none_parent_is_harmless(self):
        tracer = Tracer()
        with tracer.adopt(None):
            with tracer.span("orphanless"):
                pass
        (span,) = tracer.spans()
        assert span.parent_id is None

    def test_current_span_id_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current_span_id() is None
        with tracer.span("outer"):
            outer = tracer.current_span_id()
            with tracer.span("inner"):
                assert tracer.current_span_id() != outer
            assert tracer.current_span_id() == outer
        assert tracer.current_span_id() is None


class TestExplicitSpans:
    def test_add_span_at_uses_epoch_relative_start(self):
        tracer = Tracer()
        span = tracer.add_span_at("rpc.probe", 0.5, 0.25, shard=1)
        assert span.start == 0.5
        assert span.duration == 0.25
        assert span.parent_id is None
        assert span.attributes == {"shard": 1}

    def test_now_is_monotonic_from_epoch(self):
        tracer = Tracer()
        first = tracer.now()
        second = tracer.now()
        assert 0.0 <= first <= second


class TestRemoteStitching:
    def _remote_spans(self):
        remote = Tracer()
        with remote.span("worker.probe", shard=0):
            with remote.span("worker.leaf", leaf="l0"):
                pass
        return remote.spans()

    def test_remote_ids_are_remapped_and_reparented(self):
        local = Tracer()
        with local.span("local.phase"):
            pass
        rpc = local.add_span_at("rpc.probe", 1.0, 0.5)
        attached = local.attach_remote_spans(self._remote_spans(), rpc.span_id, 1.0)
        assert attached == 2
        spans = {sp.name: sp for sp in local.spans()}
        root = spans["worker.probe"]
        leaf = spans["worker.leaf"]
        assert root.parent_id == rpc.span_id
        assert leaf.parent_id == root.span_id
        local_ids = {sp.span_id for sp in local.spans()}
        assert len(local_ids) == len(local.spans())  # no id collisions

    def test_remote_starts_shift_by_base(self):
        remote = Tracer()
        with remote.span("worker.scan"):
            pass
        (remote_span,) = remote.spans()
        local = Tracer()
        local.attach_remote_spans([remote_span], None, 10.0)
        (stitched,) = local.spans()
        assert stitched.start == 10.0 + remote_span.start

    def test_two_shards_with_identical_ids_do_not_collide(self):
        def shard_spans():
            tracer = Tracer()
            with tracer.span("worker.probe"):
                pass
            return tracer.spans()

        a, b = shard_spans(), shard_spans()
        assert a[0].span_id == b[0].span_id  # both numbered from 1
        local = Tracer()
        rpc_a = local.add_span_at("rpc.probe", 0.0, 1.0, shard=0)
        rpc_b = local.add_span_at("rpc.probe", 0.0, 1.0, shard=1)
        local.attach_remote_spans(a, rpc_a.span_id, 0.0)
        local.attach_remote_spans(b, rpc_b.span_id, 0.0)
        ids = [sp.span_id for sp in local.spans()]
        assert len(ids) == len(set(ids))

    def test_empty_remote_list_is_a_noop(self):
        local = Tracer()
        assert local.attach_remote_spans([], 1, 0.0) == 0
        assert local.spans() == []

    def test_stitched_tree_renders_as_one_flame(self):
        local = Tracer()
        with local.span("net.query"):
            parent = local.current_span_id()
        rpc = local.add_span_at("rpc.probe", 0.0, 0.5, parent_id=parent, shard=0)
        local.attach_remote_spans(self._remote_spans(), rpc.span_id, 0.0)
        text = render_spans(local.spans())
        assert "net.query" in text
        assert "rpc.probe" in text
        assert "worker.probe" in text
        assert "worker.leaf" in text


class TestNullTracerPropagation:
    def test_all_propagation_ops_are_noops(self):
        assert NULL_TRACER.now() == 0.0
        assert NULL_TRACER.current_span_id() is None
        assert NULL_TRACER.current_trace_id() is None
        with NULL_TRACER.adopt("deadbeefdeadbeef"):
            assert NULL_TRACER.current_trace_id() is None
        assert NULL_TRACER.add_span_at("x", 0.0, 1.0) is None
        remote = [
            Span(span_id=1, parent_id=None, name="w", start=0.0,
                 duration=1.0, thread="t")
        ]
        assert NULL_TRACER.attach_remote_spans(remote, None, 0.0) == 0
        assert NULL_TRACER.spans() == []
