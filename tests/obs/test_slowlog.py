"""Slow-query log: bounded retention of the slowest queries."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.obs import SlowQuery, SlowQueryLog, get_slow_log


def _q(elapsed: float, kind: str = "shot", **kwargs) -> SlowQuery:
    return SlowQuery(kind=kind, elapsed_seconds=elapsed, backend="test", **kwargs)


class TestSlowQueryLog:
    def test_retains_slowest_in_order(self):
        log = SlowQueryLog(capacity=3)
        for elapsed in (0.01, 0.5, 0.02, 0.3, 0.04):
            log.record(_q(elapsed))
        assert [e.elapsed_seconds for e in log.entries()] == [0.5, 0.3, 0.04]
        assert log.recorded == 5

    def test_fast_query_never_evicts_a_slower_one(self):
        log = SlowQueryLog(capacity=2)
        log.record(_q(1.0))
        log.record(_q(2.0))
        log.record(_q(0.001))
        assert [e.elapsed_seconds for e in log.entries()] == [2.0, 1.0]

    def test_capacity_one(self):
        log = SlowQueryLog(capacity=1)
        for elapsed in (0.2, 0.9, 0.5):
            log.record(_q(elapsed))
        assert [e.elapsed_seconds for e in log.entries()] == [0.9]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_clear_resets_entries_and_counter(self):
        log = SlowQueryLog(capacity=4)
        log.record(_q(0.1))
        log.clear()
        assert log.entries() == []
        assert log.recorded == 0

    def test_equal_elapsed_keeps_insertion_stability(self):
        log = SlowQueryLog(capacity=3)
        first = _q(0.5, kind="scene")
        second = _q(0.5, kind="event")
        log.record(first)
        log.record(second)
        assert log.entries() == [first, second]

    def test_to_json_shape(self):
        entry = _q(
            0.25,
            comparisons=100,
            approx_comparisons=40,
            cache_hit=True,
            degraded=True,
            shards_missing=(2,),
            trace_id="abc123",
        )
        data = entry.to_json()
        assert data["elapsed_ms"] == 250.0
        assert data["backend"] == "test"
        assert data["shards_missing"] == [2]
        assert data["trace_id"] == "abc123"
        assert data["cache_hit"] is True
        assert data["degraded"] is True
        # from_json inverts it (wall_time is stamped afresh on decode).
        decoded = dataclasses.replace(
            SlowQuery.from_json(data), wall_time=entry.wall_time
        )
        assert decoded == entry

    def test_render_mentions_slowest(self):
        log = SlowQueryLog(capacity=2)
        log.record(_q(1.5, trace_id="feedc0de"))
        text = log.render()
        assert "feedc0de" in text
        assert "shot" in text
        assert SlowQueryLog(capacity=2).render() == "(no queries recorded)"

    def test_concurrent_records_stay_bounded(self):
        log = SlowQueryLog(capacity=8)

        def pound(base: float) -> None:
            for i in range(200):
                log.record(_q(base + i * 1e-6))

        threads = [
            threading.Thread(target=pound, args=(0.1 * t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.recorded == 800
        assert len(log.entries()) == 8
        # The retained tail is the global slowest, not one thread's.
        assert all(e.elapsed_seconds >= 0.3 for e in log.entries())


def test_global_slow_log_is_a_singleton():
    assert get_slow_log() is get_slow_log()
