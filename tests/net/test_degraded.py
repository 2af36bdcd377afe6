"""Graceful degradation: shard loss, circuit breakers, recovery.

Killing a shard must yield flagged partial answers — never errors —
and the service must return to full-strength, bit-identical answers
once the shard is back, without being restarted itself.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ServingError
from repro.net.worker import ShardWorker
from repro.serving.server import QueryRequest


@pytest.fixture()
def pair(make_harness):
    """A 2-shard harness with a fast breaker (fresh per test)."""
    return make_harness(2, breaker_threshold=2, breaker_reset=0.2)


def fresh_probe(harness, seed):
    rng = np.random.default_rng(seed)
    shape = harness.service.sample_features(1)[0].shape
    return rng.random(shape)


def keys(result):
    return [
        (hit.entry.video_title, hit.entry.shot_id, hit.score)
        for hit in result.hits
    ]


class TestShardLoss:
    def test_lost_shard_degrades_instead_of_failing(self, pair):
        victim = 0
        pair.workers[victim].stop()
        result = pair.service.query(
            QueryRequest(kind="shot", features=fresh_probe(pair, 1), k=10)
        )
        assert result.degraded
        assert victim in result.shards_missing
        assert result.hits  # the surviving shard still answers

    def test_surviving_hits_are_the_survivors_subset(self, pair, reference):
        victim, survivor = 0, 1
        survivor_titles = set(pair.spec.shards[survivor].titles)
        pair.workers[victim].stop()
        probe = fresh_probe(pair, 2)
        partial = pair.service.query(
            QueryRequest(kind="shot_flat", features=probe, k=1000)
        )
        full = reference.query(
            QueryRequest(kind="shot_flat", features=probe, k=1000)
        )
        expected = [
            key for key in keys(full) if key[0] in survivor_titles
        ]
        assert keys(partial) == expected

    def test_breaker_open_skips_dead_shard_without_waiting(self, pair):
        victim = 0
        pair.workers[victim].stop()
        for seed in range(4, 8):  # trip the breaker past its threshold
            pair.service.query(
                QueryRequest(kind="shot", features=fresh_probe(pair, seed), k=5)
            )
        started = time.perf_counter()
        result = pair.service.query(
            QueryRequest(kind="shot", features=fresh_probe(pair, 99), k=5)
        )
        elapsed = time.perf_counter() - started
        assert victim in result.shards_missing
        assert elapsed < 1.0  # no connect timeout on the open breaker

    def test_all_shards_down_is_a_typed_error(self, pair):
        probe = fresh_probe(pair, 9)
        for worker in pair.workers:
            worker.stop()
        with pytest.raises(ServingError, match="no shard responded"):
            pair.service.query(QueryRequest(kind="shot", features=probe, k=5))

    def test_health_report_degrades_then_downs(self, pair):
        pair.workers[0].stop()
        report = pair.service.health_report()
        assert report.live and report.degraded
        assert report.exit_code == 1
        pair.workers[1].stop()
        report = pair.service.health_report()
        assert not report.ready
        assert report.exit_code == 2

    def test_recovery_restores_bit_identical_answers(self, pair, reference):
        victim = 0
        pair.workers[victim].stop()
        probe = fresh_probe(pair, 10)
        request = QueryRequest(kind="shot", features=probe, k=10)
        assert pair.service.query(request).shards_missing
        self._revive(pair, victim)
        healed = self._query_until_full(pair, request)
        full = reference.query(request)
        assert keys(healed) == keys(full)
        assert healed.comparisons == full.comparisons

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _revive(pair, shard_id):
        """Restart the shard's worker on a new port (what the cluster
        watchdog does for subprocess workers) and re-point its endpoint."""
        root = pair.spec.shard_dir(
            pair.workers[shard_id]._shard_dir.parent, shard_id
        )
        worker = ShardWorker(root).start()
        pair.workers[shard_id] = worker
        pair.endpoints[shard_id].reset("127.0.0.1", worker.port)

    @staticmethod
    def _query_until_full(pair, request, timeout=5.0):
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            result = pair.service.query(request)
            if not result.shards_missing:
                return result
            time.sleep(0.05)
        raise AssertionError("service never recovered full answers")
