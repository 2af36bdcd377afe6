"""Graceful degradation: shard loss, circuit breakers, recovery.

Killing a shard must yield flagged partial answers — never errors — to
the queries that needed it, leave the queries that did not need it
whole, and the service must return to full-strength, bit-identical
answers once the shard is back, without being restarted itself.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import ServingError
from repro.net.worker import ShardWorker
from repro.serving.server import QueryRequest

from .test_batching import owned_leaves


@pytest.fixture()
def pair(make_harness):
    """A 2-shard harness with a fast breaker (fresh per test)."""
    return make_harness(2, breaker_threshold=2, breaker_reset=0.2)


def fresh_probe(harness, seed, needs=None):
    """A novel probe (the first of ``seed``'s stream whose shot query asks
    exactly the shards ``needs``, when given)."""
    rng = np.random.default_rng(seed)
    shape = harness.service.sample_features(1)[0].shape
    while True:
        probe = rng.random(shape)
        if needs is None or owners(harness, probe) == set(needs):
            return probe


def owners(harness, probe) -> set[int]:
    """The shards a shot query for ``probe`` asks: its descended leaves' owners."""
    return set(owned_leaves(harness.service, probe))


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
            QueryRequest(kind="shot", features=fresh_probe(pair, 1, needs={0, 1}), k=10)
        )
        assert result.degraded
        assert victim in result.shards_missing
        assert result.hits  # the surviving shard still answers

    def test_surviving_hits_are_the_survivors_subset(self, pair, reference, net_db):
        victim, survivor = 0, 1
        survivor_shots = {
            key
            for name in pair.workers[survivor]._state.leaves
            for key in zip(net_db.leaves[name].titles.tolist(), net_db.leaves[name].shot_ids.tolist())
        }
        pair.workers[victim].stop()
        probe = fresh_probe(pair, 2)
        partial = pair.service.query(
            QueryRequest(kind="shot_flat", features=probe, k=1000)
        )
        full = reference.query(
            QueryRequest(kind="shot_flat", features=probe, k=1000)
        )
        expected = [
            key for key in keys(full) if key[:2] in survivor_shots
        ]
        assert keys(partial) == expected

    def test_a_query_on_the_survivors_leaves_is_answered_in_full(self, pair, reference):
        probe = fresh_probe(pair, 3, needs={0})  # every leaf it reaches lives on shard 0
        pair.workers[1].stop()
        request = QueryRequest(kind="shot", features=probe, k=10)
        whole = pair.service.query(request)
        assert not whole.degraded and not whole.shards_missing
        assert keys(whole) == keys(reference.query(request))
        assert whole.comparisons == reference.query(request).comparisons

    def test_a_shot_whose_owners_are_all_lost_is_answered_empty(self, pair):
        """While another shard answers (a rolling restart) a shot that
        needed only the lost one is flagged, not failed."""
        probe = fresh_probe(pair, 4, needs={0})
        pair.workers[0].stop()
        shot = pair.service.query(QueryRequest(kind="shot", features=probe, k=5))
        assert shot.degraded and not shot.hits
        assert shot.shards_missing == (0,)

    def test_breaker_open_skips_dead_shard_without_waiting(self, pair):
        victim = 0
        pair.workers[victim].stop()
        for seed in range(4, 8):  # trip the breaker past its threshold
            pair.service.query(
                QueryRequest(kind="shot", features=fresh_probe(pair, seed), k=5)
            )
        started = time.perf_counter()
        result = pair.service.query(
            QueryRequest(kind="shot", features=fresh_probe(pair, 99, needs={0, 1}), k=5)
        )
        elapsed = time.perf_counter() - started
        assert victim in result.shards_missing
        assert elapsed < 1.0  # no connect timeout on the open breaker

    def test_all_shards_down_is_a_typed_error(self, pair):
        probe = fresh_probe(pair, 9)
        for worker in pair.workers:
            worker.stop()
        for kind in ("shot", "shot_flat", "scene"):
            with pytest.raises(ServingError, match="no shard responded"):
                pair.service.query(QueryRequest(kind=kind, features=probe, k=5))

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
        probe = fresh_probe(pair, 10, needs={0, 1})
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
        worker = ShardWorker(pair.spec.shard_dir(pair.root, shard_id)).start()
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
