"""Wire faults against live shard RPCs: retries and degradation.

Each test arms a seeded :class:`~repro.resilience.faults.FaultPlan` at
the ``net.*`` fault points and checks the coordinator's contract: a
transient fault is absorbed by the retry loop (answers bit-identical to
the single-process reference, retry counter charged), an exhausted
budget degrades honestly (``shards_missing`` set, never cached), and a
full outage raises the typed :class:`NoShardAnsweredError` after one
execution: each shard's retry budget is spent once.
"""

from __future__ import annotations

import pytest

from repro.errors import NoShardAnsweredError, ServingError
from repro.obs.registry import MetricsRegistry
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serving.server import QueryRequest
from tests.net.test_equivalence import keys


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    for family in registry.families():
        if family.name == name:
            return sum(child.value for _, child in family.samples())
    return 0.0


def _retries(service) -> float:
    return _counter_total(service.registry, "net_rpc_retries_total")


class TestTransientFaultsAreAbsorbed:
    @pytest.mark.parametrize(
        "specs",
        [
            [FaultSpec("net.frame_corrupt", kind="corruption", every_nth=1, limit=2)],
            [FaultSpec("net.frame_truncated", every_nth=1, limit=2)],
            [FaultSpec("net.conn_reset", every_nth=1, limit=2)],
            [FaultSpec("net.connect_refused", every_nth=1, limit=2)],
            # One of each in a single plan: the kinds share one retry budget.
            [
                FaultSpec("net.connect_refused", every_nth=1, limit=1),
                FaultSpec("net.frame_corrupt", kind="corruption", every_nth=2, limit=1),
                FaultSpec("net.frame_truncated", every_nth=3, limit=1),
                FaultSpec("net.conn_reset", every_nth=2, limit=1),
            ],
        ],
        ids=["corrupt", "truncated", "reset", "refused", "all-four"],
    )
    def test_each_fault_kind_retries_to_bit_identical(
        self, make_harness, reference, probes, specs
    ):
        # Four retries: at worst all of a plan's faults land on one RPC.
        harness = make_harness(2, rpc_retries=4)
        request = QueryRequest(kind="shot", features=probes[0], k=10)
        expected = reference.query(request)
        # Drop pooled connections so connect-time faults have a connect
        # to fire at; the other kinds are indifferent to a fresh pool.
        for endpoint in harness.endpoints:
            endpoint.close()
        before = _retries(harness.service)
        with inject(FaultPlan(specs, seed=3)) as plan:
            result = harness.service.query(request)
        assert plan.fired() == sum(spec.limit for spec in specs), "every budgeted fault should have fired"
        assert keys(result) == keys(expected)
        assert result.comparisons == expected.comparisons
        assert not result.shards_missing and not result.degraded
        assert _retries(harness.service) > before

    def test_corruption_is_detected_not_decoded(
        self, make_harness, reference, probes
    ):
        # A flipped payload must surface as a checksum failure (then be
        # retried), never as a successfully parsed wrong answer.
        harness = make_harness(2, rpc_retries=3)
        request = QueryRequest(kind="scene", features=probes[1], k=10)
        expected = reference.query(request)
        plan = FaultPlan(
            [
                FaultSpec(
                    "net.frame_corrupt",
                    kind="corruption",
                    probability=0.25,
                )
            ],
            seed=5,
        )
        with inject(plan):
            for _ in range(6):
                result = harness.service.query(request)
                assert keys(result) == keys(expected)
                assert not result.shards_missing


class TestRetryExhaustion:
    def test_dead_shard_degrades_honestly_and_is_never_cached(
        self, make_harness, probes
    ):
        harness = make_harness(2, rpc_retries=2, breaker_threshold=100)
        harness.workers[0].stop()
        request = QueryRequest(kind="shot", features=probes[2], k=10)
        first = harness.service.query(request)
        assert first.shards_missing == (0,)
        assert first.degraded
        # Degraded answers never enter the cache: the repeat is computed
        # fresh so a recovered shard is reflected immediately.
        second = harness.service.query(request)
        assert second.shards_missing == (0,)
        assert not second.cache_hit

    def test_generic_rpc_fault_is_not_retried_and_costs_one_shard_one_query(
        self, make_harness, reference, probes
    ):
        # ``net.rpc`` raises FaultInjectedError, not a transport error:
        # nothing says the call is safe to repeat, so the shard just fails.
        harness = make_harness(2, rpc_retries=3, breaker_threshold=100)
        request = QueryRequest(kind="shot", features=probes[5], k=10)
        before = _retries(harness.service)
        with inject(FaultPlan([FaultSpec("net.rpc", limit=1)])) as plan:
            hurt = harness.service.query(request)
        assert plan.fired("net.rpc") == 1
        assert len(hurt.shards_missing) == 1 and hurt.degraded
        assert _retries(harness.service) == before
        healed = harness.service.query(request)
        assert not healed.shards_missing and not healed.cache_hit
        assert keys(healed) == keys(reference.query(request))

    def test_full_outage_raises_typed_error(self, make_harness, probes):
        harness = make_harness(2, rpc_retries=1, breaker_threshold=100)
        for worker in harness.workers:
            worker.stop()
        before = _retries(harness.service)
        with pytest.raises(NoShardAnsweredError, match="no shard responded"):
            harness.service.query(
                QueryRequest(kind="shot_flat", features=probes[3], k=10)
            )
        # One retry per shard, one execution of the query.
        assert _retries(harness.service) - before == 2

    def test_no_shard_answered_is_a_serving_error(self):
        # Gateways map ServingError to HTTP; the new type must stay
        # inside that contract.
        assert issubclass(NoShardAnsweredError, ServingError)


def test_failure_counters_are_listed_before_the_first_failure(make_harness):
    text = make_harness(2).service.metrics_text()
    lines = text.splitlines()
    for name in ("net_shard_failures_total", "net_degraded_responses_total"):
        assert f"{name} 0" in lines or f"{name} 0.0" in lines, name
