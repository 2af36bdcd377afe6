"""The ANN tier under sharding: per-shard quantizers, exact merges.

Every shard trains its own coarse quantizer over its own rows, yet
``nprobe`` covering every cell with an unbounded re-rank tail must
reproduce the unsharded *exact* answer bit for bit at any shard count —
candidate scores are kernel-exact, the true bucket sizes drive the
global fallback decision, and the merge contract is unchanged.
"""

from __future__ import annotations

import pytest

from repro.database.access import User
from repro.errors import ServingError
from repro.serving.server import QueryRequest, ServerConfig

from .test_equivalence import keys

NPROBE_ALL = 1_000_000

ANN_SHARD_COUNTS = (1, 3)


@pytest.fixture(scope="module", params=ANN_SHARD_COUNTS)
def ann_harness(request, make_harness):
    return make_harness(request.param)


class TestBitIdenticalAtFullProbe:
    def test_nprobe_all_matches_exact_reference(
        self, ann_harness, reference, probes
    ):
        for probe in probes:
            exact = reference.query(QueryRequest(kind="shot", features=probe))
            ann = ann_harness.service.query(
                QueryRequest(kind="shot", features=probe, nprobe=NPROBE_ALL)
            )
            assert keys(ann) == keys(exact)
            assert ann.comparisons == exact.comparisons
            # No cell pruned and no re-rank cap: the uint8 scan never
            # ran, and every merged candidate went through the exact tail.
            assert ann.approx_comparisons == 0
            assert ann.reranked > 0
            assert not ann.degraded and not ann.shards_missing

    def test_k_sweep_matches(self, ann_harness, reference, probes):
        for k in (1, 3, 1000):
            exact = reference.query(
                QueryRequest(kind="shot", features=probes[0], k=k)
            )
            ann = ann_harness.service.query(
                QueryRequest(
                    kind="shot", features=probes[0], k=k, nprobe=NPROBE_ALL
                )
            )
            assert keys(ann) == keys(exact)

    def test_scoped_users_match(self, ann_harness, reference, probes):
        for user in (
            User(name="public", clearance=0),
            User(name="surgeon", clearance=3),
        ):
            for probe in probes[:3]:
                exact = reference.query(
                    QueryRequest(kind="shot", features=probe, user=user)
                )
                ann = ann_harness.service.query(
                    QueryRequest(
                        kind="shot",
                        features=probe,
                        user=user,
                        nprobe=NPROBE_ALL,
                    )
                )
                assert keys(ann) == keys(exact)
                assert ann.comparisons == exact.comparisons


class TestPrunedSharded:
    def test_pruning_reports_approx_work(self, ann_harness, probes):
        # An unseen probe misses every bucket, so the global fallback
        # scans all rows per leaf — a finite re-rank tail then forces
        # the quantized scan to run on every shard.
        unseen = probes[-1]
        result = ann_harness.service.query(
            QueryRequest(kind="shot", features=unseen, nprobe=8, rerank_k=2)
        )
        assert result.hits
        assert result.approx_comparisons > 0
        assert result.reranked > 0
        assert not result.degraded

    def test_pruned_query_is_deterministic(self, ann_harness, probes):
        request = QueryRequest(
            kind="shot", features=probes[1], nprobe=2, rerank_k=4
        )
        first = ann_harness.service.query(request)
        ann_harness.service.cache.clear()
        second = ann_harness.service.query(request)
        assert keys(first) == keys(second)
        assert first.approx_comparisons == second.approx_comparisons


class TestCoordinatorKnobs:
    def test_config_default_folds_and_shares_cache(self, make_harness, probes):
        harness = make_harness(2, ann_nprobe=4, ann_rerank_k=8)
        implicit = harness.service.query(
            QueryRequest(kind="shot", features=probes[2])
        )
        assert implicit.reranked > 0  # the configured default applied
        explicit = harness.service.query(
            QueryRequest(kind="shot", features=probes[2], nprobe=4, rerank_k=8)
        )
        assert explicit.cache_hit  # same resolved identity
        assert keys(explicit) == keys(implicit)

    def test_validation_matches_single_process(self, ann_harness, probes):
        with pytest.raises(ServingError, match="nprobe"):
            ann_harness.service.query(
                QueryRequest(kind="shot", features=probes[0], nprobe=0)
            )
        with pytest.raises(ServingError, match="shot"):
            ann_harness.service.query(
                QueryRequest(kind="scene", features=probes[0], nprobe=2)
            )
        with pytest.raises(ServingError, match="ann_nprobe"):
            ServerConfig(ann_nprobe=0)

    def test_exact_and_ann_have_distinct_cache_identities(
        self, ann_harness, probes
    ):
        ann_harness.service.cache.clear()
        exact = ann_harness.service.query(
            QueryRequest(kind="shot", features=probes[3])
        )
        ann = ann_harness.service.query(
            QueryRequest(kind="shot", features=probes[3], nprobe=NPROBE_ALL)
        )
        # The second query computed fresh: the knobs are part of the key.
        assert not ann.cache_hit
        assert keys(ann) == keys(exact)
