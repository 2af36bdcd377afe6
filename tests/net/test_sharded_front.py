"""The sharded front is a QueryServer whose leaf work runs on the shards.

One generation model for both fronts: the coordinator's snapshot is a
:class:`~repro.serving.snapshot.SnapshotManager` generation, so a failed
rebuild, ``describe()`` and the cache's own lookup count read as they do
in process, and the coordinator trains no ANN tier of its own.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import StorageError
from repro.net import coordinator
from repro.obs.registry import get_registry
from repro.serving.server import QueryRequest, QueryServer
from repro.storage.lazy import SQLVideoDatabase

from .test_equivalence import keys
from .test_lifecycle_contract import make_front  # noqa: F401  (fixture)


class _Unopenable(SQLVideoDatabase):
    @classmethod
    def open(cls, db_dir):
        raise StorageError(f"cannot open {db_dir}")


def test_the_sharded_front_is_a_query_server(make_harness):
    assert isinstance(make_harness(2).service, QueryServer)


def test_a_failed_coordinator_reopen_serves_the_last_generation_degraded(
    make_harness, reference, monkeypatch
):
    front = make_harness(2).service
    request = QueryRequest(kind="shot", features=reference.sample_features(1)[0], k=5)
    failures = get_registry().counter(
        "serving_rebuild_failures_total", "Snapshot rebuild attempts that failed."
    )
    assert front.refresh().generation == 2
    baseline = front.query(request)
    before = failures.value
    with monkeypatch.context() as patch:
        # The coordinator's opener fails; the workers' reload succeeds.
        patch.setattr(coordinator, "SQLVideoDatabase", _Unopenable)
        with pytest.raises(StorageError, match="cannot open"):
            front.refresh()
    stale = front.query(request)
    assert stale.generation == 2 and stale.cache_hit and stale.degraded
    assert keys(stale) == keys(baseline)
    report = front.health_report()
    checks = {check.name: check for check in report.checks}
    assert report.status == "degraded"
    assert not checks["rebuild"].ok and "cannot open" in checks["rebuild"].detail
    assert all("generation 3" in checks[f"shard-{sid}"].detail for sid in (0, 1))
    assert failures.value - before == 1

    assert front.refresh().generation == 3
    healed = front.query(request)
    assert healed.generation == 3 and not healed.degraded
    assert keys(healed) == keys(baseline)
    assert front.health_report().status == "ok"


def test_the_sharded_describe_names_the_generation_and_the_cache(make_harness, reference):
    front = make_harness(2).service
    request = QueryRequest(kind="shot", features=reference.sample_features(1)[0], k=3)
    front.query(request)
    front.query(request)
    text = front.describe()
    assert "generation 1" in text
    assert "cache: 1/" in text and "hit rate 50.0%" in text
    front.refresh()
    assert "generation 2" in front.describe()


def test_a_sharded_front_with_ann_defaults_trains_no_tier_here(make_harness, reference):
    front = make_harness(2, ann_nprobe=2).service
    probe = reference.sample_features(1)[0]
    answer = front.query(QueryRequest(kind="shot", features=probe, k=5))
    assert answer.hits and answer.reranked > 0  # the workers' tiers ran
    front.refresh()
    leaves = front.manager.current().leaves.values()
    assert leaves and all(leaf.ann is None for leaf in leaves)


def test_an_explain_query_is_no_cache_lookup(make_front, probes):
    front, _ = make_front()
    plain = QueryRequest(kind="shot", features=probes[1], k=4)
    for request in [plain] * 2 + [replace(plain, explain=True)] * 3:
        front.query(request)
    stats = front.cache.stats()
    assert (stats.hits, stats.misses) == (1, 1)
    assert front.describe().count("hit rate") == 1
