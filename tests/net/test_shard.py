"""Shard views: the leaf map, the manifest, and who a query asks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.database.query import QueryStats, descend_to_leaves
from repro.errors import ServingError, StorageError
from repro.net.protocol import pack_array
from repro.net.shard import MANIFEST_NAME, build_shards, load_manifest, pack_leaves, worker_view
from repro.net.worker import _ShardState
from repro.serving.server import QueryRequest, QueryServer
from repro.storage.lazy import SQLVideoDatabase
from repro.storage.sqlcatalog import save_database
from repro.storage.synthetic import build_synthetic_database
from repro.types import EventKind

from .conftest import NetHarness
from .test_equivalence import keys


@pytest.fixture(scope="module")
def shard_root(tmp_path_factory, net_db):
    root = tmp_path_factory.mktemp("layout")
    spec = build_shards(net_db, root, 3)
    return root, spec


class TestPartitioning:
    def test_four_leaves_pack_over_one_two_and_three_shards(self):
        # Largest first, ties by position, onto the lightest shard, ties by id.
        assert pack_leaves([3000] * 4, 1) == [0, 0, 0, 0]
        assert pack_leaves([3000] * 4, 2) == [0, 1, 0, 1]
        assert pack_leaves([3000] * 4, 3) == [0, 1, 2, 0]  # 6,000 / 3,000 / 3,000
        assert pack_leaves([10, 40, 20, 30], 1) == [0, 0, 0, 0]
        assert pack_leaves([10, 40, 20, 30], 2) == [0, 0, 1, 1]  # 50 / 50
        assert pack_leaves([10, 40, 20, 30], 3) == [2, 0, 2, 1]  # 40 / 30 / 30

    def test_counts_add_up(self, net_db):
        counts = [len(leaf) for leaf in net_db.leaves.values()]
        for num_shards in (1, 2, 3):
            owners = pack_leaves(counts, num_shards)
            assert sorted(set(owners)) == list(range(num_shards))  # none idle
            loads = [
                sum(count for count, owner in zip(counts, owners) if owner == shard)
                for shard in range(num_shards)
            ]
            assert sum(loads) == net_db.shot_count

    def test_too_many_shards_is_refused(self, tmp_path):
        tiny = build_synthetic_database(
            videos=2, shots_per_video=4, scenes_per_video=2, seed=1
        )
        with pytest.raises(StorageError, match="fewer shards"):
            build_shards(tiny, tmp_path / "t", 64)
        assert not (tmp_path / "t").exists()  # refused before anything is written


class TestManifest:
    def test_load_manifest_reads_what_build_saved(self, shard_root):
        root, spec = shard_root
        loaded = load_manifest(root)
        assert loaded == spec
        assert (loaded.num_shards, loaded.catalog) == (3, root)

    def test_missing_or_garbage_manifest_is_typed(self, tmp_path):
        with pytest.raises(StorageError, match="cannot load"):
            load_manifest(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StorageError, match="cannot load"):
            load_manifest(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text('{"version": 2}')
        with pytest.raises(StorageError, match="malformed shard manifest"):
            load_manifest(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text('{"version": 1, "num_shards": 2}')
        with pytest.raises(StorageError, match="publish the catalog there again"):
            load_manifest(tmp_path)

    def test_shard_inspect_prints_the_map_at_the_manifests_count(self, shard_root, net_db, capsys):
        root, _spec = shard_root
        assert main(["shard", "inspect", "--dir", str(root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"3 shards over {root}: {net_db.shot_count} shots in 4 leaves")
        assert [line.split(":")[0].strip() for line in lines[1:]] == ["shard 0", "shard 1", "shard 2"]

    def test_build_writes_one_catalog_and_names_each_worker(self, shard_root):
        root, spec = shard_root
        names = sorted(path.name for path in root.iterdir())
        assert names == ["catalog.sqlite", "features", MANIFEST_NAME] + [
            f"shard-{shard:04d}" for shard in range(3)
        ]
        for shard in range(3):
            assert not any(spec.shard_dir(root, shard).iterdir())


class TestShardDirectories:
    def test_each_shard_is_a_complete_database(self, shard_root, net_db):
        """A worker started on a shard directory opens the whole catalog
        and serves the leaves the pack gives its shard."""
        root, spec = shard_root
        owners = pack_leaves([len(leaf) for leaf in net_db.leaves.values()], 3)
        for shard_id in range(3):
            state = _ShardState(*worker_view(spec.shard_dir(root, shard_id), None, None))
            try:
                assert sorted(state.database.videos) == sorted(net_db.videos)
                assert state.database.shot_count == net_db.shot_count
                assert list(state.leaves) == [
                    name for name, owner in zip(net_db.leaves, owners) if owner == shard_id
                ]
            finally:
                state.database.close()

    def test_global_ords_map_back_to_corpus_entries(self, shard_root, net_db):
        """The ordinals a worker keys its answers by are the corpus's own."""
        root, spec = shard_root
        corpus = net_db.flat_index.entries
        seen: list[int] = []
        for shard_id in range(3):
            state = _ShardState(root, shard_id, 3)
            try:
                for node in state.leaves.values():
                    leaf = node.leaf
                    for row, ordinal in enumerate(leaf.ordinals.tolist()):
                        source = corpus[ordinal]
                        assert (leaf.titles[row], int(leaf.shot_ids[row])) == source.key
                        assert np.array_equal(leaf.block[row], source.features)
                    seen += leaf.ordinals.tolist()
            finally:
                state.database.close()
        assert sorted(seen) == list(range(len(corpus)))


@pytest.mark.parametrize("num_shards", (1, 2, 3))
def test_a_shot_query_asks_the_owners_of_its_leaves_only(make_harness, net_db, probes, num_shards):
    harness = make_harness(num_shards)
    owners = dict(
        zip(net_db.leaves, pack_leaves([len(leaf) for leaf in net_db.leaves.values()], num_shards))
    )
    fewer = 0
    for probe in probes:
        leaves = descend_to_leaves(net_db.index_root, probe, QueryStats())
        expected = sorted({owners[leaf.name] for leaf in leaves})
        result = harness.service.query(QueryRequest(kind="shot", features=probe, k=10, explain=True))
        asked = [op["shard"] for op in result.explain["shards"]]
        assert asked == expected and not result.degraded
        fewer += len(asked) < num_shards
    if num_shards == 3:  # a beam-2 descent reaches two leaves: two of three shards at most
        assert fewer == len(probes)


def test_a_leaf_another_shard_serves_is_answered_as_its_owner_would(make_harness, net_db, probes):
    """A probe routed by another generation's leaf map is answered from the
    catalog the worker opened; a leaf the catalog lacks is a typed error."""
    harness = make_harness(2)
    foreign = next(name for name in net_db.leaves if name not in harness.workers[0]._state.leaves)
    request = {"op": "probe", "features": pack_array(probes[0]), "leaves": [foreign], "k": 3}
    answered = harness.endpoints[0].call(request)["leaves"]
    assert answered == harness.endpoints[1].call(request)["leaves"] and answered[0]["keys"]
    with pytest.raises(ServingError, match="has no leaf"):
        harness.endpoints[0].call({**request, "leaves": ["general/nowhere"]})


@pytest.fixture(scope="module")
def tied_corpus():
    """The synthetic corpus plus one row filed under every leaf, so equal
    scores sit on every shard."""
    database = build_synthetic_database(videos=24, shots_per_video=6, scenes_per_video=3, seed=5)
    row = database.flat_index.entries_at([7])[0].features
    for number, event in enumerate(EventKind):
        database.register_entries(f"tie-{number}", [(0, event, [row])])
    return database, row


@pytest.mark.parametrize("num_shards", (2, 3))
def test_ties_across_shards_break_as_in_process(tied_corpus, tmp_path, num_shards):
    database, row = tied_corpus
    save_database(database, tmp_path / "single")
    single = SQLVideoDatabase.open(tmp_path / "single")
    reference = QueryServer(single).start()
    harness = NetHarness(database, tmp_path / "shards", num_shards)
    try:
        for kind in ("shot", "shot_flat"):
            for k in (1, 3, 10, 1000):
                request = QueryRequest(kind=kind, features=row, k=k)
                mine, theirs = harness.service.query(request), reference.query(request)
                assert keys(mine) == keys(theirs) and mine.comparisons == theirs.comparisons
        flat = harness.service.query(QueryRequest(kind="shot_flat", features=row, k=10))
        tied = [hit.entry.video_title for hit in flat.hits if hit.score == flat.hits[0].score]
        assert [title for title in tied if title.startswith("tie-")] == [f"tie-{n}" for n in range(4)]
    finally:
        harness.close()
        reference.stop()
        single.close()
