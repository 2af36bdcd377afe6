"""Shard layout: partitioning, the manifest, global ordinals."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import StorageError
from repro.net.shard import (
    GLOBAL_ORDS_NAME,
    MANIFEST_NAME,
    ShardSpec,
    build_shards,
    load_manifest,
    shard_of,
)
from repro.storage.lazy import SQLVideoDatabase
from repro.storage.synthetic import build_synthetic_database
from tests.helpers import ann_tiers, code_address


@pytest.fixture(scope="module")
def shard_root(tmp_path_factory, net_db):
    root = tmp_path_factory.mktemp("layout")
    spec = build_shards(net_db, root, 3)
    return root, spec


class TestPartitioning:
    def test_shard_of_is_deterministic_and_in_range(self):
        for title in ("video-000", "video-001", "über-video"):
            first = shard_of(title, 5)
            assert first == shard_of(title, 5)
            assert 0 <= first < 5

    def test_every_video_lands_on_exactly_one_shard(self, shard_root, net_db):
        _, spec = shard_root
        placed = [title for info in spec.shards for title in info.titles]
        assert sorted(placed) == sorted(net_db.videos)
        for info in spec.shards:
            assert all(
                shard_of(title, spec.num_shards) == info.shard_id
                for title in info.titles
            )

    def test_counts_add_up(self, shard_root, net_db):
        _, spec = shard_root
        assert sum(i.entry_count for i in spec.shards) == spec.entry_count
        assert sum(i.video_count for i in spec.shards) == spec.video_count
        assert spec.entry_count == len(net_db.flat_index.entries)

    def test_too_many_shards_is_refused(self, tmp_path):
        tiny = build_synthetic_database(
            videos=2, shots_per_video=4, scenes_per_video=2, seed=1
        )
        with pytest.raises(StorageError, match="fewer shards"):
            build_shards(tiny, tmp_path / "t", 64)


class TestManifest:
    def test_round_trips_through_json(self, shard_root):
        _, spec = shard_root
        clone = ShardSpec.from_json(
            json.loads(json.dumps(spec.to_json()))
        )
        assert clone.num_shards == spec.num_shards
        assert clone.shards == spec.shards
        assert [leaf.name for leaf in clone.leaves] == [
            leaf.name for leaf in spec.leaves
        ]
        for mine, theirs in zip(spec.leaves, clone.leaves):
            assert np.array_equal(mine.centers, theirs.centers)
            assert np.array_equal(mine.dims, theirs.dims)

    def test_load_manifest_reads_what_build_saved(self, shard_root):
        root, spec = shard_root
        loaded = load_manifest(root)
        assert loaded.shards == spec.shards
        assert loaded.version == spec.version

    def test_missing_or_garbage_manifest_is_typed(self, tmp_path):
        with pytest.raises(StorageError, match="cannot load"):
            load_manifest(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(StorageError, match="cannot load"):
            load_manifest(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text('{"version": 1}')
        with pytest.raises(StorageError, match="malformed shard manifest"):
            load_manifest(tmp_path)


class TestShardDirectories:
    def test_each_shard_is_a_complete_database(self, shard_root):
        root, spec = shard_root
        for info in spec.shards:
            database = SQLVideoDatabase.open(spec.shard_dir(root, info.shard_id))
            try:
                assert sorted(database.videos) == sorted(info.titles)
                assert len(database.flat_index.entries) == info.entry_count
            finally:
                database.close()

    def test_global_ords_map_back_to_corpus_entries(self, shard_root, net_db):
        root, spec = shard_root
        corpus = net_db.flat_index.entries
        seen: set[int] = set()
        for info in spec.shards:
            ords = np.load(spec.shard_dir(root, info.shard_id) / GLOBAL_ORDS_NAME)
            assert len(ords) == info.entry_count
            database = SQLVideoDatabase.open(spec.shard_dir(root, info.shard_id))
            try:
                for local, entry in enumerate(database.flat_index.entries):
                    source = corpus[int(ords[local])]
                    assert (entry.video_title, entry.shot_id) == (
                        source.video_title,
                        source.shot_id,
                    )
                    assert np.array_equal(entry.features, source.features)
            finally:
                database.close()
            seen.update(int(o) for o in ords)
        assert seen == set(range(len(corpus)))

    def test_manifest_leaves_carry_full_corpus_routing(self, shard_root, net_db):
        _, spec = shard_root
        # Routing metadata in the manifest must describe the *whole*
        # corpus, not any one shard — that is what makes every shard's
        # descent identical to the unsharded one.
        leaf_names = {leaf.name for leaf in spec.leaves}
        assert leaf_names  # corpus has populated leaves
        for leaf in spec.leaves:
            assert leaf.centers.ndim == 2
            assert leaf.dims.ndim == 1


# -- what a 2-shard cut stores ------------------------------------------------

#: Per shard of ``build_shards(build_synthetic_database(1000, 12, seed=13), d, 2)``:
#: the ``(block, reduced, ANN codes)`` content addresses of each leaf (the
#: codes' since schema v6 being the address ``put`` would give the codes of
#: the tier ``resolve_ann`` builds over the opened shard's leaf), the
#: scene-centroid block's address, and a sha256 over what the catalog's
#: readers return — ``videos()``, ``leaf_rows`` of every leaf,
#: ``scene_columns()`` — and the text-search documents, in the
#: ``(doc_id, kind, title, body)`` rows a ``search_docs`` table held until
#: schema v5 (``doc_id`` counts from 1 in derivation order; sorted by kind,
#: title).  The addresses are those of the last commit that derived every
#: shard's reduced rows, signatures and scene table again from its own
#: rows; the reader digest was recorded at the last commit that stored
#: identities as SQL rows, so it holds any later storage layout — and the
#: documents text search now derives — to the same rows.
PINNED_SHARDS = (
    (
        {
            "general/presentation": (
                "aa7c6f27d71f3356b2b98b3206868c489e83a21635626b5839b055ec8e614758",
                "8c929ea529361972739f04574b82224f22f50713def5503af80e99d18e0712d6",
                "51f2f3a690d03598752b077679bbd3ca77cc5c776e2bb40884a59d5b733358ca",
            ),
            "general/dialog": (
                "4561242b86f20c7f17542a9ada345b2ed66c96c39bc4275b83b3585c320334c3",
                "346c70a9926e1963679b94c88d47d2c5b1b756d6d693a4b46192aa1ef7ca4744",
                "b79934a9271064e8b15dd9a5ba0eb7f5521684c6f1b2cf94982ed432331978e4",
            ),
            "general/clinical_operation": (
                "cdc0a14043de9a35fe9bdd86f2a68825a74f91eafaf8c3c250e0ba90950742a3",
                "c485e79cb410462506dbaf69963f7b49b536536e8eba5a98b05ef955e75437e4",
                "4190026161b2be4dee70a32a03710f95a697146965ac3e2e658537a06176cfee",
            ),
            "general/unknown": (
                "a60c20322ddbc9239682dd59f07f34f71ac49d482eee7625ba5e8f0dd0f53452",
                "4f094e7e951b22e955e3d748bd7897b04a62e9a5955a7390924b7a26db5b85b8",
                "f8f567b7088bff84ff397c3641502025f53bdec53d3f513ede6b2c16eaa27bb6",
            ),
        },
        "37fbee42390c94abfcda3f31d754fc2c1085f40c82d171a61750c784ca5e8759",
        "211d0e8bf7393c66efd89af13b05d63a135c1411d8bb60bd01485aa4618b6a87",
    ),
    (
        {
            "general/presentation": (
                "12bff3b42ec840b0b14c546e7804cb9c08daab63f1007a5c3963b1b414490534",
                "c2dfaa7f047822297ca9692791b7d1fd3a0e0ed13b70b044e6ad474376926b4b",
                "c469687a061199db3b37633b27e4caf1ea236ace3f9680219b14c0757f4edce5",
            ),
            "general/dialog": (
                "a6a8b4a61555db088a3fa3095b9374d1a0960e18c45910a1de2113149735c4f4",
                "355e706276a74cc21eb375e20cab4ec328ad0566e784d24f8fc7e50be8038749",
                "14d154338ca457eb14474d8e9850b5235f293827400e0c84fa85a2ff9fe9c46d",
            ),
            "general/clinical_operation": (
                "a0f6ec6f4a6f029f48fe49f5c55e0b8849b13b40459234a760d7513d08b28d1a",
                "696dc4110bb4b5893eb291ce4f2211314930a3efe543078f5b2a0402d3f10981",
                "a43052509b069a4b4e06f8acf15303281478ffae67432bcebf953ea483235935",
            ),
            "general/unknown": (
                "c769a2da16e342443a3013a61a2f06ffe563632e878b882f1fbc355cd03f20b0",
                "3f3ea447f2cc9b34559b66222e158582ebe6accee5021e849591f8d728ba314a",
                "f892a8b61983f849d7aa00401c07a0d807b2dea6c42c513d26bd1f7afcfe0819",
            ),
        },
        "46b6aa408d53bef8c38340fe7854f7936bc9d7c9107ec0c823522b29e9e4793a",
        "c58599523ac5aeeab5c0d4a4f80744398f5b8b770e268e64af619b6646e0e4fa",
    ),
)


def _stored_shard(shard_dir) -> tuple[dict, str, str]:
    rows = hashlib.sha256()

    def add(*values) -> None:
        rows.update(repr(values).encode())

    opened = SQLVideoDatabase.open(shard_dir)
    try:
        catalog, tiers = opened.catalog, ann_tiers(opened)
        for title, record in catalog.videos().items():
            add(title, record.shot_count, record.scene_count,
                record.degraded_stages, sorted(record.events.items()))
        leaves = {}
        for info in catalog.leaf_infos():
            codes = code_address(tiers[info.name].codes)
            leaves[info.name] = (info.block.sha, info.reduced_sha, codes)
            for row in catalog.leaf_rows(info.name):
                add(row.ord, row.leaf, row.row, row.video_title, row.shot_id, row.scene_id)
        scene_sha, columns = catalog.scene_columns()
        for title, scene_id, event, shot_count in zip(*columns):
            add(str(title), int(scene_id), str(event), int(shot_count))
        # The text-search documents, as the stored ``search_docs`` rows
        # were: numbered from 1 in derivation order, sorted by kind, title.
        docs = enumerate(catalog._search_documents(), start=1)
        for doc_id, (kind, title, body) in sorted(docs, key=lambda doc: doc[1][:2]):
            add(doc_id, kind, title, body)
    finally:
        opened.close()
    return leaves, scene_sha, rows.hexdigest()


def test_a_two_shard_cut_stores_the_same_bytes(tmp_path):
    spec = build_shards(build_synthetic_database(1000, 12, seed=13), tmp_path, 2)
    stored = tuple(
        _stored_shard(spec.shard_dir(tmp_path, info.shard_id)) for info in spec.shards
    )
    assert stored == PINNED_SHARDS
