"""A leaf's bucket split across shards: the one-round probe's merge rule.

A shard scans every local row of a leaf whose *local* bucket is empty,
and the coordinator keeps those rows only when the bucket is empty on
every shard.  The shared corpus never splits a bucket (its buckets are
coarse and every one spans every shard), so this module builds its own:
the synthetic corpus plus

* a video whose rows carry a signature no other row has — its bucket
  lives on one shard, and the other shards' local scans must be dropped;
* two videos on different shards with identical rows, and a probe whose
  signature matches nothing — every bucket is empty, every shard's scan
  is kept, and the two rows tie across shards.

Both run at 2 and 3 shards, exact and with ANN at full probe, against
the in-process server: ids, scores, tie order and ``QueryStats``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.index import leaf_signature
from repro.database.query import QueryStats, descend_to_leaves
from repro.errors import ServingError
from repro.net.protocol import pack_array
from repro.net.shard import shard_of
from repro.serving.server import QueryRequest, QueryServer, ServerConfig
from repro.storage.lazy import SQLVideoDatabase
from repro.storage.sqlcatalog import save_database
from repro.storage.synthetic import build_synthetic_database
from repro.types import EventKind

from .conftest import NetHarness
from .test_equivalence import keys

NPROBE_ALL = 1_000_000
SHARD_COUNTS = (2, 3)


def _row(rng: np.random.Generator, masses: dict[int, float]) -> np.ndarray:
    """A 266-d row whose histogram puts ``masses[q]`` in quarter ``q``."""
    histogram = np.concatenate(
        [rng.random(64) * 0.001 + masses.get(q, 0.0) / 64 for q in range(4)]
    )
    histogram /= histogram.sum()
    return np.concatenate([histogram, rng.random(10) * 0.3])


def _tie_titles() -> tuple[str, str]:
    """Two titles that land on different shards at every tested count."""
    names = [f"tie-{i}" for i in range(64)]
    for first in names:
        for second in names:
            if all(shard_of(first, n) != shard_of(second, n) for n in SHARD_COUNTS):
                return first, second
    raise AssertionError("no title pair splits across every shard count")


@pytest.fixture(scope="module")
def corpus():
    """The synthetic corpus plus the split-bucket and tie videos, and the two probes."""
    rng = np.random.default_rng(3)
    database = build_synthetic_database(videos=24, shots_per_video=6, scenes_per_video=3, seed=5)
    # Quarters 0 and 1 both above the signature's 0.1 mass floor: (0, 1)
    # is a signature no synthetic row has (theirs are (q, -1)).
    lone, other = _row(rng, {0: 0.55, 1: 0.4}), _row(rng, {0: 0.6, 1: 0.35})
    database.register_entries("lone-bucket", [(0, EventKind.PRESENTATION, [lone, other, lone])])
    # Quarter 2 just under the floor: (0, -1), a populated bucket.  The
    # probe lifts it over the floor: (0, 2) matches no row anywhere.
    tied = _row(rng, {0: 0.9, 2: 0.05})
    for title in _tie_titles():
        database.register_entries(title, [(0, EventKind.PRESENTATION, [tied])])
    unseen = tied.copy()
    unseen[128:192] *= 2.0
    unseen[:256] /= unseen[:256].sum()
    assert leaf_signature(lone) == (0, 1) and leaf_signature(unseen) == (0, 2)
    return database, {"split": lone, "empty": unseen}


@pytest.fixture(scope="module")
def reference(corpus, tmp_path_factory):
    directory = tmp_path_factory.mktemp("split-single")
    save_database(corpus[0], directory)
    database = SQLVideoDatabase.open(directory)
    server = QueryServer(database=database, config=ServerConfig()).start()
    yield server
    server.stop()
    database.close()


@pytest.fixture(scope="module", params=SHARD_COUNTS)
def harness(request, corpus, tmp_path_factory):
    harness = NetHarness(corpus[0], tmp_path_factory.mktemp("split-shards"), request.param)
    yield harness
    harness.close()


def _local_buckets(harness, probe) -> dict[str, list[int]]:
    """Per descended leaf, each shard's local bucket size."""
    leaves = descend_to_leaves(harness.service._root, probe, QueryStats())  # noqa: SLF001
    return {
        leaf.name: [
            int(worker._state.leaves[leaf.name].leaf.bucket_rows(probe).size)  # noqa: SLF001
            if leaf.name in worker._state.leaves  # noqa: SLF001
            else 0
            for worker in harness.workers
        ]
        for leaf in leaves
    }


def test_the_probes_build_the_cases(harness, corpus):
    """Preconditions, so neither case can pass vacuously."""
    _database, probes = corpus
    split = _local_buckets(harness, probes["split"]).values()
    assert any(any(sizes) and not all(sizes) for sizes in split), split
    empty = _local_buckets(harness, probes["empty"]).values()
    assert not any(any(sizes) for sizes in empty), empty


@pytest.mark.parametrize("case", ["split", "empty"])
@pytest.mark.parametrize("nprobe", [None, NPROBE_ALL])
def test_merge_matches_the_in_process_server(harness, reference, corpus, case, nprobe):
    probe = corpus[1][case]
    for k in (1, 2, 10, 1000):
        request = QueryRequest(kind="shot", features=probe, k=k, nprobe=nprobe)
        mine, theirs = harness.service.query(request), reference.query(request)
        assert keys(mine) == keys(theirs)
        assert mine.comparisons == theirs.comparisons
        assert mine.approx_comparisons == theirs.approx_comparisons
        assert mine.reranked == theirs.reranked
        assert not mine.degraded and not mine.shards_missing
    # The top is a tie: the repeated row on one shard, or the two
    # identical videos on different shards, first registered first.
    top = [(hit.entry.video_title, hit.score) for hit in mine.hits[:2]]
    tied = ["lone-bucket"] * 2 if case == "split" else list(_tie_titles())
    assert [title for title, _score in top] == tied and top[0][1] == top[1][1], top


def test_a_probe_without_k_is_a_typed_error(harness, corpus):
    endpoint = harness.endpoints[0]
    request = {"op": "probe", "features": pack_array(corpus[1]["split"]), "leaves": []}
    with pytest.raises(ServingError, match="shard error: probe needs k"):
        endpoint.call(request)
    assert endpoint.call(dict(request, k=3))["ok"] is True
