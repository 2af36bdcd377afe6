"""The derive streams through the kernels' scratch and keeps every bit.

A leaf's routing (multi-centre ``_kcenters``, the variance-ranked
discriminating dimensions), its ANN tier (``kmeans_cells``,
``scalar_quantize``) and the scene centroids are derived chunk by chunk,
so no temporary grows with the leaf.  Each is held here to the whole-array
arithmetic it replaced, written out as the oracle, and a saved catalog to
the content addresses it had before: nothing stored may move.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.quantizer import kmeans_cells, scalar_quantize
from repro.core.kernels import SCAN_SCRATCH_ELEMS, column_sums, column_variances
from repro.database.index import (
    _kcenters,
    discriminating_dimensions,
    leaf_routing,
)
from repro.database.scene_search import corpus_scenes
from repro.storage import SQLVideoDatabase, build_synthetic_database, save_database
from tests.helpers import ann_tiers, code_address

WIDTH = 266
#: Rows of a 266-d block one chunk of :func:`column_sums` holds (a scratch
#: row is kept for the running total).
CHUNK = SCAN_SCRATCH_ELEMS // WIDTH - 1


def _population(seed: int, rows: int, width: int = WIDTH) -> np.ndarray:
    """Rows whose columns differ in magnitude by up to 16 orders, some constant."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-8, 9, size=width)
    block = rng.random((rows, width)) * scales - 0.1 * scales
    block[:, rng.integers(0, width, size=3)] = 0.25
    return block


# -- the oracles: the arithmetic before the derive was chunked ---------------


def _old_kcenters(features: np.ndarray, k: int) -> np.ndarray:
    def distances(centers):
        return np.stack([((features - c) ** 2).sum(axis=1) for c in centers], axis=1)

    k = max(1, min(k, features.shape[0]))
    chosen = [0]
    for _ in range(1, k):
        chosen.append(int(np.argmax(np.min(distances(features[chosen]), axis=1))))
    centers = features[chosen].copy()
    assignment = np.argmin(distances(centers), axis=1)
    for c in range(k):
        members = features[assignment == c]
        if members.shape[0]:
            centers[c] = members.mean(axis=0)
    return centers


def _old_kmeans(data: np.ndarray, cells: int, seed: int = 0, iterations: int = 4):
    def assign(centroids):
        cent_sq = (centroids * centroids).sum(axis=1)
        return np.argmin(data_sq[:, None] + cent_sq[None, :] - 2.0 * (data @ centroids.T), axis=1)

    n = data.shape[0]
    cells = max(1, min(cells, n))
    chosen = np.sort(np.random.default_rng(seed).choice(n, size=cells, replace=False))
    centroids = data[chosen].copy()
    data_sq = (data * data).sum(axis=1)
    assignment = assign(centroids)
    for _ in range(iterations):
        for c in range(cells):
            members = data[assignment == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
        assignment = assign(centroids)
    return centroids, assignment.astype(np.int64)


def _old_quantize(data: np.ndarray):
    offset = data.min(axis=0)
    scale = (data.max(axis=0) - offset) / 255.0
    safe = np.where(scale > 0.0, scale, 1.0)
    codes = np.clip(np.rint((data - offset[None, :]) / safe[None, :]), 0, 255)
    return codes.astype(np.uint8), scale, offset


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the chunked reductions --------------------------------------------------


@settings(max_examples=24, deadline=None)
@given(rows=st.sampled_from([1, CHUNK, CHUNK + 1, 3000]), seed=st.integers(0, 2**32 - 1))
def test_chunked_column_variance_is_var_axis_0(rows, seed):
    block = _population(seed, rows)
    assert _same_bits(column_variances(block), block.var(axis=0))


@settings(max_examples=24, deadline=None)
@given(
    rows=st.sampled_from([1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]),
    width=st.sampled_from([2, 10, 64, WIDTH]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chunked_member_sums_are_the_members_mean(rows, width, seed):
    block = _population(seed, rows, width)
    members = np.flatnonzero(np.random.default_rng(seed).random(rows) < 0.6)
    if members.size:
        assert _same_bits(
            column_sums(block, members) / members.size, block[members].mean(axis=0)
        )


def test_a_leaf_sized_block_spans_several_chunks():
    # The cases above would prove nothing if one chunk held the whole leaf.
    assert 3000 > 10 * CHUNK


# -- each derive against its pre-chunking arithmetic ---------------------------


@pytest.fixture(scope="module")
def corpus():
    return build_synthetic_database(videos=120, shots_per_video=12, seed=3)


@pytest.mark.parametrize("seed", [0, 1])
def test_kcenters_and_routing_keep_their_bits(corpus, seed):
    blocks = [leaf.block for leaf in corpus.leaves.values()] + [_population(seed, 3000)]
    for block in blocks:
        for k in (1, 4, 7):
            assert _same_bits(_kcenters(block, k), _old_kcenters(block, k))
        centers, dims = leaf_routing(block)
        assert _same_bits(centers, _old_kcenters(block, 4))
        old_dims = np.sort(np.argsort(block.var(axis=0))[::-1][:64]).astype(np.int64)
        assert _same_bits(dims, old_dims)
        assert _same_bits(discriminating_dimensions(block, 64).astype(np.int64), old_dims)


def test_ann_training_keeps_its_bits(corpus):
    reduced = [leaf.reduced for leaf in corpus.leaves.values()]
    reduced.append(_population(5, 3000, 64))
    for data in reduced:
        assert data.flags.c_contiguous  # what the tier trains on, not a copy
        for cells in (1, 16):
            for new, old in zip(kmeans_cells(data, cells=cells), _old_kmeans(data, cells)):
                assert _same_bits(new, old)
        for new, old in zip(scalar_quantize(data), _old_quantize(data)):
            assert _same_bits(new, old)


def test_scene_centroids_keep_their_bits(corpus):
    leaves = list(corpus.leaves.values())
    table = corpus_scenes(leaves, corpus.videos)
    old = []
    for title, scene_id in zip(table.titles.tolist(), table.scene_ids.tolist()):
        for leaf in leaves:
            rows = np.flatnonzero((leaf.titles == title) & (leaf.scene_ids == scene_id))
            if rows.size:
                old.append(leaf.block[rows].mean(axis=0))
    assert _same_bits(table.centroids, np.stack(old))


# -- what a catalog stores ----------------------------------------------------

#: Content addresses ``(block, reduced, ANN codes)`` per leaf, and of the
#: scene-centroid block, of ``build_synthetic_database(1000, 12, seed=13)``
#: saved by the last commit whose derive allocated leaf-sized temporaries.
#: Since schema v6 the codes are no block: their address is the one ``put``
#: would give the codes of the tier ``resolve_ann`` builds over the opened
#: leaf, so the pin holds that tier to what schema v5 stored.
PINNED_BLOCKS = {
    "general/presentation": (
        "99956ca75361329ec4a7c6d472b9d3434cbb29b754b0dac715e52a61dc35b6b9",
        "adf4a1e7a123da642a4e3c3f252d606b1e98431643bb13145bcec6217e5d13ba",
        "6c2effb60499d4f59a1335660d44fbbf3538ae8891bad8ba3bde6d3ac0d696fd",
    ),
    "general/dialog": (
        "970228941bd06944e0548f02ecb94093d8f8b75e126aa1709193f7fb0d36d64a",
        "0dde6657733bb6ec75966b07ad0f243b6423c85f6f14e1112fe3865fa3ef9be9",
        "e6997a9d620c143727fdbc546026aa42042b06e0ffe7f9aed0584e01d1102886",
    ),
    "general/clinical_operation": (
        "9d22c9dd16d47443b3e2cf25215e7b6b53eaec46c094b8483d32fd732586725b",
        "d0c37c30c82669bac4199a222c08531b00b40840f29abc91fb2ab9fc5d1a3d12",
        "e1005e8e57d73eba43a24b5bc3cba3cd8b7231c3a8b6a1d964a89ac6ec402d52",
    ),
    "general/unknown": (
        "c1debe4dd8d0b685015f233939fd6ae4bf419355bbbaf1b3260a550aea1c9dd4",
        "e8ec1b1998b16b6a365e6e03955b6b87f77f009b271ee69e6bc08bd427fbf59f",
        "cf3c4ca0b75f4edf7850782d0353d39128ebcf8c71dc3119b32d1973842a7130",
    ),
}
PINNED_CENTROIDS = "322d77416c8abf09b07764d168e73340284c6ed637233f80c4065588ca7be6e9"
#: sha256 over every leaf's stored centres and dims and its opened tier's
#: ANN cells, assignment, scale and offset, in leaf order.
PINNED_ROUTING = "f65cfc81f694820087c6b55356f93b6e6722605dee94f1cb9013ee6d8cfef87d"


def test_a_saved_catalog_stores_the_same_bytes(tmp_path):
    save_database(build_synthetic_database(videos=1000, shots_per_video=12, seed=13), tmp_path)
    opened = SQLVideoDatabase.open(tmp_path)
    try:
        catalog, tiers = opened.catalog, ann_tiers(opened)
        blocks, routing = {}, hashlib.sha256()
        for info in catalog.leaf_infos():
            ann = tiers[info.name]
            blocks[info.name] = (info.block.sha, info.reduced_sha, code_address(ann.codes))
            for array in (info.centers, info.dims, ann.centroids, ann.assign, ann.scale, ann.offset):
                routing.update(np.ascontiguousarray(array).tobytes())
        assert blocks == PINNED_BLOCKS
        assert catalog.scene_columns()[0] == PINNED_CENTROIDS
        assert routing.hexdigest() == PINNED_ROUTING
    finally:
        opened.close()
