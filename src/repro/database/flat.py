"""Flat linear-scan retrieval: the Eq. (24) baseline.

With no indexing structure, every query compares against every shot in
the database and ranks all of them:

    T_e = N_T * T_m + O(N_T log N_T)
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.core.kernels import top_k
from repro.database.index import LeafHashIndex, ShotEntry, feature_similarity_batch
from repro.database.query import QueryResult, QueryStats, RankedShot


class FlatIndex:
    """Every shot of the corpus, scanned in full per query.

    A view over the corpus's leaves, not a second copy of it: the scan
    walks the leaf blocks — one blocked kernel call per leaf, RAM array
    or mmap alike — and scatters each block's scores into one vector by
    flat ordinal; over an opened store the kernel gives the pages back
    as it moves on, so a scan holds a 2 MiB run of the 266-d rows
    resident, not the corpus.  Every row still counts as one logical
    comparison, exactly the Eq. (24) cost, but only the ``k`` winners
    become :class:`RankedShot` objects.  ``leaves`` must carry ordinals
    that together cover ``range(total)``.
    """

    def __init__(self, leaves: Sequence[LeafHashIndex] = ()) -> None:
        self._leaves = tuple(leaves)
        self._total = sum(len(leaf) for leaf in self._leaves)

    def __len__(self) -> int:
        return self._total

    @property
    def entries(self) -> list[ShotEntry]:
        """Every shot in flat-ordinal order (materialises one object each)."""
        flat: list[ShotEntry | None] = [None] * self._total
        for leaf in self._leaves:
            for ordinal, entry in zip(leaf.ordinals.tolist(), leaf.entries):
                flat[ordinal] = entry
        return flat

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Eq. (1) against every row, in flat-ordinal order."""
        scores = np.empty(self._total, dtype=np.float64)
        for leaf in self._leaves:
            scores[leaf.ordinals] = feature_similarity_batch(features, leaf.block)
        return scores

    def entries_at(self, ordinals: Sequence[int]) -> list[ShotEntry]:
        """The entries at the given flat ordinals.

        Leaves are consulted in corpus order and only until every
        ordinal is found, so a pick from the head of the corpus loads
        one leaf of an opened store, not all of them.
        """
        wanted = np.asarray(ordinals, dtype=np.int64)
        found: dict[int, ShotEntry] = {}
        missing = len(set(wanted.tolist()))
        for leaf in self._leaves:
            if not missing:
                break
            for row in np.flatnonzero(np.isin(leaf.ordinals, wanted)).tolist():
                found[int(leaf.ordinals[row])] = leaf.entry(row)
                missing -= 1
        return [found[ordinal] for ordinal in wanted.tolist()]

    def sample(self, n: int) -> list[np.ndarray]:
        """Feature vectors of ``n`` evenly spaced rows (load-generator pools)."""
        picks = np.linspace(0, self._total - 1, min(n, self._total))
        return [
            entry.features
            for entry in self.entries_at(sorted({int(pick) for pick in picks}))
        ]

    def rank(self, features: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
        """``(top-k flat ordinals best first, every entry's score)``."""
        scores = self.scores(features)
        return top_k(scores, k).tolist(), scores

    def search(self, features: np.ndarray, k: int = 10) -> QueryResult:
        """Compare against everything, rank everything (Eq. 24)."""
        start = time.perf_counter()
        stats = QueryStats(visited_path=["flat_scan"])
        top, scores = self.rank(features, k)
        hits = [
            RankedShot(entry=entry, score=float(scores[ordinal]))
            for ordinal, entry in zip(top, self.entries_at(top))
        ]
        stats.comparisons = stats.ranked = scores.size
        stats.elapsed_seconds = time.perf_counter() - start
        return QueryResult(hits=hits, stats=stats)
