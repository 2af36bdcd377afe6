"""Flat linear-scan retrieval: the Eq. (24) baseline.

With no indexing structure, every query compares against every shot in
the database and ranks all of them:

    T_e = N_T * T_m + O(N_T log N_T)
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kernels import top_k
from repro.database.index import ShotEntry, feature_similarity_batch
from repro.database.query import QueryResult, QueryStats, RankedShot


class FlatIndex:
    """A plain list of shot entries, scanned in full per query.

    The scan itself is one blocked kernel call over a cached stacked
    feature matrix (rebuilt lazily after inserts); every entry still
    counts as one logical comparison, exactly the Eq. (24) cost, but
    only the ``k`` winners become :class:`RankedShot` objects.
    """

    def __init__(self, entries: list[ShotEntry] | None = None) -> None:
        self._entries: list[ShotEntry] = list(entries or [])
        self._matrix: np.ndarray | None = None

    def insert(self, entry: ShotEntry) -> None:
        """Append one shot."""
        self._entries.append(entry)
        self._matrix = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[ShotEntry]:
        """All indexed shots."""
        return list(self._entries)

    def feature_matrix(self) -> np.ndarray:
        """Cached ``(N, 266)`` stack of every entry's features."""
        if self._matrix is None:
            self._matrix = (
                np.stack([entry.features for entry in self._entries])
                if self._entries
                else np.empty((0, 0))
            )
        return self._matrix

    def frozen(self) -> "FlatIndex":
        """A private view for a snapshot: own entry list, shared matrix.

        An insert replaces the stacked matrix and never writes into it,
        so the copy can share this index's (warmed) matrix instead of
        stacking a second one.
        """
        copy = FlatIndex(self._entries)
        copy._matrix = self.feature_matrix()
        return copy

    def scores(self, features: np.ndarray) -> np.ndarray:
        """Eq. (1) against every entry, in flat-ordinal order."""
        return feature_similarity_batch(features, self.feature_matrix())

    def entries_at(self, ordinals: list[int]) -> list[ShotEntry]:
        """The entries at the given flat ordinals."""
        return [self._entries[ordinal] for ordinal in ordinals]

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
