"""Answer checks: every workload proves its answers before its numbers count.

The measuring process records what the server under test answered to
the seeded check ops; this module (run by the set-up process, which
holds the corpus) recomputes each answer independently and compares:

* ``shot_flat`` against a scalar top-k built from ``feature_similarity``
  (same order, scores within 1e-9);
* ``shot`` / ``scene`` / ``event`` against the in-RAM ``VideoDatabase``
  (ids and scores bit-identical — JSON floats round-trip exactly);
* the approximate tier by ``recall_at_10`` against the exact top 10;
* the mined corpus against a frozen (shots, scenes, events) fingerprint.
"""

from __future__ import annotations

import functools

import numpy as np

from benchmarks.e2e import inputs, spec

FLAT_TOLERANCE = 1e-9

#: Render seed 0: title -> (shots, scenes, event per scene in scene order); 209 shots in all.
MINED_FINGERPRINT = {
    "face_repair": (52, 6, ["presentation", "dialog", "presentation",
                            "clinical_operation", "presentation", "clinical_operation"]),
    "nuclear_medicine": (33, 5, ["presentation", "unknown", "unknown", "unknown", "presentation"]),
    "laparoscopy": (39, 4, ["presentation", "dialog", "dialog", "clinical_operation"]),
    "skin_examination": (43, 7, ["dialog", "clinical_operation", "presentation",
                                 "clinical_operation", "unknown", "dialog", "unknown"]),
    "laser_eye_surgery": (42, 7, ["presentation", "dialog", "clinical_operation", "unknown",
                                  "presentation", "clinical_operation", "clinical_operation"]),
}


def hit_rows(kind: str, hits) -> list[list]:
    """Kind-specific identity of a result's hits, from library objects."""
    if kind in ("shot", "shot_flat"):
        return [[h.entry.video_title, h.entry.shot_id, h.score] for h in hits]
    if kind == "scene":
        return [[h.entry.video_title, h.entry.scene_id, h.score] for h in hits]
    return [[h.video_title, h.scene_id, h.event.value] for h in hits]


def hit_rows_json(kind: str, hits: list[dict]) -> list[list]:
    """The same identity from the gateway's JSON."""
    if kind in ("shot", "shot_flat"):
        return [[h["video_title"], h["shot_id"], h["score"]] for h in hits]
    if kind == "scene":
        return [[h["video_title"], h["scene_id"], h["score"]] for h in hits]
    return [[h["video_title"], h["scene_id"], h["event"]] for h in hits]


def scalar_flat_topk(entries, probe: np.ndarray, k: int) -> list[list]:
    """Eq. (24) the slow way: one ``feature_similarity`` per stored shot."""
    from repro.database.index import feature_similarity

    scores = [feature_similarity(probe, entry.features) for entry in entries]
    order = sorted(range(len(entries)), key=lambda i: -scores[i])[:k]  # stable: ties keep insertion order
    return [[entries[i].video_title, entries[i].shot_id, scores[i]] for i in order]


class Oracle:
    """Independent answers over one in-RAM corpus."""

    def __init__(self, database) -> None:
        self._database = database
        self._titles = sorted(database.videos)

    @functools.cached_property
    def _snapshot(self):
        """Scene and event answers need the derived scene index; shot-only checks never build it."""
        from repro.serving import build_snapshot

        return build_snapshot(self._database, 1)

    def answer(self, kind: str, probe: np.ndarray, event_arg: int) -> list[list]:
        from repro.types import EventKind

        if kind == "shot":
            return hit_rows(kind, self._database.search(probe, k=spec.K).hits)
        if kind == "shot_flat":
            return scalar_flat_topk(self._database.flat_index.entries, probe, spec.K)
        if kind == "scene":
            return hit_rows(kind, self._snapshot.search_scenes(probe, k=spec.K))
        event, title = inputs.event_pair(event_arg, self._titles)
        return hit_rows(kind, self._snapshot.query_events(EventKind(event), video_title=title))


def same_answer(kind: str, got: list[list], want: list[list]) -> bool:
    if kind != "shot_flat":
        return got == want
    if len(got) != len(want):
        return False
    return all(
        g[:2] == w[:2] and abs(g[2] - w[2]) <= FLAT_TOLERANCE for g, w in zip(got, want)
    )


def recall_at_k(got: list[list], want: list[list]) -> float:
    want_ids = {tuple(row[:2]) for row in want}
    if not want_ids:
        return 1.0
    return len(want_ids & {tuple(row[:2]) for row in got}) / len(want_ids)


def mined_fingerprint(database) -> dict[str, tuple]:
    return {
        title: (record.shot_count, record.scene_count,
                [record.events[scene] for scene in sorted(record.events)])
        for title, record in database.videos.items()
    }
