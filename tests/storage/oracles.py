"""Oracles for the storage tests: the arithmetic the production code replaced.

:func:`oracle_synthetic_database` is the synthetic corpus builder as it
was written before it drew a video's uniforms in one call: one
``rng.random`` call per descriptor part per shot, each shot's feature
vector filed as its own array.  ``repro.storage.synthetic`` must build
the same database from the same arguments, byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.database.catalog import VideoDatabase
from repro.types import EventKind

_HIST_DIMS = 256
_TEXTURE_DIMS = 10


def oracle_features(rng: np.random.Generator, concentration: int) -> np.ndarray:
    """One 266-d shot: a histogram whose mass sits in quadrant
    ``concentration % 4``, normalised to unit mass, plus a texture tail."""
    histogram = rng.random(_HIST_DIMS) * 0.2
    quarter = _HIST_DIMS // 4
    start = (concentration % 4) * quarter
    histogram[start : start + quarter] += rng.random(quarter) + 0.5
    histogram /= histogram.sum()
    texture = rng.random(_TEXTURE_DIMS) * 0.3
    return np.concatenate([histogram, texture])


def oracle_synthetic_database(
    videos: int = 100,
    shots_per_video: int = 12,
    scenes_per_video: int = 3,
    seed: int = 0,
) -> VideoDatabase:
    """``build_synthetic_database`` drawn shot by shot and filed as lists of rows."""
    rng = np.random.default_rng(seed)
    kinds = EventKind.known_kinds() + (EventKind.UNKNOWN,)
    database = VideoDatabase()
    for v in range(videos):
        scenes = []
        per_scene = max(1, shots_per_video // scenes_per_video)
        shots_left = shots_per_video
        for s in range(scenes_per_video):
            count = per_scene if s < scenes_per_video - 1 else shots_left
            shots_left -= count
            kind = kinds[(v + s) % len(kinds)]
            scenes.append(
                (s, kind, [oracle_features(rng, v + s + shot) for shot in range(count)])
            )
        database.register_entries(f"synthetic_{v:05d}", scenes)
    return database
