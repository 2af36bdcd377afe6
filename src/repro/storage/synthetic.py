"""Synthetic corpora for the storage tests and the layered benchmark.

The real miner takes seconds per video; exercising a thousand-video
catalog needs registrations that cost microseconds instead.
:func:`build_synthetic_database` fabricates plausible feature vectors —
non-negative 256-bin histograms normalised to unit mass plus a small
10-d texture tail, the exact shape
:func:`~repro.database.index.combine_features` produces — and registers
them through :meth:`~repro.database.catalog.VideoDatabase.register_entries`,
so every downstream structure (leaf buckets, routing centres, flat
ordinals, scene centroids) is built by the production code paths.

Deterministic per seed: the same arguments always produce the same
database, and therefore the same stored catalog bytes.
"""

from __future__ import annotations

import numpy as np

from repro.database.catalog import VideoDatabase
from repro.types import EventKind

#: Feature layout must match combine_features (256 histogram + 10 texture).
_HIST_DIMS = 256
_TEXTURE_DIMS = 10


def synthetic_features(
    rng: np.random.Generator, concentration: int
) -> np.ndarray:
    """One plausible 266-d combined feature vector.

    ``concentration`` biases which coarse histogram quadrant carries the
    mass, so leaf hash signatures spread across buckets the way real
    footage does instead of collapsing into one.
    """
    histogram = rng.random(_HIST_DIMS) * 0.2
    quarter = _HIST_DIMS // 4
    start = (concentration % 4) * quarter
    histogram[start : start + quarter] += rng.random(quarter) + 0.5
    histogram /= histogram.sum()
    texture = rng.random(_TEXTURE_DIMS) * 0.3
    return np.concatenate([histogram, texture])


def build_synthetic_database(
    videos: int = 100,
    shots_per_video: int = 12,
    scenes_per_video: int = 3,
    seed: int = 0,
) -> VideoDatabase:
    """A deterministic synthetic corpus registered the production way.

    Titles are ``synthetic_00000`` …; events cycle through the three
    mineable kinds plus ``unknown`` so every scene-concept leaf of the
    on-demand ``general`` subject area is populated.
    """
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
                (
                    s,
                    kind,
                    [synthetic_features(rng, v + s + shot) for shot in range(count)],
                )
            )
        database.register_entries(f"synthetic_{v:05d}", scenes)
    return database
