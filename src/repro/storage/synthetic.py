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
database, and therefore the same stored catalog bytes; a corpus of
``n`` videos is the first ``n`` videos of every longer one.
"""

from __future__ import annotations

import numpy as np

from repro.database.catalog import VideoDatabase
from repro.types import EventKind

#: Feature layout must match combine_features (256 histogram + 10 texture).
_HIST_DIMS = 256
_TEXTURE_DIMS = 10


def build_synthetic_database(
    videos: int = 100,
    shots_per_video: int = 12,
    scenes_per_video: int = 3,
    seed: int = 0,
) -> VideoDatabase:
    """A deterministic synthetic corpus registered the production way.

    Titles are ``synthetic_00000`` …; events cycle through the three
    mineable kinds plus ``unknown`` so every scene-concept leaf of the
    on-demand ``general`` subject area is populated.  Each scene but the
    last holds ``shots_per_video // scenes_per_video`` shots (at least
    one), the last what is left.  Shot ``i`` of scene ``s`` of video
    ``v`` has its histogram mass in quadrant ``(v + s + i) % 4``, so leaf
    hash signatures spread across buckets the way real footage does.
    A video is one draw: per shot, 256 histogram, 64 quadrant and 10
    texture uniforms.
    """
    rng = np.random.default_rng(seed)
    kinds = EventKind.known_kinds() + (EventKind.UNKNOWN,)
    quarter = _HIST_DIMS // 4
    per_scene = max(1, shots_per_video // scenes_per_video)
    counts = [per_scene] * (scenes_per_video - 1)
    counts.append(max(0, shots_per_video - sum(counts)))
    bounds = np.cumsum([0] + counts)
    shot = np.arange(bounds[-1])[:, None]
    scene = np.repeat(np.arange(scenes_per_video), counts)[:, None]
    rank = scene + shot - bounds[scene]  # s + i, per shot
    database = VideoDatabase()
    for v in range(videos):
        draws = rng.random((shot.size, _HIST_DIMS + quarter + _TEXTURE_DIMS))
        features = np.empty((shot.size, _HIST_DIMS + _TEXTURE_DIMS))
        histogram = np.multiply(draws[:, :_HIST_DIMS], 0.2, out=features[:, :_HIST_DIMS])
        columns = (v + rank) % 4 * quarter + np.arange(quarter)
        histogram[shot, columns] += draws[:, _HIST_DIMS:-_TEXTURE_DIMS] + 0.5
        histogram /= histogram.sum(axis=1, keepdims=True)
        np.multiply(draws[:, -_TEXTURE_DIMS:], 0.3, out=features[:, _HIST_DIMS:])
        database.register_entries(
            f"synthetic_{v:05d}",
            [
                (s, kinds[(v + s) % len(kinds)], features[bounds[s] : bounds[s + 1]])
                for s in range(scenes_per_video)
            ],
        )
    return database
