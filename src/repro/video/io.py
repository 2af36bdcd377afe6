"""Persistence for generated videos: save a stream with its audio.

The synthetic generator is deterministic, but rendering a corpus video
still costs a couple of seconds; pipelines that iterate on mining
parameters can snapshot the rendered stream (npz: frames + audio + fps)
and read the members back with ``np.load``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.video.stream import VideoStream

#: Format marker written into every snapshot.
FORMAT_VERSION = 1


def save_stream(stream: VideoStream, path: str | Path) -> None:
    """Write a stream (frames, fps, title, audio) to an ``.npz`` file."""
    path = Path(path)
    payload = {
        "version": np.array(FORMAT_VERSION),
        "frames": stream.pixel_stack(),
        "fps": np.array(stream.fps),
        "title": np.array(stream.title),
    }
    if stream.audio is not None:
        payload["audio_samples"] = stream.audio.samples
        payload["audio_rate"] = np.array(stream.audio.sample_rate)
    np.savez_compressed(path, **payload)

