"""Clip segmentation (Sec. 4.2).

"For each video shot, we separate the audio stream into adjacent clips,
such that each is about 2 seconds long (a video shot with its length
less than 2 seconds is discarded)."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.audio.waveform import AudioSource, Waveform
from repro.errors import AudioError

#: Paper clip length.
CLIP_SECONDS = 2.0


@dataclass(frozen=True)
class AudioClip:
    """One ~2-second clip cut from a shot's audio.

    Attributes
    ----------
    waveform:
        The clip samples.
    start / stop:
        Clip window in seconds, relative to the whole video.
    """

    waveform: Waveform
    start: float
    stop: float

    @property
    def duration(self) -> float:
        """Clip length in seconds."""
        return self.stop - self.start


def segment_clips(
    audio: AudioSource,
    start: float,
    stop: float,
    clip_seconds: float = CLIP_SECONDS,
) -> list[AudioClip]:
    """Cut the audio window ``[start, stop)`` into adjacent ~2 s clips.

    Returns an empty list when the window is shorter than one clip —
    the paper discards shots under 2 seconds.  A trailing remainder
    shorter than ``clip_seconds`` is merged into the final clip so no
    audio is lost.
    """
    if clip_seconds <= 0:
        raise AudioError("clip_seconds must be positive")
    if stop <= start:
        raise AudioError(f"invalid window [{start}, {stop})")
    duration = stop - start
    if duration < clip_seconds:
        return []

    count = int(duration // clip_seconds)
    clips: list[AudioClip] = []
    for i in range(count):
        clip_start = start + i * clip_seconds
        clip_stop = clip_start + clip_seconds
        if i == count - 1:
            clip_stop = stop  # absorb the remainder into the last clip
        clips.append(
            AudioClip(
                waveform=audio.slice_seconds(clip_start, clip_stop),
                start=clip_start,
                stop=clip_stop,
            )
        )
    return clips
