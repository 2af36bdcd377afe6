"""Screenplay compiler: renders a :class:`Screenplay` into a video.

Produces the three artefacts the rest of the system consumes:

* a :class:`~repro.video.stream.VideoStream` with per-frame camera
  jitter, sensor noise and brightness flicker;
* a synchronised audio track (speech per the shot's speaker label,
  ambience otherwise);
* a complete :class:`~repro.video.ground_truth.GroundTruth`.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.audio.synthesis import VOICE_BANK, synthesize_ambient, synthesize_speech
from repro.audio.waveform import DEFAULT_SAMPLE_RATE, Waveform, sample_window
from repro.errors import VideoError
from repro.video.frame import Frame
from repro.video.ground_truth import GroundTruth, SceneSpan, ShotSpan
from repro.video.stream import FrameStream, VideoStream
from repro.video.synthesis.compositions import render_composition
from repro.video.synthesis.draw import add_noise, adjust_brightness, camera_jitter
from repro.video.synthesis.script import Screenplay, ShotSpec


@dataclass
class GeneratedVideo:
    """A rendered synthetic video with its annotations."""

    stream: VideoStream
    truth: GroundTruth
    screenplay: Screenplay

    @property
    def title(self) -> str:
        """Screenplay title."""
        return self.screenplay.title


def _stable_seed(*parts: object) -> int:
    """Deterministic 32-bit seed from arbitrary string-able parts."""
    text = "/".join(str(part) for part in parts)
    return zlib.crc32(text.encode())


def _shot_audio(
    speaker: str | None,
    sample_count: int,
    seed: int,
    sample_rate: int,
) -> np.ndarray:
    """Exactly ``sample_count`` samples of this shot's soundtrack."""
    duration = sample_count / sample_rate + 0.05
    if speaker is None:
        wave = synthesize_ambient(duration, sample_rate=sample_rate, seed=seed)
    else:
        if speaker not in VOICE_BANK:
            raise VideoError(f"unknown speaker {speaker!r}; known: {sorted(VOICE_BANK)}")
        wave = synthesize_speech(
            VOICE_BANK[speaker], duration, sample_rate=sample_rate, seed=seed
        )
    samples = wave.samples
    if samples.size < sample_count:
        samples = np.pad(samples, (0, sample_count - samples.size))
    return samples[:sample_count]


def _shot_spans(screenplay: Screenplay) -> Iterator[tuple[int, int, ShotSpec, int, int]]:
    """Every scripted shot in order: ``(scene, local index, shot, start, stop)`` in frames."""
    cursor = 0
    for scene_index, scene in enumerate(screenplay.scenes):
        for local_index, shot in enumerate(scene.shots):
            stop = cursor + max(2, int(round(shot.seconds * screenplay.fps)))
            yield scene_index, local_index, shot, cursor, stop
            cursor = stop


def render_frames(screenplay: Screenplay, seed: int = 0) -> Iterator[Frame]:
    """Render the screenplay's frames one at a time, in presentation order.

    Scenes that share a ``repeat_key`` re-render from identical scenery
    seeds, making them near-duplicates (ground truth for clustering).
    """
    fps = screenplay.fps
    for scene_index, local_index, shot, start, stop in _shot_spans(screenplay):
        # Scenery identity: repeats reuse the repeat key, so their camera
        # seeds (and therefore their rendered pixels) match.
        scenery_key = screenplay.scenes[scene_index].repeat_key or f"scene{scene_index}"
        camera = shot.camera_id if shot.camera_id else f"shot{local_index}"
        static_seed = _stable_seed(screenplay.title, scenery_key, camera)
        motion_rng = np.random.default_rng(
            _stable_seed(screenplay.title, seed, scene_index, local_index)
        )
        for index in range(start, stop):
            canvas = render_composition(
                shot.composition, screenplay.height, screenplay.width,
                static_seed, shot.params, (index - start) / (stop - start),
            )
            canvas = camera_jitter(canvas, motion_rng, max_shift=1)
            adjust_brightness(canvas, 1.0 + float(motion_rng.normal(0.0, 0.005)))
            add_noise(canvas, motion_rng, sigma=0.008)
            yield Frame(pixels=canvas, index=index, timestamp=index / fps)


class Soundtrack:
    """The screenplay's audio track, rendered a window at a time.

    Every scripted shot's samples come from its own seed, so a window is
    the scripted shots it overlaps, each rendered whole and clipped, cut
    to the window: :meth:`slice_seconds` answers sample for sample what
    the same window of :meth:`render` would, holding only those shots.
    The last shot rendered is kept: a long shot's ~2 s clips are asked
    for one at a time, and each would otherwise render it again.
    """

    def __init__(self, screenplay: Screenplay, seed: int, sample_rate: int) -> None:
        self.sample_rate = sample_rate
        #: ``(speaker, audio seed, first sample, stop sample)`` per scripted shot.
        self._shots: list[tuple[str | None, int, int, int]] = []
        cursor = 0
        for scene_index, local_index, shot, _, stop in _shot_spans(screenplay):
            next_sample = int(round(stop / screenplay.fps * sample_rate))
            audio_seed = _stable_seed(screenplay.title, seed, "audio", scene_index, local_index)
            self._shots.append((shot.speaker, audio_seed, cursor, next_sample))
            cursor = next_sample
        self._size = cursor
        self._last: tuple[int, np.ndarray] = (-1, np.empty(0))

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self._size / self.sample_rate

    def _shot_samples(self, index: int) -> np.ndarray:
        """Scripted shot ``index``'s samples, clipped to ``[-1, 1]``."""
        last_index, samples = self._last
        if last_index != index:
            speaker, audio_seed, first, stop = self._shots[index]
            samples = _shot_audio(speaker, stop - first, audio_seed, self.sample_rate)
            samples = np.clip(samples, -1.0, 1.0)
            self._last = (index, samples)
        return samples

    def slice_seconds(self, start: float, stop: float) -> Waveform:
        """The window ``[start, stop)`` seconds, cut as :meth:`Waveform.slice_seconds` cuts."""
        i0, i1 = sample_window(start, stop, self.sample_rate, self._size)
        samples = np.empty(i1 - i0)
        for index, (_, _, first, end) in enumerate(self._shots):
            if first < i1 and end > i0:
                lo, hi = max(first, i0), min(end, i1)
                samples[lo - i0 : hi - i0] = self._shot_samples(index)[lo - first : hi - first]
        return Waveform(samples=samples, sample_rate=self.sample_rate)

    def render(self) -> Waveform:
        """The whole track as one waveform."""
        return self.slice_seconds(0.0, self.duration)


def _ground_truth(screenplay: Screenplay) -> GroundTruth:
    """The annotations the screenplay implies (no pixel is rendered for them)."""
    shots = [
        ShotSpan(shot_id=shot_id, start=start, stop=stop, speaker=shot.speaker, scene_id=scene_index)
        for shot_id, (scene_index, _, shot, start, stop) in enumerate(_shot_spans(screenplay))
    ]
    groups: list[list[int]] = []
    scenes: list[SceneSpan] = []
    repeat_members: dict[str, list[int]] = {}
    first_shot = 0
    for scene_index, scene in enumerate(screenplay.scenes):
        if scene.repeat_key:
            repeat_members.setdefault(scene.repeat_key, []).append(scene_index)
        groups.extend([first_shot + i for i in local_group] for local_group in scene.groups)
        scenes.append(
            SceneSpan(
                scene_id=scene_index,
                first_shot=first_shot,
                last_shot=first_shot + len(scene.shots) - 1,
                event=scene.event,
                subject=scene.subject,
                topic_relevant=scene.topic_relevant,
            )
        )
        first_shot += len(scene.shots)
    return GroundTruth(
        shots=shots,
        groups=groups,
        scenes=scenes,
        duplicate_scene_sets=[ids for ids in repeat_members.values() if len(ids) > 1],
    )


def stream_video(
    screenplay: Screenplay,
    seed: int = 0,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    with_audio: bool = True,
) -> FrameStream:
    """The video as a read-once stream: frames are rendered as they are consumed.

    The audio is a :class:`Soundtrack`: the speaker analysis asks it for
    one detected shot's window at a time and it renders just the scripted
    shots under that window, so no part of the track is held whole.
    """
    return FrameStream(
        frames=render_frames(screenplay, seed),
        fps=screenplay.fps,
        title=screenplay.title,
        audio=Soundtrack(screenplay, seed, sample_rate) if with_audio else None,
    )


def generate_video(
    screenplay: Screenplay,
    seed: int = 0,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
    with_audio: bool = True,
) -> GeneratedVideo:
    """Render a screenplay into frames, audio and ground truth.

    Determinism: the result depends only on ``(screenplay, seed)``.  The
    frames and the soundtrack are :func:`stream_video`'s, held whole.
    """
    source = stream_video(screenplay, seed, sample_rate, with_audio)
    audio = None if source.audio is None else source.audio.render()
    stream = VideoStream(frames=list(source), fps=source.fps, title=source.title, audio=audio)
    truth = _ground_truth(screenplay)
    truth.validate(len(stream))
    return GeneratedVideo(stream=stream, truth=truth, screenplay=screenplay)
