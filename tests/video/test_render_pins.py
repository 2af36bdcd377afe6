"""The renderer's output is pinned: optimisations may not move a pixel or an RNG draw.

The digests were computed at the commit before the renderer learned to
cache painted sets and to stream (82f72d8), over every frame of the five
corpus titles at render seed 0 — the input every mined figure in
``benchmarks/results/`` and the frozen fingerprint in
``benchmarks/e2e/verify.py`` starts from.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ingest.jobs import screenplay_for_title
from repro.video.synthesis import demo_screenplay, generate_video, render_frames, stream_video
from repro.video.synthesis.generator import _shot_audio, _shot_spans, _stable_seed
from repro.video.synthesis.sets import SET_REGISTRY, render_set

#: title -> (frames, sha256 over the frames' pixel bytes in order).
FRAME_PINS = {
    "face_repair": (1365, "3bc737eb4e31b731c622a018777567291bb9ad5743023df46d4a70443761abe6"),
    "nuclear_medicine": (905, "24573b399195f31caa4d38ea07f955dcf56b5afb35927d34e11040f85e8b3050"),
    "laparoscopy": (1065, "48da8c70bada14a5fb0c930d788ae5914d9f9b488226f85a84048376d993bb41"),
    "skin_examination": (1115, "2a3af6c6eedd7a90cf17666cded1e3126bebbdc873d3c6120b1d8c80907c4180"),
    "laser_eye_surgery": (1025, "78589bf2532af726b3ff74ae7e76a4c83b0ef43c39a866ead5aadf59aa872110"),
}


@pytest.mark.parametrize("title", sorted(FRAME_PINS))
def test_every_frame_of_the_corpus_is_pinned(title):
    digest = hashlib.sha256()
    count = 0
    for count, frame in enumerate(render_frames(screenplay_for_title(title), seed=0), start=1):
        assert (frame.index, frame.timestamp) == (count - 1, (count - 1) / 10.0)
        digest.update(frame.pixels.tobytes())
    assert (count, digest.hexdigest()) == FRAME_PINS[title]


def test_generate_video_is_the_materialised_stream(demo_video):
    """Same frames, same stamps, same audio, whether read as a stream or held as a list."""
    source = stream_video(demo_screenplay(), seed=0)
    assert (source.fps, source.title) == (demo_video.stream.fps, demo_video.stream.title)
    assert list(source) == demo_video.stream.frames
    assert list(source) == []  # read once
    assert np.array_equal(source.audio.render().samples, demo_video.stream.audio.samples)
    assert stream_video(demo_screenplay(), with_audio=False).audio is None


def test_soundtrack_buffer_equals_clipped_concatenation():
    """The one-buffer soundtrack against parts + concatenate + clip, sample for sample."""
    screenplay = demo_screenplay()
    rate = 8000
    parts, cursor = [], 0
    for scene_index, local_index, shot, _, stop in _shot_spans(screenplay):
        next_sample = int(round(stop / screenplay.fps * rate))
        seed = _stable_seed(screenplay.title, 5, "audio", scene_index, local_index)
        parts.append(_shot_audio(shot.speaker, next_sample - cursor, seed, rate))
        cursor = next_sample
    expected = np.clip(np.concatenate(parts), -1.0, 1.0)
    samples = generate_video(screenplay, seed=5, sample_rate=rate).stream.audio.samples
    assert samples.dtype == np.float64
    assert np.array_equal(samples, expected)


@pytest.mark.parametrize("name", sorted(SET_REGISTRY))
def test_a_cached_set_restores_pixels_and_generator_state(name):
    """Second and later paints come from the cache; canvas and RNG must not notice."""
    fresh = np.zeros((64, 80, 3))
    rng = np.random.default_rng(99)
    SET_REGISTRY[name](fresh, rng, 2)  # the painter itself, never cached
    after_paint = rng.bit_generator.state
    for _ in range(3):
        canvas = np.full((64, 80, 3), 0.5)  # whatever was there is painted over
        rng = np.random.default_rng(99)
        render_set(name, canvas, rng, 2)
        assert np.array_equal(canvas, fresh)
        assert rng.bit_generator.state == after_paint
    # Another seed, variant or size is another painting.
    other = np.zeros((64, 80, 3))
    render_set(name, other, np.random.default_rng(100), 2)
    assert not np.array_equal(other, fresh)
    small = np.zeros((32, 40, 3))
    render_set(name, small, np.random.default_rng(99), 2)
    assert small.shape == (32, 40, 3) and np.isfinite(small).all()
    canvas[0, 0] = 7.0  # a caller scribbling on its canvas does not reach the cache
    again = np.zeros((64, 80, 3))
    render_set(name, again, np.random.default_rng(99), 2)
    assert np.array_equal(again, fresh)
