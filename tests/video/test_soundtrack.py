"""The streamed soundtrack: any window, sample for sample, as the whole track has it.

``stream_video(...).audio`` is a :class:`Soundtrack`, which renders a
window from the scripted shots under it.  Held here to
``generate_video(...).stream.audio`` — the buffer ``test_render_pins``
holds to the clipped concatenation of every shot's samples — over
generated windows: inside one scripted shot, straddling shot boundaries,
ending on or past the last sample, and starting past the end (the same
``AudioError`` from both).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AudioError
from repro.video.synthesis import demo_screenplay, generate_video, stream_video
from repro.video.synthesis import generator
from repro.video.synthesis.generator import Soundtrack, _shot_spans

RATE = 8000
SEED = 3
SCREENPLAY = demo_screenplay()
#: Where each scripted shot ends, in seconds; the last is the track's length.
EDGES = [stop / SCREENPLAY.fps for *_, stop in _shot_spans(SCREENPLAY)]
DURATION = EDGES[-1]


@pytest.fixture(scope="module")
def whole():
    return generate_video(SCREENPLAY, seed=SEED, sample_rate=RATE).stream.audio


def _cut(track, start: float, stop: float):
    """The window's samples, or the error's message."""
    try:
        return track.slice_seconds(start, stop).samples
    except AudioError as exc:
        return str(exc)


def _assert_same_window(streamed: Soundtrack, whole, start: float, stop: float) -> None:
    got, want = _cut(streamed, start, stop), _cut(whole, start, stop)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert np.array_equal(got, want), (start, stop)


@st.composite
def windows(draw) -> tuple[float, float]:
    """``(start, stop)`` seconds around a shot edge, up to or past the end, or anywhere."""
    where = draw(st.sampled_from(["edge", "end", "anywhere"]))
    if where == "edge":
        edge = draw(st.sampled_from(EDGES[:-1]))
        return max(0.0, edge - draw(st.floats(0.0, 3.0))), edge + draw(st.floats(1 / RATE, 3.0))
    if where == "end":
        start = DURATION - draw(st.sampled_from([0.0, 1 / RATE, 0.5])) - draw(st.floats(0.0, 3.0))
        return max(0.0, start), DURATION + draw(st.sampled_from([0.0, 1 / RATE, 1.0]))
    start = draw(st.floats(0.0, DURATION + 1.0))
    return start, start + draw(st.floats(1 / RATE, 6.0))


@given(window=windows())
@settings(max_examples=150, deadline=None)
def test_any_window_equals_the_whole_tracks(whole, window):
    _assert_same_window(stream_video(SCREENPLAY, SEED, RATE).audio, whole, *window)


def test_one_source_answers_a_run_of_windows_like_the_whole_track(whole):
    """Consecutive windows, as the speaker analysis asks for them (the kept shot is reused)."""
    streamed = stream_video(SCREENPLAY, SEED, RATE).audio
    assert streamed.sample_rate == whole.sample_rate
    assert streamed.duration == whole.duration == pytest.approx(DURATION)
    cuts = [0.0, *np.linspace(0.05, DURATION - 0.05, 37), DURATION]
    for start, stop in zip(cuts, cuts[1:]):
        _assert_same_window(streamed, whole, start, stop)
    _assert_same_window(streamed, whole, 0.0, DURATION)
    _assert_same_window(streamed, whole, DURATION - 1 / RATE, DURATION)  # the last sample
    assert streamed.slice_seconds(DURATION - 1 / RATE, DURATION + 5.0).samples.size == 1
    for start, stop in ((DURATION, DURATION + 1.0), (-0.5, 1.0), (2.0, 2.0)):
        with pytest.raises(AudioError):
            streamed.slice_seconds(start, stop)
        _assert_same_window(streamed, whole, start, stop)
    assert np.array_equal(streamed.render().samples, whole.samples)


def test_a_window_renders_only_the_scripted_shots_under_it(monkeypatch):
    rendered: list[int] = []
    real = generator._shot_audio

    def counted(speaker, sample_count, seed, sample_rate):
        rendered.append(seed)
        return real(speaker, sample_count, seed, sample_rate)

    monkeypatch.setattr(generator, "_shot_audio", counted)
    streamed = Soundtrack(SCREENPLAY, SEED, RATE)
    assert rendered == []  # nothing until a window is asked for
    first, second = EDGES[0], EDGES[1]
    streamed.slice_seconds(0.5, first - 0.5)
    assert len(rendered) == 1
    streamed.slice_seconds(first - 0.5, first + 0.5)  # straddles: the kept shot + the next
    assert len(rendered) == 2
    streamed.slice_seconds(first + 0.5, second - 0.1)  # inside the kept shot
    assert len(rendered) == 2
    assert len(set(rendered)) == 2
