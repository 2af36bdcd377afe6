"""Shot detection reads a frame stream: same answers, bounded residency.

* ``BoundaryDetector`` — one difference at a time — against the batch
  detector it replaced (``tests/core/oracles.py``), on generated signals;
  and what it promises while the signal is still arriving: a settled
  boundary never changes, and no later boundary falls before ``open_from``.
* ``detect_shots`` / ``shots_from_ground_truth`` over a generator against
  the same call over the frame list, field by field.
* How many frames the pass holds on to, counted (weak references) and
  weighed (tracemalloc) at 1x, 2x and 8x the longest corpus title; and
  what a whole mine with audio holds beyond its result, at 1x and 8x.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import REPRESENTATIVE_FRAME_OFFSET
from repro.core.shots import (
    DEFAULT_WINDOW,
    MIN_SHOT_LENGTH,
    BoundaryDetector,
    detect_boundaries,
    detect_shots,
    shots_from_ground_truth,
)
from repro.errors import MiningError
from repro.video.frame import Frame
from repro.video.stream import FrameStream
from repro.vision.color import FRAME_CHUNK
from tests.core.oracles import batch_detect_boundaries

# ---------------------------------------------------------------------------
# The incremental detector against the batch one.
# ---------------------------------------------------------------------------

#: Few distinct heights, so equal spikes (the ``>`` vs ``>=`` cases) are common.
_HEIGHTS = st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0])


@st.composite
def signals(draw):
    """``(differences, window, min_shot_length)`` with the awkward shapes over-represented."""
    window = draw(st.integers(4, 40))
    min_shot_length = draw(st.integers(1, 8))
    edge_lengths = [0, 1, 2, window - 1, window, window + 1, 2 * window, 2 * window + 1]
    length = draw(st.one_of(st.sampled_from(edge_lengths), st.integers(0, 4 * window + 3)))
    floor = draw(st.sampled_from(["noise", "plateau", "zeros"]))
    if floor == "noise":
        values = draw(st.lists(st.floats(0.0, 0.05), min_size=length, max_size=length))
    else:
        values = [draw(st.floats(0.0, 0.3)) if floor == "plateau" else 0.0] * length
    if length:
        position = st.integers(0, length - 1)
        for at in draw(st.lists(position, max_size=6)):
            values[at] = draw(_HEIGHTS)
        for at in draw(st.lists(position, max_size=3)):  # two spikes closer than a shot
            values[at] = draw(_HEIGHTS)
            values[min(length - 1, at + draw(st.integers(1, min_shot_length)))] = draw(_HEIGHTS)
        if draw(st.booleans()):
            values[-1] = draw(_HEIGHTS)  # a cut on the very last transition
    return values, window, min_shot_length


@given(case=signals())
@settings(max_examples=300, deadline=None)
def test_incremental_detector_equals_batch(case):
    values, window, min_shot_length = case
    want_boundaries, want_thresholds = batch_detect_boundaries(values, window, min_shot_length)

    got_boundaries, got_thresholds = detect_boundaries(values, window, min_shot_length)
    assert got_boundaries == want_boundaries
    assert np.array_equal(got_thresholds, want_thresholds)
    assert got_thresholds.dtype == np.float64

    # While the signal arrives: what was promised at each step must hold at the end.
    detector = BoundaryDetector(window, min_shot_length)
    promises = []
    for value in values:
        detector.feed(value)
        assert detector.judged <= len(detector.thresholds) <= len(detector.differences)
        promises.append((list(detector.boundaries[: detector.settled]), detector.open_from))
    detector.flush()
    assert detector.boundaries == want_boundaries
    assert detector.settled == len(want_boundaries)
    assert detector.judged == len(values)
    for settled, open_from in promises:
        assert want_boundaries[: len(settled)] == settled
        assert all(boundary >= open_from for boundary in want_boundaries[len(settled) :])


def test_decisions_stay_open_for_a_bounded_stretch():
    """Nothing is judged later than one window plus one look-ahead after it arrived."""
    detector = BoundaryDetector()
    for fed in range(1, 200):
        detector.feed(0.9 if fed % 17 == 0 else 0.01)
        assert fed - detector.judged <= DEFAULT_WINDOW
        assert detector.open_from > detector.judged - MIN_SHOT_LENGTH


def test_detector_rejects_tiny_window():
    with pytest.raises(MiningError):
        BoundaryDetector(window=3)


# ---------------------------------------------------------------------------
# detect_shots over a generator against the list.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def face_repair_frames():
    """The longest corpus title, rendered once (1 365 frames)."""
    from repro.ingest.jobs import screenplay_for_title
    from repro.video.synthesis import render_frames

    return list(render_frames(screenplay_for_title("face_repair"), seed=0))


def _read_once(frames, fps=10.0) -> FrameStream:
    return FrameStream(frames=(frame for frame in frames), fps=fps, title="read once")


def _assert_same_shots(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.shot_id, a.start, a.stop, a.fps) == (b.shot_id, b.start, b.stop, b.fps)
        assert a.representative_frame == b.representative_frame
        assert np.array_equal(a.histogram, b.histogram)
        assert np.array_equal(a.texture, b.texture)


def _assert_same_detection(got, want):
    assert got.boundaries == want.boundaries
    assert np.array_equal(got.differences, want.differences)
    assert np.array_equal(got.thresholds, want.thresholds)
    _assert_same_shots(got.shots, want.shots)


@pytest.mark.parametrize("mode", ["histogram", "dc"])
def test_generator_and_list_give_the_same_detection(demo_stream, mode):
    streamed = detect_shots(_read_once(demo_stream.frames, demo_stream.fps), mode=mode)
    _assert_same_detection(streamed, detect_shots(demo_stream, mode=mode))


def test_generator_and_list_agree_on_face_repair(face_repair_frames):
    from repro.video.stream import VideoStream

    streamed = detect_shots(_read_once(face_repair_frames))
    listed = detect_shots(VideoStream(frames=face_repair_frames, fps=10.0))
    assert len(streamed.shots) == 52  # the count benchmarks/e2e/verify.py freezes
    _assert_same_detection(streamed, listed)


def test_streamed_signal_equals_the_whole_matrix(face_repair_frames):
    """Chunked differences and per-window thresholds against the one-matrix computation."""
    from repro.vision.difference import difference_signal

    detection = detect_shots(_read_once(face_repair_frames))
    signal = difference_signal(face_repair_frames)
    boundaries, thresholds = batch_detect_boundaries(signal)
    assert np.array_equal(detection.differences, signal)
    assert np.array_equal(detection.thresholds, thresholds)
    assert detection.boundaries == boundaries


def test_oracle_spans_read_a_generator(demo_video):
    spans = [(s.start, s.stop) for s in demo_video.truth.shots]
    stream = demo_video.stream
    streamed = shots_from_ground_truth(_read_once(stream.frames, stream.fps), spans)
    _assert_same_shots(streamed, shots_from_ground_truth(stream, spans))
    with pytest.raises(MiningError):
        shots_from_ground_truth(_read_once(stream.frames[:20], stream.fps), [(0, 12), (12, 24)])


def test_empty_source_is_an_error():
    with pytest.raises(MiningError):
        detect_shots(FrameStream(frames=iter(())))


# ---------------------------------------------------------------------------
# Residency: frames held, bytes held.
# ---------------------------------------------------------------------------

#: Frames a pass may hold that are not (yet) a built shot's representative:
#: the window whose threshold is open, the boundary that can still move,
#: the ten frames a shot's representative is picked from, and the chunk
#: being collected.
HELD_FRAMES_BOUND = DEFAULT_WINDOW + MIN_SHOT_LENGTH + REPRESENTATIVE_FRAME_OFFSET + 1 + FRAME_CHUNK


def _fresh_frames(base, times):
    """``times`` repeats of ``base``, every frame its own pixel buffer (so holding one costs)."""
    for index in range(times * len(base)):
        yield Frame(pixels=base[index % len(base)].pixels.copy(), index=index, timestamp=index / 10.0)


def test_frames_are_dropped_once_no_decision_can_pick_them(face_repair_frames):
    alive: list[weakref.ref] = []
    samples: list[tuple[int, int]] = []  # (frames read so far, frames still referenced)

    def watched():
        nonlocal alive
        for index, frame in enumerate(_fresh_frames(face_repair_frames, 1)):
            if index % FRAME_CHUNK == 0:
                gc.collect()
                alive = [ref for ref in alive if ref() is not None]
                samples.append((index, len(alive)))
            alive.append(weakref.ref(frame))
            yield frame
            del frame

    detection = detect_shots(FrameStream(frames=watched()))
    picked = sorted(shot.representative_frame.index for shot in detection.shots)
    assert len(samples) > 80
    for read, held in samples:
        results = sum(1 for index in picked if index < read)
        assert held - results <= HELD_FRAMES_BOUND, (read, held, results)
    gc.collect()
    assert sum(ref() is not None for ref in alive) == len(detection.shots)


def test_peak_memory_does_not_grow_with_the_video(face_repair_frames):
    """tracemalloc peak over the last 64 frames, less the result, at 1x, 2x and 8x.

    The peak is taken at the end of the stream, where anything that
    accumulates with length is at its largest and all but the last shot
    or two exist already, so subtracting the shots' own features (and the
    16 bytes a frame of ``differences`` + ``thresholds``) leaves what the
    pass itself holds: kernel scratch for one chunk plus the held frames.
    """
    detect_shots(_read_once(face_repair_frames[:100]))  # one-time caches are not the pass's
    residues = {}
    for times in (1, 2, 8):
        total = times * len(face_repair_frames)

        def source():
            for frame in _fresh_frames(face_repair_frames, times):
                if frame.index == total - 64:
                    tracemalloc.reset_peak()
                yield frame

        tracemalloc.start()
        try:
            detection = detect_shots(FrameStream(frames=source()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(detection.differences) == total - 1
        result_bytes = 16 * total + sum(
            shot.representative_frame.pixels.nbytes + shot.histogram.nbytes + shot.texture.nbytes
            for shot in detection.shots
        )
        residues[times] = peak - result_bytes
    assert max(residues.values()) <= 1.15 * min(residues.values()), residues
    # A held video would be 21 MB at 1x and 168 MB at 8x; one chunk's scratch is ~8 MB.
    assert max(residues.values()) < 12e6, residues


def test_a_whole_mine_with_audio_does_not_grow_with_the_video():
    """``ClassMiner.mine`` on the streamed video, audio included, at 1x and 8x
    ``face_repair``: tracemalloc peak less what the result keeps.

    The soundtrack is rendered a detected shot's window at a time and a
    shot's analysis keeps its clip's window and MFCCs, not samples, so what
    the mine holds beyond its result is one chunk's kernel scratch and one
    shot's audio.  Measured 5.9 / 3.1 MB; 11 / 72 MB while the soundtrack
    was rendered whole up front and every representative clip was kept
    (128 KB a second of video between them).
    """
    from dataclasses import replace

    from repro.core import ClassMiner
    from repro.ingest.jobs import screenplay_for_title
    from repro.video.synthesis import stream_video

    base = screenplay_for_title("face_repair")
    miner = ClassMiner()
    miner.mine(stream_video(replace(base, scenes=base.scenes[:2])))  # one-time caches
    residues = {}
    for times in (1, 8):
        tracemalloc.start()
        try:
            stream = stream_video(replace(base, scenes=base.scenes * times))
            result = miner.mine(stream)
            peak = tracemalloc.get_traced_memory()[1]
            del stream
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not result.degraded and len(result.audio) == result.structure.shot_count
        residues[times] = peak - kept
    assert residues[8] <= residues[1] + 1e6, residues
    assert max(residues.values()) < 8e6, residues
