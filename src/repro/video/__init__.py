"""Video substrate: frames, streams, ground truth, and the synthetic corpus."""

from repro.video.frame import DEFAULT_HEIGHT, DEFAULT_WIDTH, Frame, blank_frame
from repro.video.ground_truth import GroundTruth, SceneSpan, ShotSpan
from repro.video.io import load_stream, save_stream
from repro.video.stream import FrameStream, VideoStream, stream_from_arrays

__all__ = [
    "DEFAULT_HEIGHT",
    "DEFAULT_WIDTH",
    "Frame",
    "FrameStream",
    "GroundTruth",
    "SceneSpan",
    "ShotSpan",
    "VideoStream",
    "blank_frame",
    "load_stream",
    "save_stream",
    "stream_from_arrays",
]
