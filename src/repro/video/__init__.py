"""Video substrate: frames, streams, ground truth, and the synthetic corpus."""

from repro.video.frame import DEFAULT_HEIGHT, DEFAULT_WIDTH, Frame
from repro.video.ground_truth import GroundTruth, SceneSpan, ShotSpan
from repro.video.io import save_stream
from repro.video.stream import FrameStream, VideoStream

__all__ = [
    "DEFAULT_HEIGHT",
    "DEFAULT_WIDTH",
    "Frame",
    "FrameStream",
    "GroundTruth",
    "SceneSpan",
    "ShotSpan",
    "VideoStream",
    "save_stream",
]
