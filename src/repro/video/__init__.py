"""Video substrate: frames, streams, ground truth, and the synthetic corpus."""

from repro._lazy import lazy_exports

# Exported lazily (PEP 562), like ``repro.core``: planning an ingest
# imports ``repro.video.synthesis.script`` through this package.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.video.frame": ("DEFAULT_HEIGHT", "DEFAULT_WIDTH", "Frame"),
        "repro.video.ground_truth": ("GroundTruth", "SceneSpan", "ShotSpan"),
        "repro.video.io": ("save_stream",),
        "repro.video.stream": ("FrameStream", "VideoStream"),
    },
)

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
