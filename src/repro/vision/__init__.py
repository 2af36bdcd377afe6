"""Vision substrate: colour, histograms, texture, regions, and cue detectors."""

from repro._lazy import lazy_exports

# Exported lazily (PEP 562): the shot detector imports
# ``repro.vision.color`` through this package and needs no cue detector.
__getattr__, __dir__ = lazy_exports(__name__, {"repro.vision.cues": ("VisualCues", "extract_cues")})

__all__ = ["VisualCues", "extract_cues"]
