"""Audio substrate: waveforms, synthesis, features, MFCC, GMM, BIC, speakers."""

from repro._lazy import lazy_exports

# Exported lazily (PEP 562): rendering a soundtrack imports
# ``repro.audio.synthesis`` through this package and needs no analysis.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.audio.diarization": ("diarize_shots",),
        "repro.audio.speaker": ("SpeakerAnalyzer",),
    },
)

__all__ = ["SpeakerAnalyzer", "diarize_shots"]
