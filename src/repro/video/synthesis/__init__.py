"""Synthetic medical-video generator: screenplays, compositions, corpus."""

from repro._lazy import lazy_exports

# Exported lazily (PEP 562): planning an ingest reads the titles and
# screenplays from here and must not load the renderer (nor, with it,
# the audio substrate) to do so.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.video.synthesis.corpus": (
            "CORPUS_TITLES",
            "build_screenplay",
            "demo_screenplay",
            "load_corpus",
            "load_video",
        ),
        "repro.video.synthesis.generator": (
            "GeneratedVideo",
            "generate_video",
            "render_frames",
            "stream_video",
        ),
        "repro.video.synthesis.script": (
            "SceneSpec",
            "Screenplay",
            "ShotParams",
            "ShotSpec",
            "clinical_scene",
            "dialog_scene",
            "filler_scene",
            "presentation_scene",
            "separator_scene",
        ),
    },
)

__all__ = [
    "CORPUS_TITLES",
    "GeneratedVideo",
    "SceneSpec",
    "Screenplay",
    "ShotParams",
    "ShotSpec",
    "build_screenplay",
    "clinical_scene",
    "demo_screenplay",
    "dialog_scene",
    "filler_scene",
    "generate_video",
    "load_corpus",
    "load_video",
    "presentation_scene",
    "render_frames",
    "separator_scene",
    "stream_video",
]
