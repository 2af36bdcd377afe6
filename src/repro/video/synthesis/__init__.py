"""Synthetic medical-video generator: screenplays, compositions, corpus."""

from repro.video.synthesis.compositions import (
    COMPOSITION_REGISTRY,
    ShotParams,
    render_composition,
)
from repro.video.synthesis.corpus import (
    CORPUS_TITLES,
    build_screenplay,
    demo_screenplay,
    load_corpus,
    load_video,
)
from repro.video.synthesis.generator import (
    GeneratedVideo,
    generate_video,
    render_frames,
    stream_video,
)
from repro.video.synthesis.script import (
    SceneSpec,
    Screenplay,
    ShotSpec,
    clinical_scene,
    dialog_scene,
    filler_scene,
    presentation_scene,
    separator_scene,
)

__all__ = [
    "COMPOSITION_REGISTRY",
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
    "render_composition",
    "render_frames",
    "separator_scene",
    "stream_video",
]
