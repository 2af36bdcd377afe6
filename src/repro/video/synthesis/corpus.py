"""The synthetic medical-video corpus.

The paper evaluates on ~6 hours of MPEG-I medical video covering five
subjects: *face repair*, *nuclear medicine*, *laparoscopy*, *skin
examination* and *laser eye surgery*.  This module scripts five synthetic
videos with the same titles and the same editing grammar (presentations,
doctor-patient dialogs, clinical operations, filler, black separators,
and re-occurring scenes), scaled down so the whole corpus renders in
seconds rather than hours.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.errors import VideoError
from repro.video.synthesis.script import (
    SceneSpec,
    Screenplay,
    atlas_lecture_scene,
    clinical_scene,
    dialog_scene,
    filler_scene,
    or_consultation_scene,
    planning_session_scene,
    presentation_scene,
    separator_scene,
    voiceover_interview_scene,
)

if TYPE_CHECKING:  # the renderer loads where a video is rendered, not with the titles
    from repro.video.synthesis.generator import GeneratedVideo

#: The five paper video subjects.
CORPUS_TITLES = (
    "face_repair",
    "nuclear_medicine",
    "laparoscopy",
    "skin_examination",
    "laser_eye_surgery",
)


def _interleave(scenes: list[SceneSpec], separators: bool = True) -> tuple[SceneSpec, ...]:
    """Insert black separators between consecutive scenes."""
    if not separators:
        return tuple(scenes)
    out: list[SceneSpec] = []
    for i, scene in enumerate(scenes):
        out.append(scene)
        if i < len(scenes) - 1:
            out.append(separator_scene())
    return tuple(out)


def build_face_repair() -> Screenplay:
    """Facial reconstructive surgery: lecture, consult, two operations."""
    scenes = [
        presentation_scene(
            "facial repair overview lecture", speaker="narrator", cycles=3,
            actor=0, slide_base=0, variant=0, repeat_key="fr_lecture",
        ),
        dialog_scene(
            "pre-operative consult", speaker_a="dr_adams", speaker_b="patient_chen",
            exchanges=3, actor_a=0, actor_b=2, variant=0,
        ),
        clinical_scene(
            "graft harvesting operation", narrator="narrator", steps=3,
            actor=2, variant=0, style="surgery",
        ),
        planning_session_scene(
            "flap planning over diagrams", narrator="dr_adams", cycles=2,
            actor=0, variant=1,
        ),
        filler_scene("ward corridor", shots_count=3, actor=3, variant=0),
        presentation_scene(
            "facial repair overview lecture (reprise)", speaker="narrator", cycles=2,
            actor=0, slide_base=3, variant=0, repeat_key="fr_lecture",
        ),
        clinical_scene(
            "flap placement operation", narrator=None, steps=4,
            actor=2, variant=1, style="surgery", include_organ=False,
        ),
        dialog_scene(
            "post-operative review", speaker_a="dr_baker", speaker_b="patient_chen",
            exchanges=2, actor_a=1, actor_b=2, variant=1,
        ),
    ]
    return Screenplay(title="face_repair", scenes=_interleave(scenes))


def build_nuclear_medicine() -> Screenplay:
    """Nuclear medicine: imaging reviews framed by lectures and consults."""
    scenes = [
        presentation_scene(
            "radiotracer physics lecture", speaker="dr_baker", cycles=3,
            actor=1, slide_base=10, variant=1, repeat_key="nm_lecture",
        ),
        clinical_scene(
            "PET scan review", narrator="dr_baker", steps=3,
            variant=0, style="imaging",
        ),
        dialog_scene(
            "scan findings consult", speaker_a="dr_baker", speaker_b="patient_chen",
            exchanges=3, actor_a=1, actor_b=4, variant=2,
        ),
        filler_scene("lab corridor", shots_count=2, actor=2, variant=1),
        clinical_scene(
            "thyroid uptake study", narrator=None, steps=2,
            variant=3, style="imaging",
        ),
        presentation_scene(
            "radiotracer physics lecture (reprise)", speaker="dr_baker", cycles=2,
            actor=1, slide_base=13, variant=1, repeat_key="nm_lecture",
        ),
    ]
    return Screenplay(title="nuclear_medicine", scenes=_interleave(scenes))


def build_laparoscopy() -> Screenplay:
    """Laparoscopy: operation-heavy teaching video."""
    scenes = [
        presentation_scene(
            "laparoscopic technique briefing", speaker="narrator", cycles=2,
            actor=4, slide_base=20, variant=2, use_clipart=True,
        ),
        clinical_scene(
            "port placement", narrator="narrator", steps=3,
            actor=0, variant=0, style="surgery", include_organ=False,
            repeat_key="lap_or",
        ),
        clinical_scene(
            "gallbladder dissection", narrator="narrator", steps=4,
            actor=0, variant=1, style="surgery",
        ),
        or_consultation_scene(
            "intra-operative consultation", speaker_a="dr_adams",
            speaker_b="dr_baker", exchanges=2, actor_a=0, actor_b=1, variant=1,
        ),
        dialog_scene(
            "surgeon debrief", speaker_a="dr_adams", speaker_b="nurse_diaz",
            exchanges=2, actor_a=0, actor_b=3, variant=3,
        ),
        clinical_scene(
            "port placement (second patient)", narrator="narrator", steps=3,
            actor=0, variant=0, style="surgery", include_organ=False,
            repeat_key="lap_or",
        ),
        filler_scene("scrub room", shots_count=2, actor=1, variant=2),
    ]
    return Screenplay(title="laparoscopy", scenes=_interleave(scenes))


def build_skin_examination() -> Screenplay:
    """Dermatology: lesion examinations and patient interviews."""
    scenes = [
        dialog_scene(
            "intake interview", speaker_a="dr_baker", speaker_b="patient_chen",
            exchanges=3, actor_a=1, actor_b=2, variant=4, repeat_key="se_consult",
        ),
        clinical_scene(
            "lesion examination (arm)", narrator="dr_baker", steps=3,
            actor=2, variant=0, style="dermatology",
        ),
        presentation_scene(
            "dermatoscopy findings review", speaker="dr_baker", cycles=2,
            actor=1, slide_base=30, variant=3,
        ),
        atlas_lecture_scene(
            "lesion atlas lecture", speaker="dr_baker", cycles=2,
            actor=1, variant=2,
        ),
        clinical_scene(
            "lesion examination (back)", narrator=None, steps=2,
            actor=4, variant=2, style="dermatology",
        ),
        voiceover_interview_scene(
            "bedside history taking", on_camera="patient_chen",
            off_camera="dr_baker", exchanges=2, actor=2, variant=3,
        ),
        dialog_scene(
            "follow-up interview", speaker_a="dr_baker", speaker_b="patient_chen",
            exchanges=2, actor_a=1, actor_b=2, variant=4, repeat_key="se_consult",
        ),
        filler_scene("clinic corridor", shots_count=3, actor=0, variant=3),
    ]
    return Screenplay(title="skin_examination", scenes=_interleave(scenes))


def build_laser_eye_surgery() -> Screenplay:
    """Laser eye surgery: briefing, operation, counselling."""
    scenes = [
        presentation_scene(
            "LASIK procedure briefing", speaker="dr_adams", cycles=3,
            actor=0, slide_base=40, variant=4, repeat_key="le_brief",
        ),
        dialog_scene(
            "candidacy consult", speaker_a="dr_adams", speaker_b="nurse_diaz",
            exchanges=2, actor_a=0, actor_b=3, variant=5,
        ),
        clinical_scene(
            "corneal flap operation", narrator="dr_adams", steps=4,
            actor=2, variant=2, style="surgery", include_organ=False,
        ),
        filler_scene("recovery corridor", shots_count=2, actor=4, variant=4),
        presentation_scene(
            "LASIK procedure briefing (recap)", speaker="dr_adams", cycles=2,
            actor=0, slide_base=43, variant=4, repeat_key="le_brief",
        ),
        clinical_scene(
            "post-operative slit-lamp check", narrator=None, steps=2,
            actor=2, variant=5, style="dermatology",
        ),
        atlas_lecture_scene(
            "complication case review", speaker="dr_adams", cycles=2,
            actor=0, variant=6,
        ),
    ]
    return Screenplay(title="laser_eye_surgery", scenes=_interleave(scenes))


_BUILDERS = {
    "face_repair": build_face_repair,
    "nuclear_medicine": build_nuclear_medicine,
    "laparoscopy": build_laparoscopy,
    "skin_examination": build_skin_examination,
    "laser_eye_surgery": build_laser_eye_surgery,
}


def build_screenplay(title: str) -> Screenplay:
    """Build one corpus screenplay by title."""
    try:
        return _BUILDERS[title]()
    except KeyError:
        raise VideoError(f"unknown corpus title {title!r}; known: {CORPUS_TITLES}") from None


@lru_cache(maxsize=8)
def load_video(title: str, seed: int = 0, with_audio: bool = True) -> GeneratedVideo:
    """Render (and cache) one corpus video."""
    from repro.video.synthesis.generator import generate_video

    return generate_video(build_screenplay(title), seed=seed, with_audio=with_audio)


def load_corpus(seed: int = 0, with_audio: bool = True) -> list[GeneratedVideo]:
    """Render the full five-video corpus."""
    return [load_video(title, seed=seed, with_audio=with_audio) for title in CORPUS_TITLES]


def demo_screenplay() -> Screenplay:
    """A compact three-scene screenplay for tests and the quickstart."""
    scenes = [
        presentation_scene("demo lecture", cycles=2, actor=0, slide_base=0),
        dialog_scene("demo consult", exchanges=2),
        clinical_scene("demo operation", narrator="narrator", steps=2),
    ]
    return Screenplay(title="demo", scenes=_interleave(scenes))
