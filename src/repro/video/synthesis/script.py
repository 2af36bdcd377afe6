"""Screenplay model: the declarative description a video is generated from.

A :class:`Screenplay` lists scenes; each :class:`SceneSpec` lists shots
and annotates its own ground truth (groups, event category, subject).
Builder functions at the bottom assemble the stereotypical scene types
of medical-education video — presentations, dialogs, clinical
operations — which the paper's event miner must recognise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import VideoError
from repro.types import EventKind

#: The camera setups a shot may name: ``compositions.COMPOSITION_REGISTRY``
#: renders exactly these, so a screenplay is checked without the renderer.
COMPOSITION_NAMES = frozenset({
    "podium_speaker", "podium_wide", "slide_fullscreen", "clipart_fullscreen",
    "sketch_fullscreen", "black", "interview_a", "interview_b", "two_shot",
    "surgeon_face_a", "surgeon_face_b", "surgical_closeup", "surgical_zoom",
    "surgical_wide", "organ_still", "scan_display", "limb_exam", "corridor_walk",
})


@dataclass(frozen=True)
class ShotParams:
    """Free parameters of one composition instance.

    Attributes
    ----------
    actor / actor_b:
        Wardrobe/skin indices into the actor tables (person A and B).
    slide_id / variant:
        Content selectors for slides, clip art, sets.
    coverage:
        Skin coverage for surgical/dermatology close-ups.
    talking:
        Whether mouths animate (drives tiny intra-shot variation).
    """

    actor: int = 0
    actor_b: int = 1
    slide_id: int = 0
    variant: int = 0
    coverage: float = 0.55
    talking: bool = True


@dataclass(frozen=True)
class ShotSpec:
    """One scripted shot.

    Attributes
    ----------
    composition:
        Name from the composition registry.
    seconds:
        Duration; frames = round(seconds * fps).
    speaker:
        Voice-bank name speaking during this shot, or ``None`` for
        ambient/music audio.
    params:
        Composition parameters (actors, slide ids, variants).
    camera_id:
        Shots with the same camera id *within one scene* share a static
        render seed — this is how A-B-A-B dialog alternation gets its
        back-and-forth visual identity.
    """

    composition: str
    seconds: float
    speaker: str | None = None
    params: ShotParams = field(default_factory=ShotParams)
    camera_id: str | None = None

    def __post_init__(self) -> None:
        if self.composition not in COMPOSITION_NAMES:
            raise VideoError(f"unknown composition {self.composition!r}")
        if self.seconds <= 0:
            raise VideoError("shot duration must be positive")


@dataclass(frozen=True)
class SceneSpec:
    """One scripted semantic scene.

    Attributes
    ----------
    subject:
        Human-readable description of the semantic unit.
    event:
        Ground-truth event category.
    shots:
        The scripted shots, in order.
    groups:
        Ground-truth group partition as lists of *local* shot indices.
    topic_relevant:
        Whether the scene carries the video's main topic.
    repeat_key:
        Scenes sharing a repeat key are visual re-occurrences of the
        same content: they render from the same scenery seeds and are
        annotated as duplicates for scene clustering.
    """

    subject: str
    event: EventKind
    shots: tuple[ShotSpec, ...]
    groups: tuple[tuple[int, ...], ...]
    topic_relevant: bool = False
    repeat_key: str | None = None

    def __post_init__(self) -> None:
        if not self.shots:
            raise VideoError(f"scene {self.subject!r} has no shots")
        covered = sorted(i for group in self.groups for i in group)
        if covered != list(range(len(self.shots))):
            raise VideoError(
                f"scene {self.subject!r}: groups must partition local shots"
            )

    @property
    def shot_count(self) -> int:
        """Number of shots in the scene."""
        return len(self.shots)

    @property
    def duration(self) -> float:
        """Total scripted duration in seconds."""
        return sum(shot.seconds for shot in self.shots)


@dataclass(frozen=True)
class Screenplay:
    """A full scripted video."""

    title: str
    scenes: tuple[SceneSpec, ...]
    fps: float = 10.0
    height: int = 64
    width: int = 80

    def __post_init__(self) -> None:
        if not self.scenes:
            raise VideoError("screenplay needs at least one scene")
        if self.fps <= 0:
            raise VideoError("fps must be positive")

    @property
    def shot_count(self) -> int:
        """Total scripted shots across all scenes."""
        return sum(scene.shot_count for scene in self.scenes)

    @property
    def duration(self) -> float:
        """Total scripted duration in seconds."""
        return sum(scene.duration for scene in self.scenes)


# ---------------------------------------------------------------------------
# Scene builders.
# ---------------------------------------------------------------------------


def _shot(
    composition: str, seconds: float, speaker: str | None, camera_id: str, **params
) -> ShotSpec:
    """One scripted shot; ``params`` are :class:`ShotParams` fields."""
    return ShotSpec(composition, seconds, speaker, ShotParams(**params), camera_id)


def presentation_scene(
    subject: str,
    speaker: str = "narrator",
    cycles: int = 3,
    actor: int = 0,
    slide_base: int = 0,
    variant: int = 0,
    repeat_key: str | None = None,
    use_clipart: bool = False,
) -> SceneSpec:
    """Presenter-and-slides scene: podium close-up alternating with slides.

    The alternation forms one temporally related group (two visual
    clusters shown back and forth), the podium shots carry a face
    close-up, and one narrator speaks throughout — exactly the evidence
    the Presentation rule requires.
    """
    if cycles < 2:
        raise VideoError("a presentation needs at least 2 cycles")
    shots = [_shot("podium_wide", 3.0, speaker, "wide", actor=actor, variant=variant)]
    slide_comp = "clipart_fullscreen" if use_clipart else "slide_fullscreen"
    for i in range(cycles):
        shots.append(_shot("podium_speaker", 3.5, speaker, "podium", actor=actor, variant=variant))
        shots.append(
            _shot(slide_comp, 3.0, speaker, f"slide{i}", slide_id=slide_base + i, variant=variant + i)
        )
    return SceneSpec(
        subject=subject,
        event=EventKind.PRESENTATION,
        shots=tuple(shots),
        groups=((0,), tuple(range(1, len(shots)))),
        topic_relevant=True,
        repeat_key=repeat_key,
    )


def dialog_scene(
    subject: str,
    speaker_a: str = "dr_adams",
    speaker_b: str = "patient_chen",
    exchanges: int = 3,
    actor_a: int = 0,
    actor_b: int = 2,
    variant: int = 0,
    repeat_key: str | None = None,
) -> SceneSpec:
    """Doctor-patient dialog: two-shot, then A-B reverse-shot exchanges.

    Adjacent A/B shots both contain face close-ups with a speaker change
    between them, speakers recur, and the alternation forms a temporally
    related group — the Dialog rule's evidence.
    """
    if exchanges < 2:
        raise VideoError("a dialog needs at least 2 exchanges")
    people = {"actor": actor_a, "actor_b": actor_b, "variant": variant}
    shots = [_shot("two_shot", 3.0, speaker_a, "two", **people)]
    for _ in range(exchanges):
        shots.append(_shot("interview_a", 3.0, speaker_a, "cam_a", **people))
        shots.append(_shot("interview_b", 3.0, speaker_b, "cam_b", **people))
    return SceneSpec(
        subject=subject,
        event=EventKind.DIALOG,
        shots=tuple(shots),
        groups=((0,), tuple(range(1, len(shots)))),
        topic_relevant=True,
        repeat_key=repeat_key,
    )


def clinical_scene(
    subject: str,
    narrator: str | None = None,
    steps: int = 3,
    actor: int = 1,
    variant: int = 0,
    include_organ: bool = True,
    repeat_key: str | None = None,
    style: str = "surgery",
) -> SceneSpec:
    """Clinical operation: surgical/diagnostic close-ups, one voice or none.

    Skin close-ups and blood-red regions appear and there is no speaker
    change — the Clinical-operation rule's evidence.  ``style`` selects
    between surgery, dermatology examination, and imaging review.
    """
    if steps < 2:
        raise VideoError("a clinical scene needs at least 2 steps")
    shots: list[ShotSpec] = []
    if style == "surgery":
        shots.append(_shot("surgical_wide", 3.0, narrator, "or_wide", actor=actor, variant=variant))
        for i in range(steps):
            shots.append(
                _shot(
                    "surgical_closeup", 3.5, narrator, f"or_close{i}",
                    actor=actor if i % 2 == 0 else actor + 2,
                    variant=variant + i,
                    coverage=0.40 + 0.10 * (i % 3),
                )
            )
        if include_organ:
            shots.append(_shot("organ_still", 2.5, narrator, "organ", variant=variant))
    elif style == "dermatology":
        for i in range(steps + 1):
            shots.append(
                _shot("limb_exam", 3.0, narrator, f"limb{i % 2}", actor=actor, variant=variant + i)
            )
    elif style == "imaging":
        for i in range(steps + 1):
            shots.append(_shot("scan_display", 3.0, narrator, f"scan{i % 2}", variant=variant + i))
    else:
        raise VideoError(f"unknown clinical style {style!r}")
    return SceneSpec(
        subject=subject,
        event=EventKind.CLINICAL_OPERATION,
        shots=tuple(shots),
        groups=(tuple(range(len(shots))),),
        topic_relevant=True,
        repeat_key=repeat_key,
    )


def or_consultation_scene(
    subject: str,
    speaker_a: str = "dr_adams",
    speaker_b: str = "dr_baker",
    exchanges: int = 2,
    actor_a: int = 0,
    actor_b: int = 1,
    variant: int = 0,
) -> SceneSpec:
    """Intra-operative consultation: surgeons debating over the table.

    Ground truth is *clinical operation* (it is surgery footage), but
    the footage carries dialog evidence — alternating surgeon faces
    with speaker changes — so the paper-style miner tends to call it a
    dialog.  One of the confuser scenes that reproduces Table 1's
    cross-category errors.
    """
    people = {"actor": actor_a, "actor_b": actor_b, "variant": variant}
    shots = [_shot("surgical_wide", 3.0, speaker_a, "or_wide", **people)]
    for _ in range(exchanges):
        shots.append(_shot("surgeon_face_a", 3.0, speaker_a, "sf_a", **people))
        shots.append(_shot("surgeon_face_b", 3.0, speaker_b, "sf_b", **people))
    shots.append(
        _shot(
            "surgical_closeup", 3.0, speaker_a, "or_close_end",
            actor=actor_a + 2, variant=variant, coverage=0.5,
        )
    )
    return SceneSpec(
        subject=subject,
        event=EventKind.CLINICAL_OPERATION,
        shots=tuple(shots),
        groups=((0,), tuple(range(1, len(shots)))),
        topic_relevant=True,
    )


def planning_session_scene(
    subject: str,
    narrator: str = "dr_adams",
    cycles: int = 2,
    actor: int = 0,
    variant: int = 0,
) -> SceneSpec:
    """Surgical planning over diagrams: clinical truth, presentation look.

    A surgeon narrates over clip-art anatomy diagrams and organ
    photographs — clinical-operation ground truth whose slide-like
    frames and face close-ups satisfy the Presentation rule instead.
    """
    shots: list[ShotSpec] = []
    for i in range(cycles):
        shots.append(_shot("surgeon_face_a", 3.0, narrator, "plan_face", actor=actor, variant=variant))
        shots.append(
            _shot("clipart_fullscreen", 3.0, narrator, f"plan_art{i}", variant=variant + 10 + i)
        )
    shots.append(_shot("organ_still", 2.5, narrator, "plan_organ", variant=variant))
    return SceneSpec(
        subject=subject,
        event=EventKind.CLINICAL_OPERATION,
        shots=tuple(shots),
        groups=(tuple(range(len(shots))),),
        topic_relevant=True,
    )


def atlas_lecture_scene(
    subject: str,
    speaker: str = "narrator",
    cycles: int = 2,
    actor: int = 0,
    variant: int = 0,
) -> SceneSpec:
    """Lecture illustrated with organ photographs instead of slides.

    Presentation ground truth; with no slide frames but plenty of
    blood-red imagery and no speaker change, the miner reads it as a
    clinical operation — the reverse confusion of
    :func:`planning_session_scene`.
    """
    shots: list[ShotSpec] = []
    for i in range(cycles):
        shots.append(_shot("podium_speaker", 3.0, speaker, "podium", actor=actor, variant=variant))
        shots.append(_shot("organ_still", 3.0, speaker, f"atlas{i}", variant=variant + i))
    return SceneSpec(
        subject=subject,
        event=EventKind.PRESENTATION,
        shots=tuple(shots),
        groups=(tuple(range(len(shots))),),
        topic_relevant=True,
    )


def voiceover_interview_scene(
    subject: str,
    on_camera: str = "patient_chen",
    off_camera: str = "dr_baker",
    exchanges: int = 2,
    actor: int = 2,
    variant: int = 0,
) -> SceneSpec:
    """Interview with the interviewer off camera.

    Dialog ground truth, but the camera never cuts to the second face:
    the Dialog rule's "adjacent shots which both contain face" evidence
    comes from one person only and the exam close-ups in between break
    the face adjacency, so the miner usually abstains.
    """
    shots: list[ShotSpec] = []
    for i in range(exchanges):
        shots.append(_shot("interview_a", 3.0, on_camera, "vo_face", actor=actor, variant=variant))
        shots.append(
            _shot("limb_exam", 3.0, off_camera, f"vo_exam{i}", actor=actor, variant=variant + i)
        )
    return SceneSpec(
        subject=subject,
        event=EventKind.DIALOG,
        shots=tuple(shots),
        groups=(tuple(range(len(shots))),),
        topic_relevant=True,
    )


def filler_scene(
    subject: str = "corridor transition",
    shots_count: int = 3,
    actor: int = 3,
    variant: int = 0,
) -> SceneSpec:
    """Establishing / transition footage with no mineable event."""
    if shots_count < 1:
        raise VideoError("filler needs at least one shot")
    return SceneSpec(
        subject=subject,
        event=EventKind.UNKNOWN,
        shots=tuple(
            _shot("corridor_walk", 2.5, None, f"walk{i}", actor=actor + i, variant=variant)
            for i in range(shots_count)
        ),
        groups=(tuple(range(shots_count)),),
        topic_relevant=False,
    )


def separator_scene() -> SceneSpec:
    """A short black editing separator (eliminated by scene filtering)."""
    return SceneSpec(
        subject="black separator",
        event=EventKind.UNKNOWN,
        shots=(_shot("black", 1.0, None, "black"),),
        groups=((0,),),
        topic_relevant=False,
    )
