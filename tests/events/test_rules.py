"""Unit tests for the Sec. 4.3 decision rules on constructed evidence."""

import numpy as np
import pytest

from repro.core.features import Shot
from repro.core.groups import Group, GroupKind
from repro.core.scenes import Scene
from repro.errors import EventMiningError
from repro.events import rules as event_rules
from repro.events.rules import SceneEvidence, classify_scene
from repro.types import EventKind
from repro.vision.blood import BloodDetection
from repro.vision.face import FaceDetection
from repro.vision.frames import SpecialFrameKind
from repro.vision.skin import SkinDetection
from repro.vision.cues import VisualCues
from tests.helpers import blank_frame

# Local aliases: the rule functions are named test_* in the library
# (after the paper's wording), so they must not be imported under those
# names or pytest would try to collect them.
rule_presentation = event_rules.test_presentation
rule_dialog = event_rules.test_dialog
rule_clinical = event_rules.test_clinical_operation


def _shot(shot_id: int) -> Shot:
    histogram = np.zeros(256)
    histogram[shot_id % 256] = 1.0
    return Shot(
        shot_id=shot_id,
        start=shot_id * 10,
        stop=(shot_id + 1) * 10,
        fps=10.0,
        representative_frame=blank_frame(4, 4),
        histogram=histogram,
        texture=np.zeros(10),
    )


def _scene(num_shots: int, temporal: bool = True) -> Scene:
    shots = [_shot(i) for i in range(num_shots)]
    group = Group(
        group_id=0,
        shots=shots,
        kind=GroupKind.TEMPORAL if temporal else GroupKind.SPATIAL,
    )
    return Scene(scene_id=0, groups=[group], representative_group=group)


def _cues(
    special: SpecialFrameKind = SpecialFrameKind.NATURAL,
    face: bool = False,
    face_closeup: bool = False,
    skin: bool = False,
    skin_closeup: bool = False,
    blood: bool = False,
) -> VisualCues:
    return VisualCues(
        special=special,
        face=FaceDetection(
            faces=(),
            has_face=face or face_closeup,
            has_closeup=face_closeup,
            largest_fraction=0.15 if face_closeup else (0.05 if face else 0.0),
        ),
        skin=SkinDetection(
            regions=(),
            mask_fraction=0.0,
            largest_fraction=0.3 if skin_closeup else (0.05 if skin else 0.0),
            has_skin=skin or skin_closeup,
            has_closeup=skin_closeup,
        ),
        blood=BloodDetection(
            regions=(), mask_fraction=0.0,
            largest_fraction=0.1 if blood else 0.0, has_blood=blood,
        ),
    )


def _evidence(scene, cue_list, changes, same_pairs=()):
    return SceneEvidence(
        scene=scene,
        cues={i: cue for i, cue in enumerate(cue_list)},
        audio={},
        adjacent_changes=list(changes),
        same_speaker_pairs=set(same_pairs),
    )


class TestPresentationRule:
    def _good(self):
        scene = _scene(4, temporal=True)
        cues = [
            _cues(face_closeup=True, skin=True),
            _cues(special=SpecialFrameKind.SLIDE),
            _cues(face_closeup=True, skin=True),
            _cues(special=SpecialFrameKind.SLIDE),
        ]
        return scene, cues

    def test_fires_on_full_evidence(self):
        scene, cues = self._good()
        ok, notes = rule_presentation(_evidence(scene, cues, [False] * 3))
        assert ok
        assert any("slide" in note for note in notes)

    def test_clipart_counts_as_slide(self):
        scene, cues = self._good()
        cues[1] = _cues(special=SpecialFrameKind.CLIPART)
        ok, _ = rule_presentation(_evidence(scene, cues, [False] * 3))
        assert ok

    def test_requires_slide(self):
        scene, cues = self._good()
        cues[1] = _cues()
        cues[3] = _cues()
        ok, notes = rule_presentation(_evidence(scene, cues, [False] * 3))
        assert not ok
        assert "no slide or clip-art frame" in notes

    def test_requires_face_closeup(self):
        scene, cues = self._good()
        cues[0] = _cues(face=True)
        cues[2] = _cues(face=True)
        ok, notes = rule_presentation(_evidence(scene, cues, [False] * 3))
        assert not ok
        assert "no face close-up" in notes[-1]

    def test_requires_temporal_group(self):
        scene = _scene(4, temporal=False)
        _, cues = self._good()
        ok, notes = rule_presentation(_evidence(scene, cues, [False] * 3))
        assert not ok
        assert "spatially related" in notes[-1]

    def test_rejects_speaker_change(self):
        scene, cues = self._good()
        ok, notes = rule_presentation(_evidence(scene, cues, [False, True, False]))
        assert not ok
        assert "speaker change" in notes[-1]

    def test_untestable_changes_do_not_block(self):
        scene, cues = self._good()
        ok, _ = rule_presentation(_evidence(scene, cues, [None, None, None]))
        assert ok


class TestDialogRule:
    def _good(self):
        scene = _scene(4, temporal=True)
        cues = [_cues(face_closeup=True, skin=True) for _ in range(4)]
        changes = [True, True, True]
        same_pairs = {(0, 2), (1, 3)}
        return scene, cues, changes, same_pairs

    def test_fires_on_full_evidence(self):
        scene, cues, changes, pairs = self._good()
        ok, _ = rule_dialog(_evidence(scene, cues, changes, pairs))
        assert ok

    def test_requires_adjacent_faces(self):
        scene, cues, changes, pairs = self._good()
        cues[1] = _cues()
        cues[3] = _cues()
        ok, notes = rule_dialog(_evidence(scene, cues, changes, pairs))
        assert not ok
        assert "no adjacent face-bearing shots" in notes

    def test_requires_temporal_group(self):
        scene = _scene(4, temporal=False)
        _, cues, changes, pairs = self._good()
        ok, _ = rule_dialog(_evidence(scene, cues, changes, pairs))
        assert not ok

    def test_requires_speaker_change_between_faces(self):
        scene, cues, _, pairs = self._good()
        ok, notes = rule_dialog(_evidence(scene, cues, [False] * 3, pairs))
        assert not ok
        assert "no speaker change" in notes[-1]

    def test_requires_duplicated_speaker(self):
        scene, cues, changes, _ = self._good()
        ok, notes = rule_dialog(_evidence(scene, cues, changes, set()))
        assert not ok
        assert "no duplicated speaker" in notes[-1]


class TestClinicalRule:
    def test_fires_on_skin_closeup(self):
        scene = _scene(3)
        cues = [_cues(skin_closeup=True), _cues(), _cues()]
        ok, _ = rule_clinical(_evidence(scene, cues, [False, False]))
        assert ok

    def test_fires_on_blood(self):
        scene = _scene(3)
        cues = [_cues(), _cues(blood=True), _cues()]
        ok, _ = rule_clinical(_evidence(scene, cues, [None, None]))
        assert ok

    def test_fires_on_majority_skin(self):
        scene = _scene(3)
        cues = [_cues(skin=True), _cues(skin=True), _cues()]
        ok, notes = rule_clinical(_evidence(scene, cues, [False, False]))
        assert ok
        assert "skin regions in 2/3" in notes[-1]

    def test_rejects_speaker_change(self):
        scene = _scene(3)
        cues = [_cues(skin_closeup=True), _cues(), _cues()]
        ok, _ = rule_clinical(_evidence(scene, cues, [True, False]))
        assert not ok

    def test_rejects_without_evidence(self):
        scene = _scene(3)
        cues = [_cues(), _cues(), _cues()]
        ok, notes = rule_clinical(_evidence(scene, cues, [False, False]))
        assert not ok
        assert "insufficient" in notes[-1]


class TestClassifyScene:
    def test_priority_order(self):
        """A scene satisfying presentation AND clinical goes to
        presentation: the rules are tested in the paper's order."""
        scene = _scene(4, temporal=True)
        cues = [
            _cues(face_closeup=True, skin_closeup=True, blood=True),
            _cues(special=SpecialFrameKind.SLIDE),
            _cues(face_closeup=True, skin=True),
            _cues(special=SpecialFrameKind.SLIDE),
        ]
        event = classify_scene(_evidence(scene, cues, [False] * 3))
        assert event.kind is EventKind.PRESENTATION

    def test_unknown_when_nothing_matches(self):
        scene = _scene(3)
        cues = [_cues(), _cues(), _cues()]
        event = classify_scene(_evidence(scene, cues, [True, True]))
        assert event.kind is EventKind.UNKNOWN
        assert event.evidence == ("no rule matched",)

    def test_missing_cues_raise(self):
        scene = _scene(2)
        with pytest.raises(EventMiningError):
            SceneEvidence(scene=scene, cues={0: _cues()}, audio={})
