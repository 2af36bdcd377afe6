"""Tests for skin, blood, face and special-frame detectors.

Fixtures render frames through the same composition pipeline the
generator uses, so these tests cover the detectors under realistic
conditions (with scenery, not just flat patches).
"""

import numpy as np
import pytest

from repro.video.frame import Frame
from repro.video.synthesis.compositions import ShotParams, render_composition
from repro.vision.blood import detect_blood
from repro.vision.cues import extract_cues
from repro.vision.face import detect_faces, template_curve_score
from repro.vision.frames import (
    SpecialFrameKind,
    classify_special_frame,
    text_band_count,
)
from repro.vision.regions import label_regions
from repro.vision.skin import detect_skin
from tests.helpers import blank_frame


def _frame(composition: str, **params) -> Frame:
    canvas = render_composition(
        composition, 64, 80, seed=7, params=ShotParams(**params), t=0.4
    )
    return Frame(pixels=canvas)


class TestSkin:
    def test_surgical_closeup_is_skin_closeup(self):
        detection = detect_skin(_frame("surgical_closeup"))
        assert detection.has_skin
        assert detection.has_closeup
        assert detection.largest_fraction > 0.2

    def test_limb_exam_is_skin_closeup(self):
        assert detect_skin(_frame("limb_exam")).has_closeup

    def test_slide_has_no_skin(self):
        detection = detect_skin(_frame("slide_fullscreen"))
        assert not detection.has_skin

    def test_scan_has_no_skin(self):
        assert not detect_skin(_frame("scan_display")).has_skin

    def test_face_shot_has_skin_but_no_closeup(self):
        detection = detect_skin(_frame("interview_a"))
        assert detection.has_skin
        assert not detection.has_closeup


class TestBlood:
    def test_incision_detected(self):
        detection = detect_blood(_frame("surgical_closeup"))
        assert detection.has_blood

    def test_organ_detected(self):
        detection = detect_blood(_frame("organ_still"))
        assert detection.has_blood
        assert detection.largest_fraction > 0.1

    def test_interview_has_no_blood(self):
        assert not detect_blood(_frame("interview_a")).has_blood

    def test_lecture_has_no_blood(self):
        assert not detect_blood(_frame("podium_wide")).has_blood


class TestFace:
    def test_interview_closeup_detected(self):
        detection = detect_faces(_frame("interview_a"))
        assert detection.has_face
        assert detection.has_closeup
        assert detection.largest_fraction >= 0.10

    def test_reverse_shot_detected(self):
        assert detect_faces(_frame("interview_b")).has_closeup

    def test_podium_speaker_closeup(self):
        assert detect_faces(_frame("podium_speaker")).has_closeup

    def test_surgical_field_is_not_a_face(self):
        # Large elliptical skin blob without facial features.
        detection = detect_faces(_frame("surgical_closeup"))
        assert not detection.has_face

    def test_slide_has_no_face(self):
        assert not detect_faces(_frame("slide_fullscreen")).has_face

    def test_template_score_prefers_ellipse(self):
        ellipse = np.zeros((30, 30), dtype=bool)
        ys, xs = np.mgrid[0:30, 0:30]
        ellipse[((ys - 15) / 12.0) ** 2 + ((xs - 15) / 9.0) ** 2 <= 1] = True
        _, regions = label_regions(ellipse)
        assert template_curve_score(ellipse, regions[0]) > 0.9

        square = np.zeros((30, 30), dtype=bool)
        square[5:25, 5:25] = True
        _, regions = label_regions(square)
        assert template_curve_score(square, regions[0]) < 0.5


class TestSpecialFrames:
    @pytest.mark.parametrize(
        "composition,expected",
        [
            ("slide_fullscreen", SpecialFrameKind.SLIDE),
            ("clipart_fullscreen", SpecialFrameKind.CLIPART),
            ("sketch_fullscreen", SpecialFrameKind.SKETCH),
            ("black", SpecialFrameKind.BLACK),
            ("podium_speaker", SpecialFrameKind.NATURAL),
            ("interview_a", SpecialFrameKind.NATURAL),
            ("surgical_closeup", SpecialFrameKind.NATURAL),
            ("organ_still", SpecialFrameKind.NATURAL),
            ("scan_display", SpecialFrameKind.NATURAL),
            ("corridor_walk", SpecialFrameKind.NATURAL),
        ],
    )
    def test_classification(self, composition, expected):
        assert classify_special_frame(_frame(composition)) is expected

    def test_black_frame_shortcut(self):
        assert classify_special_frame(blank_frame(64, 80)) is SpecialFrameKind.BLACK

    @pytest.mark.parametrize("composition", ["slide_fullscreen", "clipart_fullscreen", "organ_still"])
    def test_a_histogram_at_hand_is_used_not_recomputed(self, composition, monkeypatch):
        """``EventMiner.visual_cues`` passes the row each ``Shot`` already holds."""
        from repro.vision import frames
        from repro.vision.histogram import hsv_histogram

        frame = _frame(composition)
        histogram = hsv_histogram(frame)
        expected = classify_special_frame(frame)
        cues = extract_cues(frame)
        monkeypatch.setattr(frames, "hsv_histogram", None)  # calling it would raise
        assert classify_special_frame(frame, histogram) is expected
        assert extract_cues(frame, histogram) == cues

    def test_slide_has_text_bands(self):
        assert text_band_count(_frame("slide_fullscreen")) >= 2

    def test_kind_predicates(self):
        assert SpecialFrameKind.SLIDE.is_man_made
        assert SpecialFrameKind.SLIDE.is_slide_like
        assert SpecialFrameKind.CLIPART.is_slide_like
        assert not SpecialFrameKind.BLACK.is_slide_like
        assert not SpecialFrameKind.NATURAL.is_man_made


class TestCues:
    def test_cue_bundle_for_clinical(self):
        cues = extract_cues(_frame("surgical_closeup"))
        assert cues.has_skin_closeup
        assert cues.has_blood
        assert not cues.is_slide_like

    def test_man_made_frames_skip_region_detectors(self):
        cues = extract_cues(_frame("slide_fullscreen"))
        assert cues.is_slide_like
        assert not cues.has_face
        assert not cues.has_skin
        assert not cues.has_blood

    def test_interview_cues(self):
        cues = extract_cues(_frame("interview_b"))
        assert cues.has_face_closeup
        assert not cues.has_blood
