"""Aggregated visual cues for one representative frame (Sec. 4.1).

Event mining consumes five kinds of evidence per shot: special-frame
class (slide / clip art / black / sketch), faces, face close-ups, skin
close-ups and blood-red regions.  :func:`extract_cues` runs every
detector once and bundles the results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.video.frame import Frame
from repro.vision.blood import BloodDetection, detect_blood
from repro.vision.face import FaceDetection, detect_faces
from repro.vision.frames import SpecialFrameKind, classify_special_frame
from repro.vision.skin import SkinDetection, detect_skin


@dataclass(frozen=True)
class VisualCues:
    """All visual evidence extracted from one representative frame."""

    special: SpecialFrameKind
    face: FaceDetection
    skin: SkinDetection
    blood: BloodDetection

    @property
    def is_slide_like(self) -> bool:
        """Slide or clip-art frame (Presentation evidence)."""
        return self.special.is_slide_like

    @property
    def has_face(self) -> bool:
        """At least one verified face."""
        return self.face.has_face

    @property
    def has_face_closeup(self) -> bool:
        """Verified face covering more than 10% of the frame."""
        return self.face.has_closeup

    @property
    def has_skin(self) -> bool:
        """At least one accepted skin region."""
        return self.skin.has_skin

    @property
    def has_skin_closeup(self) -> bool:
        """Skin region covering more than 20% of the frame."""
        return self.skin.has_closeup

    @property
    def has_blood(self) -> bool:
        """At least one accepted blood-red region."""
        return self.blood.has_blood


def extract_cues(frame: Frame, histogram: np.ndarray | None = None) -> VisualCues:
    """Run all visual detectors on one representative frame.

    ``histogram`` is the frame's HSV histogram when the caller holds it.

    Man-made frames (slides, clip art, black) skip the region detectors:
    they cannot contain faces, skin or blood, and the colour models would
    only produce noise on them.
    """
    special = classify_special_frame(frame, histogram)
    if special.is_man_made:
        empty_face = FaceDetection(
            faces=(), has_face=False, has_closeup=False, largest_fraction=0.0
        )
        empty_skin = SkinDetection(
            regions=(),
            mask_fraction=0.0,
            largest_fraction=0.0,
            has_skin=False,
            has_closeup=False,
        )
        empty_blood = BloodDetection(
            regions=(), mask_fraction=0.0, largest_fraction=0.0, has_blood=False
        )
        return VisualCues(
            special=special, face=empty_face, skin=empty_skin, blood=empty_blood
        )
    return VisualCues(
        special=special,
        face=detect_faces(frame),
        skin=detect_skin(frame),
        blood=detect_blood(frame),
    )
