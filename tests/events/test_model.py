"""Tests for the event vocabulary."""

import pytest

from repro.events.model import SceneEvent
from repro.types import EventKind


class TestEventKind:
    def test_known_kinds(self):
        kinds = EventKind.known_kinds()
        assert len(kinds) == 3
        assert EventKind.UNKNOWN not in kinds

    def test_from_label_variants(self):
        assert EventKind.from_label("Presentation") is EventKind.PRESENTATION
        assert EventKind.from_label("clinical operation") is EventKind.CLINICAL_OPERATION
        assert EventKind.from_label("Clinical-Operation") is EventKind.CLINICAL_OPERATION
        assert EventKind.from_label("  dialog ") is EventKind.DIALOG

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError):
            EventKind.from_label("sports")

    def test_is_string_enum(self):
        assert EventKind.DIALOG.value == "dialog"
        assert EventKind("dialog") is EventKind.DIALOG


class TestSceneEvent:
    def test_evidence_tuple(self):
        event = SceneEvent(
            scene_index=0, kind=EventKind.DIALOG, evidence=("a", "b")
        )
        assert event.evidence == ("a", "b")
