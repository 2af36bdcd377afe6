"""Tests for the event vocabulary."""

from repro.events.model import SceneEvent
from repro.types import EventKind


class TestEventKind:
    def test_known_kinds(self):
        kinds = EventKind.known_kinds()
        assert len(kinds) == 3
        assert EventKind.UNKNOWN not in kinds

    def test_is_string_enum(self):
        assert EventKind.DIALOG.value == "dialog"
        assert EventKind("dialog") is EventKind.DIALOG


class TestSceneEvent:
    def test_evidence_tuple(self):
        event = SceneEvent(
            scene_index=0, kind=EventKind.DIALOG, evidence=("a", "b")
        )
        assert event.evidence == ("a", "b")
