"""Dependency-free shared vocabulary.

:class:`EventKind` lives here (rather than in :mod:`repro.events`) so
the video ground-truth annotations can name event categories without
importing the event-mining machinery — which itself depends on the
video substrate.
"""

from __future__ import annotations

from enum import Enum


class EventKind(str, Enum):
    """Semantic event category of a video scene (Sec. 4)."""

    PRESENTATION = "presentation"
    DIALOG = "dialog"
    CLINICAL_OPERATION = "clinical_operation"
    UNKNOWN = "unknown"

    @classmethod
    def known_kinds(cls) -> tuple["EventKind", ...]:
        """The three categories the paper's miner can assign."""
        return (cls.PRESENTATION, cls.DIALOG, cls.CLINICAL_OPERATION)
