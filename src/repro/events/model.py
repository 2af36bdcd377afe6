"""Event vocabulary shared across the system.

The paper mines three event categories from detected scenes (Sec. 4):
*presentation*, *dialog* and *clinical operation*.  Scenes whose event
cannot be determined are labelled :attr:`EventKind.UNKNOWN`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import EventKind

__all__ = ["EventKind", "SceneEvent"]


@dataclass(frozen=True)
class SceneEvent:
    """The mined event for one scene.

    Attributes
    ----------
    scene_index:
        Index of the scene within the mined content structure.
    kind:
        Assigned category (or :attr:`EventKind.UNKNOWN`).
    evidence:
        Human-readable notes on which rules fired; useful for debugging
        and for the skimming tool's event indicator.
    """

    scene_index: int
    kind: EventKind
    evidence: tuple[str, ...] = ()
