"""The event colour bar (Fig. 11).

The tool shows a horizontal bar under the player; the colour of each
region tells the user which event category that part of the video
belongs to, so scenes can be accessed by event directly.  We model the
bar as labelled frame spans plus a terminal rendering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.structure import ContentStructure
from repro.errors import SkimmingError
from repro.events.model import SceneEvent
from repro.types import EventKind

#: One-character glyph per event for plain-text rendering.
EVENT_GLYPHS: dict[EventKind, str] = {
    EventKind.PRESENTATION: "P",
    EventKind.DIALOG: "D",
    EventKind.CLINICAL_OPERATION: "C",
    EventKind.UNKNOWN: ".",
}


@dataclass(frozen=True)
class ColorBarSpan:
    """One coloured region of the bar: frames ``[start, stop)``."""

    start: int
    stop: int
    event: EventKind


def build_color_bar(
    structure: ContentStructure, events: list[SceneEvent]
) -> list[ColorBarSpan]:
    """Label every frame span of the video with its scene's event.

    Gaps (eliminated scenes, separators) appear as UNKNOWN spans so the
    bar always tiles ``[0, total_frames)``.
    """
    if not structure.shots:
        raise SkimmingError("structure has no shots")
    by_scene = {event.scene_index: event.kind for event in events}
    total = structure.shots[-1].stop

    spans: list[ColorBarSpan] = []
    cursor = 0
    for scene in structure.scenes:
        start, stop = scene.frame_span
        if start > cursor:
            spans.append(ColorBarSpan(cursor, start, EventKind.UNKNOWN))
        spans.append(
            ColorBarSpan(start, stop, by_scene.get(scene.scene_id, EventKind.UNKNOWN))
        )
        cursor = stop
    if cursor < total:
        spans.append(ColorBarSpan(cursor, total, EventKind.UNKNOWN))
    return spans


def event_at_frame(spans: list[ColorBarSpan], frame: int) -> EventKind:
    """The event colour under the playhead at ``frame``."""
    for span in spans:
        if span.start <= frame < span.stop:
            return span.event
    raise SkimmingError(f"frame {frame} outside the colour bar")


def render_text_bar(spans: list[ColorBarSpan], width: int = 72) -> str:
    """Render the bar as one line of glyphs (P/D/C/.) for terminals."""
    if not spans:
        raise SkimmingError("no spans to render")
    total = spans[-1].stop
    cells = []
    for i in range(width):
        frame = int(i / width * total)
        cells.append(EVENT_GLYPHS[event_at_frame(spans, frame)])
    return "".join(cells)
