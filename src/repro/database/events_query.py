"""Event-based queries: "Show me all patient-doctor dialogs" (Sec. 4).

The paper motivates event mining with exactly this query.  Once videos
are registered, their scenes carry mined event labels, so answering it
is a walk over the catalog filtered by event kind — with access control
applied at the scene-concept level, the same way search is guarded.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.database.access import AccessController, User
from repro.database.hierarchy import VIDEO_SUBJECT_AREAS
from repro.errors import UnknownVideoError
from repro.types import EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.database.catalog import RegisteredVideo, VideoDatabase


@dataclass(frozen=True)
class EventHit:
    """One scene matching an event query.

    Attributes
    ----------
    video_title / scene_id:
        Where the scene lives.
    event:
        The mined event kind (always the queried kind).
    concept:
        The scene-level concept node the scene is filed under.
    """

    video_title: str
    scene_id: int
    event: EventKind
    concept: str


def event_concept(video_title: str, event: EventKind) -> str:
    """Scene-level concept name a video's event scenes are filed under."""
    area = VIDEO_SUBJECT_AREAS.get(video_title, "general")
    return f"{area}/{event.value}"


def query_event_records(
    records: "Mapping[str, RegisteredVideo]",
    controller: AccessController,
    kind: EventKind,
    user: User | None = None,
    video_title: str | None = None,
) -> list[EventHit]:
    """Event query over registration records (the snapshot-friendly core).

    :func:`query_events` delegates here; the serving layer's immutable
    snapshots call this directly so event queries never touch the live,
    mutable :class:`~repro.database.catalog.VideoDatabase`.
    """
    videos = dict(records)
    if video_title is not None:
        if video_title not in videos:
            raise UnknownVideoError(f"video {video_title!r} is not registered")
        videos = {video_title: videos[video_title]}

    hits: list[EventHit] = []
    for title, record in sorted(videos.items()):
        concept = event_concept(title, kind)
        if user is not None and not controller.check(user, concept):
            continue
        for scene_id, event_value in sorted(record.events.items()):
            if event_value != kind.value:
                continue
            hits.append(
                EventHit(
                    video_title=title,
                    scene_id=scene_id,
                    event=kind,
                    concept=concept,
                )
            )
    return hits


def query_events(
    database: "VideoDatabase",
    kind: EventKind,
    user: User | None = None,
    video_title: str | None = None,
) -> list[EventHit]:
    """All scenes of the given event kind, access-filtered.

    Parameters
    ----------
    database:
        The catalog to query.
    kind:
        Which event to retrieve (e.g. :attr:`EventKind.DIALOG`).
    user:
        When given, scenes whose concept the user may not access are
        silently filtered (and the denial is audited).
    video_title:
        Restrict to one registered video.

    Raises
    ------
    DatabaseError
        If ``video_title`` names an unregistered video.
    """
    return query_event_records(
        database.videos,
        database.controller,
        kind,
        user=user,
        video_title=video_title,
    )


def event_census(
    database: "VideoDatabase", user: User | None = None
) -> dict[EventKind, int]:
    """Scene counts per event kind across the (permitted) catalog."""
    return {
        kind: len(query_events(database, kind, user=user))
        for kind in EventKind
    }
