"""Structured progress events for ingest runs.

The executor emits one :class:`JobEvent` per job state change; callers
pass any callable as the sink.  :class:`ProgressTracker` is the default
sink: it tallies events and renders the CLI's live lines and final
summary table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.tables import render_table

#: Event kinds, in rough lifecycle order.
EVENT_KINDS = ("queued", "started", "cached", "retried", "finished", "failed")

#: Type of a progress sink.
ProgressCallback = Callable[["JobEvent"], None]


@dataclass(frozen=True)
class JobEvent:
    """One progress event for one job.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    title / key:
        Which job the event belongs to.
    attempt:
        1-based attempt number (0 when not applicable).
    wall_time:
        Seconds spent on the attempt (``finished``/``failed`` only).
    shots / scenes:
        Mined counts (``finished`` only; None otherwise).
    message:
        Extra human-readable detail (e.g. the error on a retry).
    timestamp:
        Monotonic clock reading (``time.perf_counter()``) at emission,
        so job events can be aligned with observability trace spans.
        Not part of :meth:`describe` — console output is unchanged.
    """

    kind: str
    title: str
    key: str
    attempt: int = 0
    wall_time: float = 0.0
    shots: int | None = None
    scenes: int | None = None
    message: str = ""
    timestamp: float = field(default_factory=time.perf_counter)

    def describe(self) -> str:
        """One console line for the event."""
        parts = [f"[{self.kind:>8}] {self.title}"]
        if self.attempt:
            parts.append(f"attempt {self.attempt}")
        if self.kind in ("finished", "failed"):
            parts.append(f"{self.wall_time:.2f}s")
        if self.shots is not None:
            parts.append(f"{self.shots} shots")
        if self.scenes is not None:
            parts.append(f"{self.scenes} scenes")
        if self.message:
            parts.append(f"({self.message})")
        return " ".join(parts)


@dataclass
class ProgressTracker:
    """Collects job events and renders a run summary.

    Usable directly as the executor's progress callback::

        tracker = ProgressTracker()
        run_jobs(jobs, store, progress=tracker)
        print(tracker.render_summary())
    """

    events: list[JobEvent] = field(default_factory=list)

    def __call__(self, event: JobEvent) -> None:
        """Record one event (the callback protocol)."""
        self.events.append(event)

    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for event in self.events if event.kind == kind)

    def final_events(self) -> list[JobEvent]:
        """The terminal event (cached/finished/failed) of each job."""
        finals: dict[str, JobEvent] = {}
        for event in self.events:
            if event.kind in ("cached", "finished", "failed"):
                finals[event.key] = event
        return list(finals.values())

    def render_summary(self) -> str:
        """Fixed-width table summarising every job's outcome."""
        rows = []
        for event in self.final_events():
            rows.append(
                [
                    event.title,
                    event.kind,
                    event.attempt,
                    f"{event.wall_time:.2f}",
                    "-" if event.shots is None else event.shots,
                    "-" if event.scenes is None else event.scenes,
                ]
            )
        if not rows:
            return "no jobs ran"
        return render_table(
            ["title", "outcome", "attempts", "wall s", "shots", "scenes"],
            rows,
            title="ingest summary",
        )
