"""Liveness / readiness / degradation health reporting.

:func:`server_health` distils one :class:`~repro.serving.server.QueryServer`
into the three answers an orchestrator asks:

* **live** — is the front accepting queries?  It is running (started,
  not stopped); the same test the sharded front applies.
* **ready** — can it answer correctly?  A snapshot generation exists
  and indexes at least one shot.
* **degraded** — is it answering from a weakened position?  True when
  the last snapshot rebuild failed (answers come from the previous good
  generation) or the corpus contains degraded mine results.

The report also folds in the process-wide count of quarantined
artifacts so ``classminer health`` gives one combined view.  Exit-code
mapping: ``ok`` 0, ``degraded`` 1, ``down`` 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.registry import get_registry


@dataclass(frozen=True)
class HealthCheck:
    """One named probe inside a report."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class HealthReport:
    """The combined liveness / readiness / degradation verdict."""

    live: bool
    ready: bool
    degraded: bool
    checks: list[HealthCheck] = field(default_factory=list)

    @property
    def status(self) -> str:
        """``ok``, ``degraded`` or ``down``."""
        if not self.live or not self.ready:
            return "down"
        return "degraded" if self.degraded else "ok"

    @property
    def exit_code(self) -> int:
        """Process exit code for the health CLI (0 ok, 1 degraded, 2 down)."""
        return {"ok": 0, "degraded": 1, "down": 2}[self.status]

    def render(self) -> str:
        """Plain-text report (the ``classminer health`` output)."""
        lines = [
            f"health: {self.status.upper()} "
            f"(live={'yes' if self.live else 'NO'}, "
            f"ready={'yes' if self.ready else 'NO'}, "
            f"degraded={'yes' if self.degraded else 'no'})"
        ]
        for check in self.checks:
            marker = "ok " if check.ok else "FAIL"
            detail = f" — {check.detail}" if check.detail else ""
            lines.append(f"  [{marker}] {check.name}{detail}")
        return "\n".join(lines)


def _registry_value(name: str) -> float:
    try:
        return float(get_registry().snapshot().get(name, 0.0))
    except Exception:  # registry trouble must not break a health probe
        return 0.0


def server_health(server) -> HealthReport:
    """Build a :class:`HealthReport` for one query server.

    Reads only cheap state: the front's admission state, the current
    snapshot's bookkeeping, the last rebuild error and registry gauges —
    never executes a query, so it is safe to call from a tight probe loop.
    """
    checks: list[HealthCheck] = []

    live = server.running
    accepting = (
        f"accepting queries, {server.in_flight} of "
        f"{server.config.queue_depth} in flight"
    )
    checks.append(HealthCheck("front", live, accepting if live else "stopped"))

    manager = server.manager
    generation = manager.generation
    ready = generation >= 1
    shots = 0
    degraded_videos: tuple[str, ...] = ()
    if ready:
        snapshot = manager.current()
        shots = snapshot.shot_count
        degraded_videos = snapshot.degraded_videos
        ready = shots > 0
    checks.append(
        HealthCheck(
            "snapshot",
            ready,
            f"generation {generation}, {shots} shots indexed",
        )
    )

    stale = manager.degraded
    checks.append(
        HealthCheck(
            "rebuild",
            not stale,
            f"generation {generation}"
            + (f", last error: {manager.last_error}" if stale else ""),
        )
    )

    corpus_ok = not degraded_videos
    checks.append(
        HealthCheck(
            "corpus",
            corpus_ok,
            f"{len(degraded_videos)} degraded videos"
            + (f": {', '.join(degraded_videos)}" if degraded_videos else ""),
        )
    )

    quarantined = _registry_value("ingest_artifacts_quarantined_total")
    checks.append(
        HealthCheck(
            "history",
            True,
            f"{int(quarantined)} artifacts quarantined, "
            f"{server.count('errors')} query errors",
        )
    )

    return HealthReport(
        live=live,
        ready=ready,
        degraded=stale or not corpus_ok,
        checks=checks,
    )
