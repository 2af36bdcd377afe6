"""Bounded slow-query log: the N slowest queries this process served.

Both query paths (:class:`~repro.serving.server.QueryServer` and the
sharded :class:`~repro.net.coordinator.ShardedQueryService`) record
every finished query here; the log keeps only the ``capacity`` slowest
in a bounded min-heap, so memory stays flat under load and the fast
path pays one lock plus a float compare per query. Exposed over HTTP
at ``GET /debug/slow`` and on the CLI as ``classminer obs slow --url``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import format_seconds

#: Default number of slow queries retained.
DEFAULT_CAPACITY = 32


@dataclass(frozen=True)
class SlowQuery:
    """One recorded query, slowest-first material for the log."""

    kind: str
    elapsed_seconds: float
    backend: str
    comparisons: int = 0
    approx_comparisons: int = 0
    cache_hit: bool = False
    degraded: bool = False
    shards_missing: tuple[int, ...] = ()
    trace_id: str | None = None
    wall_time: float = field(default_factory=time.time)

    def to_json(self) -> dict:
        """Plain-data form for the HTTP/CLI surfaces."""
        return {
            "kind": self.kind,
            "elapsed_ms": round(self.elapsed_seconds * 1e3, 3),
            "backend": self.backend,
            "comparisons": self.comparisons,
            "approx_comparisons": self.approx_comparisons,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "shards_missing": list(self.shards_missing),
            "trace_id": self.trace_id,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_json(cls, entry: dict) -> "SlowQuery":
        """Inverse of :meth:`to_json` (tolerant of missing keys)."""
        return cls(
            kind=str(entry.get("kind", "?")),
            elapsed_seconds=float(entry.get("elapsed_ms", 0.0)) / 1e3,
            backend=str(entry.get("backend", "?")),
            comparisons=int(entry.get("comparisons", 0)),
            approx_comparisons=int(entry.get("approx_comparisons", 0)),
            cache_hit=bool(entry.get("cache_hit", False)),
            degraded=bool(entry.get("degraded", False)),
            shards_missing=tuple(entry.get("shards_missing", ())),
            trace_id=entry.get("trace_id"),
        )


class SlowQueryLog:
    """Thread-safe bounded buffer retaining the slowest queries seen."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("slow-query log capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        # Min-heap of (elapsed, tiebreak, entry): the root is the
        # *fastest* retained query, evicted first when full.
        self._heap: list[tuple[float, int, SlowQuery]] = []
        self._tiebreak = itertools.count()
        self._recorded = 0

    @property
    def capacity(self) -> int:
        """Maximum number of entries retained."""
        return self._capacity

    @property
    def recorded(self) -> int:
        """Total queries ever offered to the log."""
        with self._lock:
            return self._recorded

    def record(self, entry: SlowQuery) -> None:
        """Offer one finished query; kept only if among the slowest."""
        with self._lock:
            self._recorded += 1
            item = (entry.elapsed_seconds, next(self._tiebreak), entry)
            if len(self._heap) < self._capacity:
                heapq.heappush(self._heap, item)
            elif entry.elapsed_seconds > self._heap[0][0]:
                heapq.heapreplace(self._heap, item)

    def entries(self) -> list[SlowQuery]:
        """Retained queries, slowest first."""
        with self._lock:
            items = list(self._heap)
        items.sort(key=lambda item: (-item[0], item[1]))
        return [entry for _elapsed, _tie, entry in items]

    def clear(self) -> None:
        """Drop every retained entry (counters too)."""
        with self._lock:
            self._heap.clear()
            self._recorded = 0

    def render(self) -> str:
        """Human-readable table, slowest first."""
        entries = self.entries()
        if not entries:
            return "(no queries recorded)"
        lines = [
            f"slowest {len(entries)} of {self.recorded} queries "
            f"(capacity {self._capacity})",
            f"{'elapsed':>9}  {'kind':<9} {'backend':<8} {'cmp':>8} "
            f"{'~cmp':>8} {'cache':<5} {'flags':<12} trace",
        ]
        for entry in entries:
            flags = []
            if entry.degraded:
                flags.append("degraded")
            if entry.shards_missing:
                flags.append(f"miss={list(entry.shards_missing)}")
            lines.append(
                f"{format_seconds(entry.elapsed_seconds):>9}  "
                f"{entry.kind:<9} {entry.backend:<8} "
                f"{entry.comparisons:>8} {entry.approx_comparisons:>8} "
                f"{'hit' if entry.cache_hit else 'miss':<5} "
                f"{','.join(flags) or '-':<12} {entry.trace_id or '-'}"
            )
        return "\n".join(lines)


#: The process-wide slow-query log both serving paths record into.
_GLOBAL_SLOW_LOG: SlowQueryLog | None = None
_GLOBAL_LOCK = threading.Lock()


def get_slow_log() -> SlowQueryLog:
    """The process-global :class:`SlowQueryLog` (created on first use)."""
    global _GLOBAL_SLOW_LOG
    with _GLOBAL_LOCK:
        if _GLOBAL_SLOW_LOG is None:
            _GLOBAL_SLOW_LOG = SlowQueryLog()
        return _GLOBAL_SLOW_LOG
