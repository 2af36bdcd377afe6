"""Deterministic fault injection at named fault points.

Every runtime layer instruments its failure-relevant sites with a
*fault point*::

    from repro.resilience.faults import fault_point

    def load(self, key):
        fault_point("ingest.artifact.read")
        ...

When no plan is armed (the shipped default), :func:`fault_point`
dispatches to :data:`NULL_PLAN` — one attribute read plus a no-op
method, mirroring the :class:`~repro.obs.trace.NullTracer` pattern, so
instrumentation is zero-cost in production.

An armed :class:`FaultPlan` is **seeded and deterministic**: firing
decisions come from one :class:`random.Random` stream plus per-point
hit counters, so the same plan against the same workload injects the
same faults — chaos runs are replayable.  Three fault kinds exist:

* ``error`` — raise :class:`~repro.errors.FaultInjectedError` at the
  point (the containing layer must handle it like any organic failure);
* ``latency`` — sleep ``delay`` seconds before continuing;
* ``corruption`` — flip bytes in a payload passed through
  :func:`corrupt_payload` (used by the artifact store to simulate disk
  corruption *after* checksums were computed).

The canonical fault-point names are listed in
:data:`KNOWN_FAULT_POINTS`; see ``docs/RELIABILITY.md`` for the
catalog with the behaviour each layer guarantees under injection.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import FaultInjectedError, ReproError

#: Recognised fault kinds.
FAULT_KINDS = ("error", "latency", "corruption")

#: The instrumented fault points (catalog; plans may also use globs).
KNOWN_FAULT_POINTS = (
    "mine.shots",
    "mine.groups",
    "mine.scenes",
    "mine.clustering",
    "mine.cues",
    "mine.audio",
    "mine.events",
    "ingest.mine",
    "ingest.artifact.write",
    "ingest.artifact.read",
    "ingest.rebuild",
    "serve.rebuild",
    "serve.query",
    "storage.db_locked",
    "storage.mmap_truncated",
    "net.rpc",
    "net.connect_refused",
    "net.frame_corrupt",
    "net.frame_truncated",
    "net.slow_shard",
    "net.conn_reset",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule inside a plan.

    Attributes
    ----------
    point:
        Exact fault-point name, or a prefix glob ending in ``*``
        (``"mine.*"`` matches every pipeline stage).
    kind:
        ``error``, ``latency`` or ``corruption``.
    probability:
        Chance of firing per hit (decided on the plan's seeded RNG).
    every_nth:
        Fire deterministically on every Nth hit of the point instead of
        by probability (1 = every hit).
    delay:
        Seconds to sleep when a latency fault fires.
    limit:
        Maximum total firings of this spec (None = unbounded).
    message:
        Text carried by the injected error.
    """

    point: str
    kind: str = "error"
    probability: float = 1.0
    every_nth: int | None = None
    delay: float = 0.01
    limit: int | None = None
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError("fault probability must be within [0, 1]")
        if self.every_nth is not None and self.every_nth < 1:
            raise ReproError("every_nth must be >= 1")

    def matches(self, point: str) -> bool:
        """Whether this spec applies to a hit at ``point``."""
        if self.point.endswith("*"):
            return point.startswith(self.point[:-1])
        return point == self.point


@dataclass(frozen=True)
class FaultEvent:
    """One fault that actually fired (for reports and assertions)."""

    point: str
    kind: str
    hit: int


class FaultPlan:
    """A seeded, deterministic set of fault rules.

    Thread-safe: serving workers and the ingest loop may hit points
    concurrently; decisions and bookkeeping serialise on one lock (the
    cost only exists while a plan is armed).
    """

    enabled = True

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = (), seed: int = 0) -> None:
        self._specs = tuple(specs)
        self._seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._firings: dict[int, int] = {}  # spec index -> times fired
        self._events: list[FaultEvent] = []

    @property
    def specs(self) -> tuple[FaultSpec, ...]:
        """The plan's fault rules."""
        return self._specs

    @property
    def seed(self) -> int:
        """The seed the firing decisions derive from."""
        return self._seed

    def _should_fire(self, index: int, spec: FaultSpec, hit: int) -> bool:
        if spec.limit is not None and self._firings.get(index, 0) >= spec.limit:
            return False
        if spec.every_nth is not None:
            return hit % spec.every_nth == 0
        if spec.probability >= 1.0:
            return True
        return self._rng.random() < spec.probability

    def _fire(self, index: int, spec: FaultSpec, point: str, hit: int) -> None:
        self._firings[index] = self._firings.get(index, 0) + 1
        self._events.append(FaultEvent(point=point, kind=spec.kind, hit=hit))

    def hit(self, point: str) -> None:
        """Evaluate a hit at ``point``: maybe sleep, maybe raise."""
        delay = 0.0
        error: FaultInjectedError | None = None
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            for index, spec in enumerate(self._specs):
                if spec.kind == "corruption" or not spec.matches(point):
                    continue
                if not self._should_fire(index, spec, hit):
                    continue
                self._fire(index, spec, point, hit)
                if spec.kind == "latency":
                    delay += spec.delay
                elif error is None:
                    error = FaultInjectedError(f"{point}: {spec.message}")
        if delay > 0.0:
            time.sleep(delay)
        if error is not None:
            raise error

    def corrupt(self, point: str, payload: bytes) -> bytes:
        """Apply any firing corruption fault to ``payload``.

        Flips one byte per eight bytes of payload (at deterministic,
        seed-derived offsets), enough to defeat any checksum while
        keeping the payload length intact.
        """
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            flips: list[int] = []
            for index, spec in enumerate(self._specs):
                if spec.kind != "corruption" or not spec.matches(point):
                    continue
                if not self._should_fire(index, spec, hit):
                    continue
                self._fire(index, spec, point, hit)
                if payload:
                    count = max(1, len(payload) // 8)
                    flips.extend(
                        self._rng.randrange(len(payload)) for _ in range(count)
                    )
        if not flips:
            return payload
        mutated = bytearray(payload)
        for offset in flips:
            mutated[offset] ^= 0xFF
        return bytes(mutated)

    # -- introspection ------------------------------------------------

    def hits(self, point: str) -> int:
        """How many times ``point`` was evaluated."""
        with self._lock:
            return self._hits.get(point, 0)

    def fired(self, point: str | None = None, kind: str | None = None) -> int:
        """Total faults fired, optionally filtered by point and/or kind."""
        with self._lock:
            return sum(
                1
                for event in self._events
                if (point is None or event.point == point)
                and (kind is None or event.kind == kind)
            )

    def events(self) -> list[FaultEvent]:
        """Every fault that fired, in order."""
        with self._lock:
            return list(self._events)

    def report(self) -> str:
        """Plain-text summary: per-point hits and firings."""
        with self._lock:
            events = list(self._events)
            hits = dict(self._hits)
        lines = [f"fault plan (seed={self._seed}): {len(events)} faults fired"]
        for point in sorted(hits):
            fired = sum(1 for e in events if e.point == point)
            kinds = sorted({e.kind for e in events if e.point == point})
            detail = f" ({','.join(kinds)})" if kinds else ""
            lines.append(f"  {point:<24} {hits[point]:>5} hits, {fired} fired{detail}")
        return "\n".join(lines)


class NullFaultPlan:
    """The disarmed plan: every operation is a no-op."""

    enabled = False

    def hit(self, _point: str) -> None:
        """Never fires."""
        return None

    def corrupt(self, _point: str, payload: bytes) -> bytes:
        """Payload passes through untouched."""
        return payload

    def hits(self, _point: str) -> int:
        """Always zero."""
        return 0

    def fired(self, _point: str | None = None, _kind: str | None = None) -> int:
        """Always zero."""
        return 0

    def events(self) -> list[FaultEvent]:
        """Always empty."""
        return []

    def report(self) -> str:
        """Nothing to report."""
        return "(fault injection disarmed)"


#: The process default: injection disarmed.
NULL_PLAN = NullFaultPlan()

_active: FaultPlan | NullFaultPlan = NULL_PLAN


def active_plan() -> FaultPlan | NullFaultPlan:
    """The plan fault points currently dispatch to."""
    return _active


def install_plan(plan: FaultPlan | NullFaultPlan | None):
    """Arm ``plan`` process-wide (None disarms).

    Returns the previously armed plan so callers can restore it.
    """
    global _active
    previous = _active
    _active = plan if plan is not None else NULL_PLAN
    return previous


@contextmanager
def inject(plan: FaultPlan):
    """Arm ``plan`` for the duration of a ``with`` block."""
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


def fault_point(name: str) -> None:
    """Evaluate a named fault point on the armed plan (no-op by default)."""
    _active.hit(name)


def corrupt_payload(name: str, payload: bytes) -> bytes:
    """Pass ``payload`` through the armed plan's corruption faults."""
    return _active.corrupt(name, payload)
