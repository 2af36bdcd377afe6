"""Circuit breaker: stop calling a shard while it is known-bad.

Each shard of a sharded front
(:class:`~repro.net.coordinator.ShardedQueryService`) sits behind one
:class:`CircuitBreaker`, which walks the classic three-state machine:

* **closed** — calls pass through; ``failure_threshold`` consecutive
  failures trip the breaker open.
* **open** — :meth:`~CircuitBreaker.allow` refuses, so the shard is
  skipped (reported missing) instead of piling up latency.  After
  ``reset_timeout`` seconds the breaker lets one probe through.
* **half-open** — exactly one in-flight probe is allowed; its success
  closes the breaker (counters reset), its failure re-opens it and
  restarts the cooldown.

The clock is injectable so tests drive transitions without sleeping.
When a registry is supplied the breaker publishes its state as the
``circuit_breaker_state{breaker=…}`` gauge (0 closed, 1 open,
2 half-open) and its trips as a counter — the health CLI reads these.
"""

from __future__ import annotations

import threading
import time
from enum import Enum


class BreakerState(str, Enum):
    """The three circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


#: Gauge encoding of each state (exported to the registry).
STATE_VALUES = {
    BreakerState.CLOSED: 0.0,
    BreakerState.OPEN: 1.0,
    BreakerState.HALF_OPEN: 2.0,
}


class CircuitBreaker:
    """Thread-safe closed/open/half-open circuit breaker."""

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock=time.monotonic,
        registry=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._gauge = None
        self._trip_counter = None
        if registry is not None:
            self._gauge = registry.gauge(
                "circuit_breaker_state",
                "Circuit breaker state (0 closed, 1 open, 2 half-open).",
                labelnames=("breaker",),
            ).labels(breaker=name)
            self._trip_counter = registry.counter(
                "circuit_breaker_trips_total",
                "Times a circuit breaker tripped open.",
                labelnames=("breaker",),
            ).labels(breaker=name)
        self._publish()

    def _publish(self) -> None:
        if self._gauge is not None:
            self._gauge.set(STATE_VALUES[self._state])

    @property
    def state(self) -> BreakerState:
        """Current state (open may lazily advance to half-open)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_inflight = False
            self._publish()

    def allow(self) -> bool:
        """Whether a call may proceed right now.

        In half-open state only the first caller gets True (the probe);
        the breaker stays half-open until that probe reports back.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def record_success(self) -> None:
        """Report a successful protected call."""
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            if self._state is not BreakerState.CLOSED:
                self._state = BreakerState.CLOSED
                self._publish()

    def record_failure(self) -> None:
        """Report a failed protected call (may trip the breaker)."""
        with self._lock:
            self._probe_inflight = False
            if self._state is BreakerState.HALF_OPEN:
                self._trip(self._clock())
                return
            self._failures += 1
            if (
                self._state is BreakerState.CLOSED
                and self._failures >= self.failure_threshold
            ):
                self._trip(self._clock())

    def _trip(self, now: float) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = now
        self._failures = 0
        if self._trip_counter is not None:
            self._trip_counter.inc()
        self._publish()
