"""Circuit breaker: fail fast while a dependency is known-bad.

A :class:`CircuitBreaker` wraps an operation that can fail repeatedly
(snapshot rebuilds, the result cache) and walks the classic three-state
machine:

* **closed** — calls pass through; ``failure_threshold`` consecutive
  failures trip the breaker open.
* **open** — calls are refused immediately with
  :class:`~repro.errors.CircuitOpenError` (no work attempted), so a
  broken dependency cannot pile up latency.  After ``reset_timeout``
  seconds the breaker lets one probe through.
* **half-open** — exactly one in-flight probe is allowed; its success
  closes the breaker (counters reset), its failure re-opens it and
  restarts the cooldown.

The clock is injectable so tests drive transitions without sleeping.
When a registry is supplied the breaker publishes its state as the
``circuit_breaker_state{breaker=…}`` gauge (0 closed, 1 open,
2 half-open) and trips/resets as counters — the health CLI reads these.
"""

from __future__ import annotations

import threading
import time
from enum import Enum

from repro.errors import CircuitOpenError


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
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._trips = 0
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
        self._trips += 1
        if self._trip_counter is not None:
            self._trip_counter.inc()
        self._publish()

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` through the breaker.

        Raises :class:`~repro.errors.CircuitOpenError` without calling
        ``fn`` while the breaker refuses traffic; otherwise records the
        outcome and re-raises any failure.
        """
        if not self.allow():
            with self._lock:
                remaining = max(
                    0.0, self.reset_timeout - (self._clock() - self._opened_at)
                )
            raise CircuitOpenError(
                f"circuit {self.name!r} is {self._state.value}; "
                f"retry in {remaining:.1f}s"
            )
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def reset(self) -> None:
        """Force the breaker closed and clear its counters (tests, ops)."""
        with self._lock:
            self._state = BreakerState.CLOSED
            self._failures = 0
            self._probe_inflight = False
            self._publish()

    def describe(self) -> str:
        """One-line status for health reports."""
        with self._lock:
            self._maybe_half_open()
            return (
                f"{self.name}: {self._state.value} "
                f"({self._failures}/{self.failure_threshold} failures, "
                f"{self._trips} trips)"
            )
