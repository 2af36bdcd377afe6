"""Circuit-breaker state machine: trips, probes, recovery, metrics."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.resilience.breaker import BreakerState, CircuitBreaker


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def breaker(clock):
    return CircuitBreaker(
        name="test", failure_threshold=2, reset_timeout=10.0, clock=clock
    )


class TestTransitions:
    def test_starts_closed_and_allows(self, breaker):
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_consecutive_failures_trip_open(self, breaker):
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self, breaker):
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED  # streak broken

    def test_open_advances_to_half_open_after_timeout(self, breaker, clock):
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(9.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self, breaker, clock):
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent caller refused
        assert breaker.state is BreakerState.HALF_OPEN

    def test_probe_success_closes(self, breaker, clock):
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self, breaker, clock):
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(9.0)  # cooldown restarted at the re-trip
        assert breaker.state is BreakerState.OPEN
        clock.advance(1.0)
        assert breaker.state is BreakerState.HALF_OPEN


class TestValidationAndIntrospection:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)

    def test_registry_gauge_tracks_state(self, clock):
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            name="gauged", failure_threshold=1, reset_timeout=5.0,
            clock=clock, registry=registry,
        )
        key = 'circuit_breaker_state{breaker=gauged}'
        assert registry.snapshot()[key] == 0.0
        breaker.record_failure()
        assert registry.snapshot()[key] == 1.0
        assert registry.snapshot()['circuit_breaker_trips_total{breaker=gauged}'] == 1.0
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert registry.snapshot()[key] == 2.0
        breaker.record_success()
        assert registry.snapshot()[key] == 0.0


class TestConcurrentHalfOpenProbes:
    def test_exactly_one_probe_admitted_under_contention(self, clock):
        # 16 shard-call threads hit a half-open breaker at once: one
        # wins the probe slot, every loser is refused without mutating
        # state, and the breaker stays half-open until the probe
        # reports back.
        import threading

        breaker = CircuitBreaker(
            name="race", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.state is BreakerState.HALF_OPEN

        admitted = []
        barrier = threading.Barrier(16)

        def _contender():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=_contender) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(admitted) == 1, "half-open must admit exactly one probe"
        assert breaker.state is BreakerState.HALF_OPEN
        # Losers short-circuited: no failure was recorded, so the
        # winning probe's success closes the breaker for everyone.
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert all(breaker.allow() for _ in range(4))

    def test_probe_slot_reopens_after_each_cooldown(self, clock):
        breaker = CircuitBreaker(
            name="slot", failure_threshold=1, reset_timeout=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()        # probe admitted
        assert not breaker.allow()    # slot held while in flight
        breaker.record_failure()      # probe failed: reopen + new cooldown
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow(), "next cooldown must free the probe slot"
