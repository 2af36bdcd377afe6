"""Process-wide resilience: fault injection, breakers, integrity, health.

The layer that makes "production-scale" testable — failures become
injectable, contained, observable and recoverable by design:

* :mod:`repro.resilience.faults` — seeded, deterministic
  :class:`FaultPlan` (error / latency / corruption faults) armed at
  named fault points instrumented through the mine pipeline, ingest
  executor, artifact store, snapshot rebuild and query engine;
  zero-cost when disarmed (the :data:`NULL_PLAN` default).
* :mod:`repro.resilience.breaker` — closed/open/half-open
  :class:`CircuitBreaker` guarding the calls to each shard of a sharded
  front (a failed snapshot rebuild is simply retried by its caller).
* :mod:`repro.resilience.watchdog` — :class:`Watchdog` repair loop the
  shard cluster uses to respawn dead worker processes.
* :mod:`repro.resilience.integrity` — per-artifact content checksums,
  read-time verification, quarantine of corrupt entries
  (:class:`~repro.errors.IntegrityError`), transparent re-mine.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, the bounded
  decorrelated-jitter backoff shared by the ingest executor and the
  coordinator's shard-RPC retry loop.
* :mod:`repro.resilience.health` — liveness / readiness / degradation
  :class:`HealthReport` behind the ``classminer health`` CLI.

See ``docs/RELIABILITY.md`` for the fault-point catalog and the
behaviour each layer guarantees under injection.
"""

from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.faults import (
    FAULT_KINDS,
    KNOWN_FAULT_POINTS,
    NULL_PLAN,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    NullFaultPlan,
    active_plan,
    corrupt_payload,
    fault_point,
    inject,
    install_plan,
)
from repro.resilience.health import HealthCheck, HealthReport, server_health
from repro.resilience.integrity import (
    ALGORITHM,
    CHECKSUMS_NAME,
    QUARANTINE_DIR,
    file_digest,
    verify_checksums,
    write_checksums,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.watchdog import Watchdog

__all__ = [
    "ALGORITHM",
    "BreakerState",
    "CHECKSUMS_NAME",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "HealthCheck",
    "HealthReport",
    "KNOWN_FAULT_POINTS",
    "NULL_PLAN",
    "NullFaultPlan",
    "QUARANTINE_DIR",
    "RetryPolicy",
    "Watchdog",
    "active_plan",
    "corrupt_payload",
    "fault_point",
    "file_digest",
    "inject",
    "install_plan",
    "server_health",
    "verify_checksums",
    "write_checksums",
]
