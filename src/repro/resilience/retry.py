"""Bounded retry-with-backoff policy shared by ingest and the shard RPCs.

Lives in :mod:`repro.resilience` rather than beside either caller so
the serving stack (``net/coordinator.py``'s RPC retry loop) can use it
without importing the ingest executor and, through it, the miners.
:mod:`repro.ingest` re-exports it; ``repro.ingest.executor.RetryPolicy``
keeps working.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient job failures.

    Attributes
    ----------
    retries:
        Extra attempts after the first (0 disables retrying).
    backoff:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied to the delay for each further retry.
    jitter:
        Randomise retry delays with *decorrelated jitter* so a batch of
        jobs failing together (a shared-resource hiccup) does not retry
        in lockstep and fail together again.  Disable for byte-exact
        deterministic scheduling in tests.
    max_delay:
        Upper bound on any single delay, jittered or not.
    """

    retries: int = 2
    backoff: float = 0.1
    backoff_factor: float = 2.0
    jitter: bool = True
    max_delay: float = 30.0

    def delay(self, attempt: int) -> float:
        """Deterministic backoff after failed attempt ``attempt``.

        Pure exponential (no jitter) — the fixed schedule used when
        ``jitter`` is off, and the base the jittered path grows from.
        """
        return min(
            self.max_delay, self.backoff * self.backoff_factor ** max(0, attempt - 1)
        )

    def next_delay(
        self,
        attempt: int,
        previous: float = 0.0,
        rng: random.Random | None = None,
    ) -> float:
        """Backoff after failed attempt ``attempt``, jittered when enabled.

        Decorrelated jitter (the AWS architecture-blog scheme): each
        delay is drawn uniformly from ``[backoff, 3 * previous]``, so
        retry times spread out instead of synchronising, while still
        growing roughly exponentially.  ``previous`` is the delay the
        caller slept last time (0 on the first retry).  Falls back to
        :meth:`delay` when jitter is disabled or no ``rng`` is given.
        """
        if not self.jitter or rng is None:
            return self.delay(attempt)
        upper = max(self.backoff, 3.0 * previous)
        return min(self.max_delay, rng.uniform(self.backoff, upper))

    @property
    def max_attempts(self) -> int:
        """Total attempts a job may consume."""
        return 1 + max(0, self.retries)
