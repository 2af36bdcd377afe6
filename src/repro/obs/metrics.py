"""Shared metric primitives: latency histograms and duration formatting.

Every subsystem (serving, ingest, mining, kernels) records through
this one implementation.
Latencies go into fixed geometric buckets (1 µs .. ~67 s, doubling per
bucket), so percentile estimation is O(buckets) with a bounded memory
footprint no matter how many observations flow through — the usual
production trade: a quantile is reported as the upper bound of the
bucket it falls in (≤ 2x its true value), which is plenty to tell a
50 µs cache hit from a 5 ms descent.  All clocks are
``time.perf_counter()`` (monotonic), never the wall clock.

Every histogram owns (or shares) a re-entrant lock.  A
:class:`~repro.obs.registry.MetricsRegistry` hands all its metrics the
*same* lock, so a registry snapshot is one consistent cut and
:meth:`LatencyHistogram.merge` between two registry histograms is a
single acquisition; standalone histograms get a private lock and
``merge`` acquires both sides in a deterministic order.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Histogram bucket upper bounds in seconds: 1 µs doubling up to ~67 s.
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2**i for i in range(27))


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Thread-safe: every mutator and reader runs under ``lock`` (a
    private :class:`threading.RLock` unless the caller shares one).
    """

    __slots__ = ("_lock", "_counts", "_total", "_count", "_max")

    def __init__(self, lock: threading.RLock | None = None) -> None:
        self._lock = lock if lock is not None else threading.RLock()
        self._counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self._total = 0.0
        self._count = 0
        self._max = 0.0

    @property
    def lock(self) -> threading.RLock:
        """The lock guarding this histogram (shared by its registry)."""
        return self._lock

    def record(self, seconds: float) -> None:
        """Add one observation (negative values clamp to zero)."""
        seconds = max(0.0, seconds)
        with self._lock:
            self._counts[bisect_left(BUCKET_BOUNDS, seconds)] += 1
            self._total += seconds
            self._count += 1
            self._max = max(self._max, seconds)

    @property
    def count(self) -> int:
        """Observations recorded."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Sum of all observations in seconds."""
        with self._lock:
            return self._total

    @property
    def mean(self) -> float:
        """Mean latency in seconds (0.0 when empty)."""
        with self._lock:
            return self._total / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observation in seconds."""
        with self._lock:
            return self._max

    def quantile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1].

        Reports the upper bound of the bucket the quantile falls in,
        clamped to the largest observation (the top bucket's bound can
        otherwise overshoot it).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for index, bucket in enumerate(self._counts):
                cumulative += bucket
                if cumulative >= rank and bucket:
                    if index < len(BUCKET_BOUNDS):
                        return min(BUCKET_BOUNDS[index], self._max)
                    return self._max
            return self._max

    def bucket_counts(self) -> list[int]:
        """Per-bucket observation counts (last bucket is the overflow)."""
        with self._lock:
            return list(self._counts)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram's observations into this one.

        Safe to call while either side is concurrently recording: both
        locks are held for the copy.  Histograms sharing one registry
        lock need a single (re-entrant) acquisition; distinct locks are
        acquired in a deterministic id order so two opposite-direction
        merges cannot deadlock.
        """
        if self._lock is other._lock:
            with self._lock:
                self._merge_locked(other)
            return
        first, second = sorted((self._lock, other._lock), key=id)
        with first, second:
            self._merge_locked(other)

    def _merge_locked(self, other: "LatencyHistogram") -> None:
        for index, bucket in enumerate(other._counts):
            self._counts[index] += bucket
        self._total += other._total
        self._count += other._count
        self._max = max(self._max, other._max)

    def state(self) -> dict:
        """Plain-data snapshot (one consistent cut) for the wire.

        The shape :meth:`from_state` rebuilds — how worker registries
        ship their histograms to the coordinator for merging.
        """
        with self._lock:
            return {
                "buckets": list(self._counts),
                "total": self._total,
                "count": self._count,
                "max": self._max,
            }

    @classmethod
    def from_state(cls, state: dict) -> "LatencyHistogram":
        """Rebuild a histogram from :meth:`state` output.

        Bucket lists from a different ``BUCKET_BOUNDS`` vintage are
        truncated/zero-padded to the local layout so a mixed-version
        cluster degrades to coarse counts instead of crashing.
        """
        histogram = cls()
        buckets = [int(b) for b in state.get("buckets", [])]
        width = len(histogram._counts)
        buckets = (buckets + [0] * width)[:width]
        histogram._counts = buckets
        histogram._total = float(state.get("total", 0.0))
        histogram._count = int(state.get("count", sum(buckets)))
        histogram._max = float(state.get("max", 0.0))
        return histogram

    def reset(self) -> None:
        """Zero all buckets and totals."""
        with self._lock:
            self._counts = [0] * (len(BUCKET_BOUNDS) + 1)
            self._total = 0.0
            self._count = 0
            self._max = 0.0


def format_seconds(seconds: float) -> str:
    """Human duration: µs under a millisecond, ms under a second,
    seconds under a minute, and ``XmY.Ys`` beyond (long ingest runs
    render as ``5m12.4s`` rather than ``312.40s``)."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    if seconds < 60.0:
        return f"{seconds:.2f}s"
    minutes = int(seconds // 60)
    return f"{minutes}m{seconds - 60 * minutes:.1f}s"
