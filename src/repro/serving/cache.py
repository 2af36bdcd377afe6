"""Bounded LRU result cache with access-scope-aware keys.

The cache sits *behind* admission and access resolution, never in front
of them: a key is complete only once it carries

* the query kind and top-``k``,
* a digest of the query feature vector (or the event parameters),
* the **principal scope** — clearance plus a digest of the caller's
  permitted-leaf set, resolved *before* lookup, and
* the snapshot **generation** the result was computed against.

Two principals share an entry only when the access controller grants
them the exact same leaf set, so a result cached for a high-clearance
user can never leak to a lower-clearance one.  A generation bump after
ingest changes every key, so stale hits are structurally impossible;
:meth:`ResultCache.evict_other_generations` reclaims the dead entries'
memory eagerly.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.database.access import User

#: Scope token for anonymous (unrestricted) queries.
ANONYMOUS_SCOPE = "anon"


def feature_digest(features: np.ndarray) -> str:
    """Stable content digest of a query feature vector."""
    array = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    hasher = hashlib.sha256()
    hasher.update(str(array.shape).encode())
    hasher.update(array.tobytes())
    return hasher.hexdigest()[:24]


def scope_token(user: User | None, permitted_leaves: frozenset[str] | None) -> str:
    """Principal scope: clearance + digest of the permitted-leaf set.

    Identity is deliberately *not* part of the token: two users whose
    rules and clearance resolve to the same leaf set see the same data,
    so they may share cache entries.  Anonymous callers (no access
    filtering at all) get their own distinct token.
    """
    if user is None:
        return ANONYMOUS_SCOPE
    if permitted_leaves is None:
        raise ValueError("a user scope needs its resolved permitted-leaf set")
    digest = hashlib.sha256(
        "\n".join(sorted(permitted_leaves)).encode()
    ).hexdigest()[:16]
    return f"c{user.clearance}:{digest}"


def request_digest(request) -> str:
    """Kind-specific content digest of one query request.

    Accepts any object shaped like
    :class:`repro.serving.engine.QueryRequest` (duck-typed to avoid an
    import cycle); the engine builds every cache key — for both query
    fronts — through this one function.
    """
    if request.kind == "event":
        assert request.event is not None
        return f"event:{request.event.value}:{request.video_title or '*'}"
    assert request.features is not None
    digest = feature_digest(request.features)
    if request.kind == "scene" and request.event is not None:
        digest = f"{digest}:{request.event.value}"
    nprobe = getattr(request, "nprobe", None)
    if request.kind == "shot" and nprobe is not None:
        # The ANN knobs change the answer, so they are part of the
        # identity; exact queries (nprobe=None) keep their historic
        # digests and stay shareable across server configurations.
        rerank_k = getattr(request, "rerank_k", None)
        digest = f"{digest}:ann{int(nprobe)}:{'all' if rerank_k is None else int(rerank_k)}"
    return digest


@dataclass(frozen=True)
class CacheKey:
    """Complete identity of one cacheable query."""

    kind: str
    digest: str
    k: int
    scope: str
    generation: int


@dataclass(frozen=True)
class CacheStats:
    """Counters of one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale_evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Thread-safe bounded LRU over :class:`CacheKey` -> result."""

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._stale_evictions = 0
        self._generation = 0  # the newest one evict_other_generations kept

    @property
    def capacity(self) -> int:
        """Maximum resident entries."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Any | None:
        """The cached value, refreshed to most-recently-used; None on miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: CacheKey) -> Any | None:
        """The cached value without touching LRU order or hit/miss stats.

        The explain surface uses this to report whether a query *would*
        have hit the cache; an observation must not perturb the state it
        reports on.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full; an
        answer whose generation was superseded while it ran is not kept."""
        with self._lock:
            if key.generation < self._generation:
                return  # it can never hit, and would pin that generation's rows
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def evict_other_generations(self, generation: int) -> int:
        """Drop entries from any generation but ``generation``.

        Old-generation keys can never hit again (lookups always carry
        the current generation), so this only reclaims memory early;
        correctness never depends on it.  Returns entries removed.
        """
        with self._lock:
            self._generation = generation
            stale = [key for key in self._entries if key.generation != generation]
            for key in stale:
                del self._entries[key]
            self._stale_evictions += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop everything; returns entries removed."""
        with self._lock:
            removed = len(self._entries)
            self._entries.clear()
            return removed

    def stats(self) -> CacheStats:
        """Point-in-time counter snapshot."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                stale_evictions=self._stale_evictions,
            )

    def metrics_snapshot(self) -> dict[str, float]:
        """``{metric_name: value}`` gauges for the observability registry.

        Shaped as a registry *collector* (see
        :meth:`repro.obs.registry.MetricsRegistry.register_collector`) so
        the server can publish cache health through the shared export
        surface without the cache knowing about metric families.
        """
        with self._lock:
            return {
                "serving_cache_entries": float(len(self._entries)),
                "serving_cache_capacity": float(self._capacity),
                "serving_cache_hits_total": float(self._hits),
                "serving_cache_misses_total": float(self._misses),
                "serving_cache_evictions_total": float(self._evictions),
                "serving_cache_stale_evictions_total": float(self._stale_evictions),
            }
