"""Result-cache mechanics: LRU bounds, scoped keys, generation eviction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.database.access import User
from repro.serving.cache import (
    ANONYMOUS_SCOPE,
    CacheKey,
    ResultCache,
    feature_digest,
    scope_token,
)


def _key(n: int, scope: str = ANONYMOUS_SCOPE, generation: int = 1) -> CacheKey:
    return CacheKey(kind="shot", digest=f"d{n}", k=5, scope=scope, generation=generation)


class TestLRU:
    def test_capacity_is_enforced_lru(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(1), "one")
        cache.put(_key(2), "two")
        assert cache.get(_key(1)) == "one"  # 1 is now most-recent
        cache.put(_key(3), "three")  # evicts 2, the LRU tail
        assert cache.get(_key(2)) is None
        assert cache.get(_key(1)) == "one"
        assert cache.get(_key(3)) == "three"
        assert len(cache) == 2
        assert cache.stats().evictions == 1

    def test_stats_track_hits_and_misses(self):
        cache = ResultCache(capacity=4)
        assert cache.get(_key(1)) is None
        cache.put(_key(1), "one")
        assert cache.get(_key(1)) == "one"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
        assert stats.hit_rate == 0.5

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_clear(self):
        cache = ResultCache(capacity=4)
        cache.put(_key(1), "one")
        assert cache.clear() == 1
        assert len(cache) == 0


class TestGenerations:
    def test_old_generation_keys_cannot_hit(self):
        cache = ResultCache(capacity=8)
        cache.put(_key(1, generation=1), "old")
        assert cache.get(_key(1, generation=2)) is None

    def test_evict_other_generations(self):
        cache = ResultCache(capacity=8)
        cache.put(_key(1, generation=1), "old")
        cache.put(_key(2, generation=1), "old2")
        cache.put(_key(3, generation=2), "new")
        assert cache.evict_other_generations(2) == 2
        assert len(cache) == 1
        assert cache.get(_key(3, generation=2)) == "new"
        assert cache.stats().stale_evictions == 2

    def test_an_answer_finished_after_its_generation_is_not_kept(self):
        cache = ResultCache(capacity=8)
        cache.evict_other_generations(2)
        cache.put(_key(1, generation=1), "in flight across the swap")
        cache.put(_key(2, generation=2), "current")
        assert len(cache) == 1
        assert cache.get(_key(2, generation=2)) == "current"


class TestScopeTokens:
    def test_anonymous_token(self):
        assert scope_token(None, None) == ANONYMOUS_SCOPE

    def test_user_scope_requires_leaves(self):
        with pytest.raises(ValueError):
            scope_token(User("u", clearance=1), None)

    def test_same_permissions_share_a_token(self):
        leaves = frozenset({"general/presentation", "surgery/presentation"})
        alice = scope_token(User("alice", clearance=1), leaves)
        bob = scope_token(User("bob", clearance=1), leaves)
        assert alice == bob

    def test_different_leaf_sets_differ(self):
        user = User("u", clearance=1)
        a = scope_token(user, frozenset({"general/presentation"}))
        b = scope_token(user, frozenset({"general/dialog"}))
        assert a != b

    def test_different_clearance_differs_even_with_same_leaves(self):
        leaves = frozenset({"general/presentation"})
        assert scope_token(User("u", clearance=0), leaves) != scope_token(
            User("u", clearance=3), leaves
        )


class TestFeatureDigest:
    def test_deterministic(self):
        rng = np.random.default_rng(0)
        features = rng.random(266)
        assert feature_digest(features) == feature_digest(features.copy())

    def test_sensitive_to_content(self):
        rng = np.random.default_rng(0)
        features = rng.random(266)
        nudged = features.copy()
        nudged[0] += 1e-9
        assert feature_digest(features) != feature_digest(nudged)

    def test_dtype_normalised(self):
        features = np.arange(10, dtype=np.float32)
        assert feature_digest(features) == feature_digest(
            np.arange(10, dtype=np.float64)
        )
