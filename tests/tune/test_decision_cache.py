"""Unit tests for the autotuner's decision cache (LRU + stats)."""

from __future__ import annotations

import pytest

from repro.tune import DecisionCache, TuneDecision
from repro.util.errors import ValidationError


def _decision(fmt: str = "hb-csf") -> TuneDecision:
    return TuneDecision(format=fmt, mode=0, rank_bucket=32, dtype="float64",
                        timings=((fmt, 1e-4),))


def _key(fp: str = "fp", mode: int = 0) -> tuple:
    return (fp, mode, 32, "float64", "default", "r3w1")


class TestDecisionCache:
    def test_miss_then_hit(self):
        cache = DecisionCache()
        assert cache.get(_key()) is None
        assert cache.misses == 1
        d = _decision()
        cache.put(_key(), d)
        assert cache.get(_key()) is d
        assert cache.hits == 1
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = DecisionCache(max_entries=2)
        cache.put(_key("a"), _decision())
        cache.put(_key("b"), _decision())
        cache.get(_key("a"))          # refresh "a"
        cache.put(_key("c"), _decision())
        assert cache.evictions == 1
        assert cache.get(_key("a")) is not None
        assert cache.get(_key("b")) is None  # the LRU entry was dropped
        assert cache.get(_key("c")) is not None

    def test_discard_by_fingerprint(self):
        cache = DecisionCache()
        cache.put(_key("a"), _decision())
        cache.put(_key("a", mode=1), _decision())
        cache.put(_key("b"), _decision())
        assert cache.discard(fingerprint="a") == 2
        assert len(cache) == 1
        assert cache.get(_key("b")) is not None

    def test_discard_by_format(self):
        cache = DecisionCache()
        cache.put(_key("a"), _decision("coo"))
        cache.put(_key("b"), _decision("hb-csf"))
        assert cache.discard(format="coo") == 1
        assert cache.get(_key("b")) is not None
        assert cache.get(_key("a")) is None

    def test_clear_resets_stats(self):
        cache = DecisionCache()
        cache.put(_key(), _decision())
        cache.get(_key())
        cache.get(_key("other"))
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValidationError):
            DecisionCache(max_entries=0)
