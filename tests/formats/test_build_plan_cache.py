"""Build-plan cache tests: hits, invalidation, LRU, accounting."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

pytestmark = pytest.mark.chaos_sensitive  # exact hit/miss accounting

from repro.core.mttkrp import MttkrpPlan, mttkrp
from repro.core.splitting import SplitConfig
from repro.formats import (
    PlanCache,
    build_plan,
    config_token,
    plan_cache,
    plan_cache_stats,
    tensor_fingerprint,
)
from repro.tensor.coo import CooTensor
from repro.util.errors import ValidationError
from tests.conftest import make_factors


def _clone(tensor: CooTensor) -> CooTensor:
    """A distinct object with identical content."""
    return CooTensor(tensor.indices.copy(), tensor.values.copy(),
                     tensor.shape)


class TestFingerprint:
    def test_stable_per_object(self, small3d):
        assert tensor_fingerprint(small3d) == tensor_fingerprint(small3d)

    def test_equal_content_equal_fingerprint(self, small3d):
        assert tensor_fingerprint(small3d) == tensor_fingerprint(_clone(small3d))

    def test_different_values_differ(self, small3d):
        other = small3d.with_values(small3d.values * 2.0)
        assert tensor_fingerprint(small3d) != tensor_fingerprint(other)

    def test_different_shape_differs(self, small3d):
        bigger = CooTensor(small3d.indices.copy(), small3d.values.copy(),
                           tuple(s + 1 for s in small3d.shape))
        assert tensor_fingerprint(small3d) != tensor_fingerprint(bigger)

    @staticmethod
    def _tobytes_digest(tensor) -> str:
        """The original formula, which hashed a ``tobytes()`` copy."""
        h = hashlib.sha256()
        h.update(repr(tuple(tensor.shape)).encode())
        for arr in (tensor.indices, tensor.values):
            arr = np.ascontiguousarray(arr)
            h.update(arr.dtype.str.encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("which", ["small3d", "empty"])
    def test_digest_unchanged_from_tobytes_formula(self, small3d, which):
        tensor = small3d if which == "small3d" else CooTensor.empty((3, 4, 5))
        assert tensor_fingerprint(tensor) == self._tobytes_digest(tensor)

    def test_hashing_does_not_copy_the_index_array(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 1000, size=(200_000, 3))
        tensor = CooTensor(idx, rng.random(200_000), (1000, 1000, 1000),
                           validate=False)
        tracemalloc.start()
        try:
            tensor_fingerprint(tensor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < tensor.indices.nbytes // 10


class TestConfigToken:
    def test_none_is_default(self):
        assert config_token(None) == "default"

    def test_dataclass_fields_ordered(self):
        a = config_token(SplitConfig(fiber_threshold=4, block_nnz=16))
        b = config_token(SplitConfig(fiber_threshold=4, block_nnz=16))
        c = config_token(SplitConfig(fiber_threshold=8, block_nnz=16))
        assert a == b
        assert a != c


class TestBuildPlanCaching:
    def test_hit_on_second_build(self, small3d):
        first = build_plan(small3d, "csf", 0)
        second = build_plan(small3d, "csf", 0)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.rep is first.rep
        assert second.build_seconds == first.build_seconds

    def test_content_addressed_across_objects(self, small3d):
        first = build_plan(small3d, "hb-csf", 0)
        second = build_plan(_clone(small3d), "hb-csf", 0)
        assert second.cache_hit
        assert second.rep is first.rep

    def test_mode_invalidates(self, small3d):
        build_plan(small3d, "csf", 0)
        assert not build_plan(small3d, "csf", 1).cache_hit

    def test_config_invalidates_when_format_uses_it(self, skewed3d):
        cfg_a = SplitConfig(fiber_threshold=4, block_nnz=16)
        cfg_b = SplitConfig(fiber_threshold=8, block_nnz=16)
        build_plan(skewed3d, "b-csf", 0, cfg_a)
        assert build_plan(skewed3d, "b-csf", 0, cfg_a).cache_hit
        assert not build_plan(skewed3d, "b-csf", 0, cfg_b).cache_hit

    def test_config_ignored_for_formats_without_split(self, small3d):
        build_plan(small3d, "csf", 0, SplitConfig(fiber_threshold=4))
        assert build_plan(small3d, "csf", 0, None).cache_hit

    def test_tensor_content_invalidates(self, small3d):
        build_plan(small3d, "csf", 0)
        other = small3d.with_values(small3d.values + 1.0)
        assert not build_plan(other, "csf", 0).cache_hit

    def test_allmode_baseline_shared_across_modes(self, skewed3d):
        first = build_plan(skewed3d, "splatt", 0)
        second = build_plan(skewed3d, "splatt", 2)
        assert second.cache_hit
        assert second.rep is first.rep

    def test_use_cache_false_bypasses(self, small3d):
        build_plan(small3d, "csf", 0)
        fresh = build_plan(small3d, "csf", 0, use_cache=False)
        assert not fresh.cache_hit

    def test_mode_out_of_range(self, small3d):
        with pytest.raises(ValidationError):
            build_plan(small3d, "csf", 3)

    def test_stats_counters(self, small3d):
        build_plan(small3d, "csf", 0)
        build_plan(small3d, "csf", 0)
        stats = plan_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["amortised_seconds"] > 0.0


class TestLru:
    def test_eviction_order(self):
        cache = PlanCache(max_entries=2)
        cache.put(("a",), "A", 0.1)
        cache.put(("b",), "B", 0.1)
        assert cache.get(("a",)) is not None  # refresh "a"
        cache.put(("c",), "C", 0.1)           # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.get(("c",)) is not None
        assert cache.evictions == 1

    def test_global_eviction(self, small3d):
        cache = plan_cache()
        old_max = cache.max_entries
        cache.max_entries = 1
        try:
            build_plan(small3d, "csf", 0)
            build_plan(small3d, "csf", 1)   # evicts mode 0
            assert not build_plan(small3d, "csf", 0).cache_hit
        finally:
            cache.max_entries = old_max

    def test_byte_cap_evicts_lru(self):
        class Rep:  # 5 * 4 + 5 * 8 = 60 approx bytes
            nnz = 5

            def index_storage_words(self):
                return 5

        cache = PlanCache(max_entries=10, max_bytes=100)
        cache.put(("a",), Rep(), 0.1)
        cache.put(("b",), Rep(), 0.1)   # 120 bytes total -> evict "a"
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) is not None
        assert cache.evictions == 1
        assert cache.stats()["approx_bytes"] <= 100

    def test_byte_cap_never_evicts_newest(self):
        class Huge:
            nnz = 10**6

            def index_storage_words(self):
                return 10**7

        cache = PlanCache(max_entries=10, max_bytes=100)
        cache.put(("big",), Huge(), 0.1)
        assert cache.get(("big",)) is not None

    def test_disabled_cache(self, small3d):
        cache = plan_cache()
        cache.enabled = False
        try:
            build_plan(small3d, "csf", 0)
            assert not build_plan(small3d, "csf", 0).cache_hit
            assert len(cache) == 0
        finally:
            cache.enabled = True

    def test_discard_by_format_and_fingerprint(self, small3d, skewed3d):
        build_plan(small3d, "csf", 0)
        build_plan(small3d, "hb-csf", 0)
        build_plan(skewed3d, "hb-csf", 0)
        removed = plan_cache().discard(
            format="hb-csf", fingerprint=tensor_fingerprint(small3d))
        assert removed == 1
        assert build_plan(small3d, "csf", 0).cache_hit
        assert build_plan(skewed3d, "hb-csf", 0).cache_hit
        assert not build_plan(small3d, "hb-csf", 0).cache_hit

    def test_discard_by_format_only(self, small3d):
        build_plan(small3d, "csf", 0)
        build_plan(small3d, "csf", 1)
        assert plan_cache().discard(format="csf") == 2
        assert plan_cache_stats()["entries"] == 0

    def test_clear(self, small3d):
        build_plan(small3d, "csf", 0)
        plan_cache().clear()
        assert plan_cache_stats()["entries"] == 0
        assert not build_plan(small3d, "csf", 0).cache_hit

    def test_bad_capacity(self):
        with pytest.raises(ValidationError):
            PlanCache(max_entries=0)


class TestPlanIntegration:
    def test_second_plan_is_all_hits(self, skewed3d):
        plan_a = MttkrpPlan(skewed3d, format="hb-csf")
        plan_b = MttkrpPlan(skewed3d, format="hb-csf")
        assert plan_a.cache_misses == skewed3d.order
        assert plan_a.cache_hits == 0
        assert plan_b.cache_hits == skewed3d.order
        assert plan_b.cache_misses == 0

    def test_preprocessing_seconds_reported_identically(self, skewed3d):
        plan_a = MttkrpPlan(skewed3d, format="b-csf")
        plan_b = MttkrpPlan(skewed3d, format="b-csf")
        assert plan_a.preprocessing_seconds > 0.0
        assert plan_b.preprocessing_seconds == plan_a.preprocessing_seconds

    def test_cached_plans_compute_identical_results(self, skewed3d):
        factors = make_factors(skewed3d.shape, 6, seed=3)
        a = MttkrpPlan(skewed3d, format="hb-csf").mttkrp(factors, 1)
        b = MttkrpPlan(skewed3d, format="hb-csf").mttkrp(factors, 1)
        np.testing.assert_array_equal(a, b)

    def test_mttkrp_function_reuses_cache(self, small3d):
        factors = make_factors(small3d.shape, 4, seed=5)
        mttkrp(small3d, factors, 0, format="csf")
        before = plan_cache_stats()["hits"]
        mttkrp(small3d, factors, 0, format="csf")
        assert plan_cache_stats()["hits"] == before + 1

    def test_baseline_plan_reports_modeled_preprocessing(self, skewed3d):
        """Baselines model their preprocessing (SPLATT-tiled applies a 3x
        factor, Figure 9); the unified plan must report that, not the raw
        Python constructor wall-clock."""
        plan = MttkrpPlan(skewed3d, format="splatt-tiled")
        rep = plan.representation(0)
        assert plan.preprocessing_seconds == pytest.approx(
            rep.preprocessing_seconds)

    def test_baseline_plan_shares_one_representation(self, skewed3d):
        plan = MttkrpPlan(skewed3d, format="hicoo")
        reps = {id(rep) for rep in plan.representations.values()}
        assert len(reps) == 1
        assert plan.cache_misses == 1
        assert plan.cache_hits == skewed3d.order - 1
