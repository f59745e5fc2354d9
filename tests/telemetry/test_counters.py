"""Counter registry semantics and cache-counter exactness."""

from __future__ import annotations

import threading

from repro import telemetry
from repro.formats import (
    build_plan,
    clear_plan_cache,
    get_format,
    plan_cache_stats,
)
from repro.telemetry.counters import CounterRegistry
from repro.tensor.random_gen import random_coo
from repro.tune import clear_decision_cache, decide, decision_cache_stats
from repro.util.prng import default_rng

from tests.conftest import make_factors


def _cache_counters(delta: dict, prefix: str) -> dict:
    return {k: v for k, v in delta.items() if k.startswith(prefix)}


class TestRegistry:
    def test_delta_names_only_moved_counters(self):
        reg = CounterRegistry()
        reg.add("a", 2)
        reg.add("b")
        before = reg.snapshot()
        reg.add("a", 3)
        reg.add("c", 1.5)
        assert reg.delta(before) == {"a": 3, "c": 1.5}

    def test_add_stage_pairs_count_and_seconds(self):
        reg = CounterRegistry()
        reg.add_stage("kernel", 0.25)
        reg.add_stage("kernel", 0.75)
        assert reg.snapshot() == {"kernel.count": 2, "kernel.seconds": 1.0}

    def test_gauges_overwrite(self):
        reg = CounterRegistry()
        reg.set_gauge("workers", 2)
        reg.set_gauge("workers", 4)
        assert reg.gauges() == {"workers": 4}
        assert reg.snapshot() == {}

    def test_concurrent_adds_are_exact(self):
        reg = CounterRegistry()
        n, per = 8, 2_000

        def worker():
            for _ in range(per):
                reg.add("hits")
                reg.add_stage("stage", 0.0)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["hits"] == n * per
        assert snap["stage.count"] == n * per

    def test_global_delta_roundtrip(self):
        before = telemetry.counters_snapshot()
        telemetry.counter_add("test.global.counter", 7)
        assert telemetry.counters_delta(before) == {"test.global.counter": 7}


class TestPlanCacheCounters:
    def test_known_hit_miss_sequence_is_exact(self):
        """Two builds of the same (tensor, format, mode): the first is a
        miss + insert, the second a hit — counter deltas must match the
        sequence exactly, with no spurious plan_cache movement."""
        tensor = random_coo((9, 8, 7), 100, default_rng(555))
        clear_plan_cache()

        before = telemetry.counters_snapshot()
        build_plan(tensor, "b-csf", 0)
        first = _cache_counters(telemetry.counters_delta(before), "plan_cache.")
        assert first == {"plan_cache.misses": 1, "plan_cache.inserts": 1}

        before = telemetry.counters_snapshot()
        build_plan(tensor, "b-csf", 0)
        second = _cache_counters(telemetry.counters_delta(before),
                                 "plan_cache.")
        assert second == {"plan_cache.hits": 1}

        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_uncached_build_moves_nothing(self):
        tensor = random_coo((9, 8, 7), 100, default_rng(556))
        before = telemetry.counters_snapshot()
        build_plan(tensor, "b-csf", 0, use_cache=False)
        delta = _cache_counters(telemetry.counters_delta(before),
                                "plan_cache.")
        assert delta == {}

    def test_build_stage_counter_moves_per_build(self):
        tensor = random_coo((9, 8, 7), 100, default_rng(557))
        before = telemetry.counters_snapshot()
        build_plan(tensor, "csf", 1, use_cache=False)
        build_plan(tensor, "csf", 1, use_cache=False)
        delta = telemetry.counters_delta(before)
        assert delta["build.count"] == 2
        assert delta["build.seconds"] > 0


class TestKernelStageCounters:
    def test_one_bcsf_mttkrp_moves_kernel_count_and_seconds(self):
        tensor = random_coo((12, 10, 8), 200, default_rng(1))
        fmt = get_format("b-csf")
        rep = fmt.build(tensor, 0, None)
        factors = make_factors(tensor.shape, 4)
        before = telemetry.counters_snapshot()
        fmt.mttkrp(rep, factors, 0)
        delta = telemetry.counters_delta(before)
        assert delta["kernel.count"] == 1
        assert delta["kernel.seconds"] > 0


class TestDecisionCacheCounters:
    def test_probes_and_winners_exposed(self):
        """One cold decide() probes every candidate and elects one winner;
        stats and decision_cache.* counters must agree with that."""
        tensor = random_coo((10, 9, 8), 150, default_rng(600))
        clear_decision_cache()
        before = telemetry.counters_snapshot()
        decision = decide(tensor, 0, 8, measure=lambda fn: 1.0,
                          backend="serial")
        delta = _cache_counters(telemetry.counters_delta(before),
                                "decision_cache.")
        stats = decision_cache_stats()

        assert stats["misses"] == 1 and stats["hits"] == 0
        assert stats["probes"] >= 2  # several candidate formats probed
        assert stats["winners"] == {decision.label: 1}
        assert delta["decision_cache.misses"] == 1
        assert delta["decision_cache.decisions"] == 1
        assert delta["decision_cache.probes"] == stats["probes"]

        # warm second call: pure hit, no new probes
        before = telemetry.counters_snapshot()
        decide(tensor, 0, 8, measure=lambda fn: 1.0, backend="serial")
        delta = _cache_counters(telemetry.counters_delta(before),
                                "decision_cache.")
        assert delta == {"decision_cache.hits": 1}
        assert decision_cache_stats()["probes"] == stats["probes"]

    def test_stats_shape_matches_plan_cache_style(self):
        stats = decision_cache_stats()
        assert {"entries", "max_entries", "hits", "misses", "evictions",
                "probes", "winners"} <= set(stats)
