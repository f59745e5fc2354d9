"""Tests for candidate enumeration, decide() and the format="auto" path."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.mttkrp import MttkrpPlan, mttkrp
from repro.tensor.dense import dense_mttkrp
from repro.tune import (
    ProbeBudget,
    decide,
    decision_cache,
    decision_cache_stats,
    enumerate_candidates,
    rank_bucket,
)
from repro.tune.tuner import _decision_key
from repro.util.errors import ValidationError
from repro.util.prng import default_rng

from tests.tune.conftest import fixed_measure


class TestRankBucket:
    def test_powers_of_two(self):
        assert rank_bucket(1) == 8
        assert rank_bucket(8) == 8
        assert rank_bucket(9) == 16
        assert rank_bucket(32) == 32
        assert rank_bucket(33) == 64

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            rank_bucket(0)


class TestEnumerateCandidates:
    def test_one_coo_candidate_per_backend(self, medium3d):
        labels = [c.label for c in enumerate_candidates(medium3d, 0)]
        assert labels[0] == "coo" and labels.count("coo") == 1
        assert "csf" in labels and "b-csf" in labels and "hb-csf" in labels
        both = enumerate_candidates(medium3d, 0,
                                    backends=("serial", "threads"))
        assert [c.label for c in both if c.format == "coo"] == [
            "coo", "coo+threads"]

    def test_csl_only_when_eligible(self, medium3d, singleton3d):
        assert "csl" not in [c.label for c in enumerate_candidates(medium3d, 0)]
        for mode in range(3):
            labels = [c.label for c in enumerate_candidates(singleton3d, mode)]
            assert "csl" in labels


class TestDecide:
    def test_winner_is_fastest_probe(self, medium3d):
        candidates = enumerate_candidates(medium3d, 0)
        # make the third candidate the clear winner
        table = {c.label: 1.0 for c in candidates}
        winner = candidates[2]
        table[winner.label] = 1e-6
        decision = decide(medium3d, 0, 32, measure=fixed_measure(table),
                          backend="serial")
        assert decision.label == winner.label
        assert decision.probe_seconds()[winner.label] == 1e-6

    def test_tie_breaks_to_registry_order(self, medium3d):
        candidates = enumerate_candidates(medium3d, 0)
        table = {c.label: 5e-4 for c in candidates}
        decision = decide(medium3d, 0, 32, measure=fixed_measure(table),
                          backend="serial")
        assert decision.label == candidates[0].label

    def test_deterministic_under_fixed_budget(self, medium3d):
        candidates = enumerate_candidates(medium3d, 0)
        table = {c.label: (i + 1) * 1e-4 for i, c in enumerate(candidates)}
        a = decide(medium3d, 0, 32, measure=fixed_measure(table),
                   use_cache=False, backend="serial")
        b = decide(medium3d, 0, 32, measure=fixed_measure(table),
                   use_cache=False, backend="serial")
        assert a == b

    def test_second_call_hits_cache(self, medium3d):
        before = decision_cache_stats()
        first = decide(medium3d, 0, 32, budget=ProbeBudget(repeats=1,
                                                           warmup=0))
        second = decide(medium3d, 0, 32, budget=ProbeBudget(repeats=1,
                                                            warmup=0))
        after = decision_cache_stats()
        assert second is first
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_content_addressed_across_equal_tensors(self, medium3d):
        from repro.tensor.coo import CooTensor

        clone = CooTensor(medium3d.indices.copy(), medium3d.values.copy(),
                          medium3d.shape)
        decide(medium3d, 0, 32, budget=ProbeBudget(repeats=1, warmup=0))
        before = decision_cache_stats()["hits"]
        decide(clone, 0, 32, budget=ProbeBudget(repeats=1, warmup=0))
        assert decision_cache_stats()["hits"] == before + 1

    def test_distinct_cells_probe_separately(self, medium3d):
        budget = ProbeBudget(repeats=1, warmup=0)
        decide(medium3d, 0, 32, budget=budget)
        misses = decision_cache_stats()["misses"]
        decide(medium3d, 1, 32, budget=budget)          # other mode
        decide(medium3d, 0, 64, budget=budget)          # other rank bucket
        decide(medium3d, 0, 32, budget=budget, dtype="float32")
        assert decision_cache_stats()["misses"] == misses + 3

    def test_rank_bucket_shares_decisions(self, medium3d):
        budget = ProbeBudget(repeats=1, warmup=0)
        a = decide(medium3d, 0, 17, budget=budget)
        b = decide(medium3d, 0, 32, budget=budget)      # same bucket (32)
        assert b is a

    def test_invalidation_forces_reprobe(self, medium3d):
        from repro.formats import tensor_fingerprint

        budget = ProbeBudget(repeats=1, warmup=0)
        decide(medium3d, 0, 32, budget=budget)
        removed = decision_cache().discard(
            fingerprint=tensor_fingerprint(medium3d))
        assert removed == 1
        misses = decision_cache_stats()["misses"]
        decide(medium3d, 0, 32, budget=budget)
        assert decision_cache_stats()["misses"] == misses + 1

    def test_stale_format_in_cache_is_reprobed(self, medium3d):
        budget = ProbeBudget(repeats=1, warmup=0)
        decision = decide(medium3d, 0, 32, budget=budget)
        key = _decision_key(medium3d, 0, 32, None, None, budget)
        decision_cache().put(
            key, dataclasses.replace(decision, format="no-such-format"))
        fresh = decide(medium3d, 0, 32, budget=budget)
        assert fresh.format != "no-such-format"


class TestAutoDispatch:
    def test_mttkrp_auto_matches_dense_reference(self, medium3d):
        factors = [default_rng(3).standard_normal((s, 8))
                   for s in medium3d.shape]
        for mode in range(medium3d.order):
            got = mttkrp(medium3d, factors, mode, format="auto")
            np.testing.assert_allclose(
                got, dense_mttkrp(medium3d, factors, mode),
                rtol=1e-9, atol=1e-9)

    def test_auto_bit_identical_to_explicit_winner(self, medium3d):
        factors = [default_rng(5).standard_normal((s, 32))
                   for s in medium3d.shape]
        for mode in range(medium3d.order):
            auto = mttkrp(medium3d, factors, mode, format="auto")
            decision = decide(medium3d, mode, 32)   # cache hit: same winner
            explicit = mttkrp(medium3d, factors, mode, format=decision.format,
                              backend=decision.backend,
                              num_workers=decision.num_workers)
            assert auto.dtype == np.float64
            assert np.array_equal(auto, explicit)

    def test_plan_auto_end_to_end(self, medium3d):
        factors = [default_rng(7).standard_normal((s, 8))
                   for s in medium3d.shape]
        plan = MttkrpPlan(medium3d, format="auto", rank=8)
        assert plan.format == "auto"
        assert set(plan.mode_formats) == {0, 1, 2}
        assert set(plan.decisions) == {0, 1, 2}
        for mode in range(medium3d.order):
            np.testing.assert_allclose(
                plan.mttkrp(factors, mode),
                dense_mttkrp(medium3d, factors, mode),
                rtol=1e-9, atol=1e-9)

    def test_plan_auto_requires_rank(self, medium3d):
        with pytest.raises(ValidationError):
            MttkrpPlan(medium3d, format="auto")

    def test_cp_als_auto_matches_default(self, medium3d):
        from repro.cpd.als import cp_als

        ref = cp_als(medium3d, 4, n_iters=3, rng=default_rng(2))
        auto = cp_als(medium3d, 4, n_iters=3, rng=default_rng(2),
                      format="auto")
        assert auto.final_fit == pytest.approx(ref.final_fit, rel=1e-8)

    def test_auto_probe_uses_plan_cache(self, medium3d):
        from repro.formats import plan_cache_stats

        decide(medium3d, 0, 32, budget=ProbeBudget(repeats=2, warmup=1))
        stats = plan_cache_stats()
        # every candidate's representation was built exactly once and the
        # warmup + repeat laps reused it
        assert stats["misses"] >= 3
        assert stats["entries"] == stats["misses"]
