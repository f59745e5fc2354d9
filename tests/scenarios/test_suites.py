"""Tests for scenario suites."""

from __future__ import annotations

import pytest

from repro.scenarios import (
    ScenarioCache,
    get_suite,
    iter_suite,
    parse_spec,
    register_suite,
    suite_names,
)
from repro.scenarios.suites import _SUITES
from repro.tensor.coo import CooTensor
from repro.util.errors import ValidationError


class TestSuiteRegistry:
    def test_at_least_three_suites(self):
        assert len(suite_names()) >= 3

    def test_builtin_suites_present(self):
        assert {"paper12", "imbalance_sweep", "scaling_ladder",
                "structure_zoo"} <= set(suite_names())

    def test_unknown_suite(self):
        with pytest.raises(ValidationError, match="unknown suite"):
            get_suite("no-such-suite")

    def test_double_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_suite("paper12", description="dup")(lambda: [])

    def test_custom_suite(self):
        spec = parse_spec({"generator": "uniform", "shape": [6, 6, 6],
                           "nnz": 50, "seed": 1})

        @register_suite("_test_suite", description="test-only")
        def _build():
            return [("only", spec)]

        try:
            assert [n for n, _ in get_suite("_test_suite").specs()] == ["only"]
            pairs = list(iter_suite("_test_suite"))
            assert pairs[0][0] == "only" and isinstance(pairs[0][1], CooTensor)
        finally:
            _SUITES.pop("_test_suite", None)


class TestBuiltinSuites:
    def test_paper12_matches_dataset_registry(self):
        from repro.tensor.datasets import ALL_DATASETS, load_dataset

        names = [n for n, _ in get_suite("paper12").specs()]
        assert names == list(ALL_DATASETS)
        # the suite's specs generate the same data as the legacy shim
        name, spec = get_suite("paper12").specs()[0]
        from repro.scenarios import materialize

        assert materialize(spec) == load_dataset(name)

    def test_every_suite_yields_valid_specs(self):
        for suite_name in suite_names():
            for name, spec in get_suite(suite_name).specs():
                assert name
                assert parse_spec(spec) == spec

    def test_imbalance_sweep_is_monotonically_more_skewed(self):
        from repro.tensor.stats import mode_stats

        stds = [mode_stats(t, 0).nnz_per_slice_std
                for _, t in iter_suite("imbalance_sweep", scale=0.2)]
        assert stds[-1] > stds[0]

    def test_imbalance_sweep_has_five_tensors_at_half_scale(self):
        assert len(list(iter_suite("imbalance_sweep", scale=0.5))) == 5

    def test_scaling_ladder_budgets_increase(self):
        specs = [spec for _, spec in get_suite("scaling_ladder").specs()]
        budgets = [s.nnz for s in specs]
        assert budgets == sorted(budgets) and budgets[0] < budgets[-1]

    def test_iter_suite_scale_and_cache(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        first = dict(iter_suite("structure_zoo", scale=0.05, cache=cache))
        assert len(cache.manifest()) == len(first)
        second = dict(iter_suite("structure_zoo", scale=0.05, cache=cache))
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name]
