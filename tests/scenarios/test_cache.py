"""Tests for the content-addressed scenario cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

pytestmark = pytest.mark.chaos_sensitive  # asserts entry presence after put

from repro.scenarios import ScenarioCache, materialize, parse_spec
from repro.scenarios.registry import _GENERATORS
from repro.util.errors import ValidationError

SPEC = {"generator": "uniform", "shape": [20, 25, 30], "nnz": 500, "seed": 11}
POWER_LAW = {"generator": "power_law", "shape": [2_000, 1_500, 2_500],
             "nnz": 30_000, "seed": 42}


@pytest.fixture
def cache(tmp_path) -> ScenarioCache:
    return ScenarioCache(tmp_path / "scenarios")


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        spec = parse_spec(SPEC)
        assert cache.get(spec) is None
        first = materialize(spec, cache)
        assert spec in cache
        assert cache.get(spec) == first

    def test_round_trip_is_bit_identical(self, cache):
        spec = parse_spec(SPEC)
        generated = materialize(spec, cache)
        loaded = materialize(spec, cache)
        assert np.array_equal(generated.indices, loaded.indices)
        assert np.array_equal(generated.values, loaded.values)
        assert generated.shape == loaded.shape

    def test_cold_miss_after_clear(self, cache):
        spec = parse_spec(POWER_LAW)
        materialize(spec, cache)
        cache.clear()
        assert materialize(spec, cache).nnz > 0

    def test_warm_hit_equals_generated(self, cache):
        spec = parse_spec(POWER_LAW)
        generated = materialize(spec, cache)
        assert materialize(spec, cache) == generated

    def test_second_call_does_not_invoke_generator(self, cache, monkeypatch):
        import dataclasses

        spec = parse_spec(SPEC)
        materialize(spec, cache)

        calls = []
        gen = _GENERATORS["uniform"]
        original = gen.fn

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setitem(_GENERATORS, "uniform",
                            dataclasses.replace(gen, fn=counting))
        materialize(spec, cache)
        assert calls == []  # pure cache hit

        # a different seed is a different address -> generator runs
        materialize(spec.with_seed(999), cache)
        assert calls == [1]

    def test_no_cache_means_no_files(self, tmp_path):
        materialize(SPEC)
        assert not (tmp_path / "scenarios").exists()

    def test_scale_and_seed_overrides_address_separately(self, cache):
        materialize(SPEC, cache, scale=0.5)
        materialize(SPEC, cache, scale=1.0)
        assert len(cache.manifest()) == 2


class TestManifest:
    def test_manifest_round_trip(self, cache):
        spec = parse_spec({**SPEC, "name": "demo"})
        tensor = materialize(spec, cache)
        manifest = cache.manifest()
        entry = manifest[spec.spec_hash()]
        assert entry["name"] == "demo"
        assert entry["nnz"] == tensor.nnz
        assert entry["shape"] == list(tensor.shape)
        assert entry["spec"] == spec.canonical()
        assert (cache.root / entry["file"]).exists()

    def test_manifest_survives_reopen(self, cache):
        spec = parse_spec(SPEC)
        materialize(spec, cache)
        reopened = ScenarioCache(cache.root)
        assert reopened.manifest() == cache.manifest()
        assert reopened.get(spec) is not None

    def test_corrupt_manifest_is_empty(self, cache):
        cache.root.mkdir(parents=True)
        cache.manifest_path.write_text("{not json")
        assert cache.manifest() == {}


class TestRobustness:
    def test_corrupt_entry_is_regenerated(self, cache):
        spec = parse_spec(SPEC)
        tensor = materialize(spec, cache)
        cache.path_for(spec).write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(spec) is None      # treated as a miss
        assert not cache.path_for(spec).exists()  # and quarantined
        assert materialize(spec, cache) == tensor

    def test_put_rejects_shape_mismatch(self, cache):
        spec = parse_spec(SPEC)
        other = materialize({**SPEC, "shape": [5, 5, 5]})
        with pytest.raises(ValidationError, match="does not match"):
            cache.put(spec, other)

    def test_clear(self, cache):
        materialize(SPEC, cache)
        materialize({**SPEC, "seed": 12}, cache)
        assert cache.clear() == 2
        assert cache.manifest() == {}
        assert cache.clear() == 0

    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        from repro.scenarios import default_cache_dir

        monkeypatch.setenv("REPRO_SCENARIO_CACHE", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"
