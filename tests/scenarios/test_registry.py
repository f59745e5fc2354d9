"""Tests for the generator registry and parameter schemas."""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios import (
    Param,
    generator_names,
    get_generator,
    materialize,
    parse_spec,
    register_generator,
)
from repro.scenarios.registry import _GENERATORS
from repro.tensor.coo import CooTensor
from repro.util.errors import DimensionError, ValidationError


class TestRegistryContents:
    def test_at_least_five_generators(self):
        assert len(generator_names()) >= 5

    def test_expected_families_present(self):
        names = set(generator_names())
        assert {"power_law", "block_community", "banded_temporal",
                "kronecker_graph", "uniform_background"} <= names

    def test_unknown_generator(self):
        with pytest.raises(ValidationError, match="unknown generator"):
            get_generator("no-such-generator")

    def test_double_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_generator("power_law", description="dup")(lambda *a: None)

    def test_every_generator_has_description_and_docs(self):
        for name in generator_names():
            gen = get_generator(name)
            assert gen.description
            for p in gen.params:
                assert p.doc, f"{name}.{p.name} has no doc"


class TestParamValidation:
    def test_defaults_filled(self):
        gen = get_generator("power_law")
        full = gen.validate_params({})
        assert full["fiber_alpha"] == 2.5
        assert full["max_fiber_nnz"] is None

    def test_unknown_param_rejected(self):
        gen = get_generator("uniform")
        with pytest.raises(ValidationError, match="does not accept"):
            gen.validate_params({"bogus": 1})

    def test_type_mismatch_rejected(self):
        gen = get_generator("power_law")
        with pytest.raises(ValidationError, match="expects a number"):
            gen.validate_params({"fiber_alpha": "high"})
        with pytest.raises(ValidationError, match="expects an int"):
            gen.validate_params({"num_heavy_slices": 1.5})

    def test_bool_is_not_an_int(self):
        gen = get_generator("power_law")
        with pytest.raises(ValidationError):
            gen.validate_params({"num_heavy_slices": True})

    def test_bounds_enforced(self):
        gen = get_generator("power_law")
        with pytest.raises(ValidationError, match=">="):
            gen.validate_params({"fiber_alpha": 0.5})
        with pytest.raises(ValidationError, match="<="):
            gen.validate_params({"heavy_slice_fraction": 1.5})

    def test_none_only_where_allowed(self):
        gen = get_generator("power_law")
        assert gen.validate_params({"max_fiber_nnz": None})["max_fiber_nnz"] is None
        with pytest.raises(ValidationError, match="must not be None"):
            gen.validate_params({"fiber_alpha": None})

    def test_int_coercion_from_integral_float(self):
        gen = get_generator("power_law")
        out = gen.validate_params({"num_heavy_slices": 2.0})
        assert out["num_heavy_slices"] == 2
        assert isinstance(out["num_heavy_slices"], int)

    def test_required_param(self):
        param = Param("mandatory", int)
        assert param.required
        with pytest.raises(KeyError):
            get_generator("uniform").param("mandatory")


class TestGenerate:
    @pytest.mark.parametrize("generator", generator_names())
    def test_materialize_within_budget(self, generator):
        spec = parse_spec({"generator": generator,
                           "shape": [2_000, 1_500, 2_500], "nnz": 30_000,
                           "seed": 42})
        assert 0 < materialize(spec).nnz <= 30_000

    def test_generate_validates_shape(self):
        gen = get_generator("uniform")
        with pytest.raises(DimensionError):
            gen.generate((10, -1, 10), 100)
        with pytest.raises(DimensionError):
            gen.generate((10, 10), 100)  # below min_order

    def test_generate_validates_nnz(self):
        with pytest.raises(ValidationError):
            get_generator("uniform").generate((5, 5, 5), -1)

    def test_zero_nnz_is_empty(self):
        t = get_generator("kronecker_graph").generate((8, 8, 8), 0)
        assert t.nnz == 0 and t.shape == (8, 8, 8)

    def test_banded_temporal_zero_bandwidth_is_diagonal(self):
        t = get_generator("banded_temporal").generate(
            (50, 10, 50), 500, rng=1, bandwidth=0.0, drift=1.0,
            entity_alpha=0.0)
        # time index must equal the entity's band center exactly
        import numpy as np

        centers = np.rint(t.indices[:, 0] / 50 * 50) % 50
        assert np.array_equal(t.indices[:, -1], centers.astype(t.indices.dtype))

    def test_custom_generator_roundtrip(self):
        @register_generator("_test_ones", description="test-only",
                            params=(Param("k", int, 1, minimum=1),))
        def _gen(shape, nnz, rng, *, k):
            idx = np.zeros((min(nnz, k), len(shape)), dtype=np.int64)
            vals = np.ones(min(nnz, k))
            return CooTensor(idx, vals, shape, validate=False,
                             sum_duplicates=True)

        try:
            t = get_generator("_test_ones").generate((4, 4, 4), 10, k=3)
            assert t.nnz == 1  # duplicates merged
        finally:
            _GENERATORS.pop("_test_ones", None)
