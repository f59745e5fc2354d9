"""Unit tests for the COO container."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.coo import CooTensor, csf_mode_ordering
from repro.tensor.random_gen import random_coo
from repro.util.errors import DimensionError, ValidationError
from repro.util.prng import default_rng
from tests.conftest import make_factors


class TestConstruction:
    def test_basic_properties(self):
        t = CooTensor([[0, 1, 2], [1, 0, 3]], [1.5, -2.0], (2, 2, 4))
        assert t.order == 3
        assert t.nnz == 2
        assert t.shape == (2, 2, 4)
        assert t.density == pytest.approx(2 / 16)

    def test_shape_inferred_from_indices(self):
        t = CooTensor([[0, 1], [3, 2]], [1.0, 2.0])
        assert t.shape == (4, 3)

    def test_empty_requires_shape(self):
        with pytest.raises(DimensionError):
            CooTensor(np.zeros((0, 3)), np.zeros(0))

    def test_empty_with_shape(self):
        t = CooTensor.empty((3, 4, 5))
        assert t.nnz == 0
        assert t.order == 3
        assert t.density == 0.0

    def test_out_of_bounds_index_rejected(self):
        with pytest.raises(ValidationError):
            CooTensor([[0, 0, 5]], [1.0], (2, 2, 5))

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            CooTensor([[0, -1, 0]], [1.0], (2, 2, 2))

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ValidationError):
            CooTensor(np.array([[0.5, 0.0, 0.0]]), [1.0], (2, 2, 2))

    def test_nan_value_rejected(self):
        with pytest.raises(ValidationError):
            CooTensor([[0, 0, 0]], [np.nan], (2, 2, 2))

    def test_value_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CooTensor([[0, 0, 0]], [1.0, 2.0], (2, 2, 2))

    def test_shape_order_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            CooTensor([[0, 0, 0]], [1.0], (2, 2))

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(DimensionError):
            CooTensor([[0, 0, 0]], [1.0], (2, 0, 2))

    def test_1d_indices_rejected(self):
        with pytest.raises(DimensionError):
            CooTensor(np.array([1, 2, 3]), [1.0, 2.0, 3.0], (4,))

    def test_sum_duplicates_at_construction(self):
        t = CooTensor([[0, 0, 0], [0, 0, 0], [1, 1, 1]], [1.0, 2.5, 3.0],
                      (2, 2, 2), sum_duplicates=True)
        assert t.nnz == 2
        assert t.to_dense()[0, 0, 0] == pytest.approx(3.5)


class TestFrozenArrays:
    """A tensor's content cannot change after construction, so a cache
    keyed by the tensor never serves a result of content it no longer
    holds."""

    @pytest.mark.parametrize("fmt", ["hb-csf", "auto", "csf", "coo"])
    def test_mutation_raises_and_cached_results_stay_true(self, fmt):
        x = random_coo((20, 30, 25), 900, default_rng(3))
        factors = make_factors(x.shape, 6, seed=4)
        before = repro.mttkrp(x, factors, 0, format=fmt)
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(x.values, 2, out=x.values)
        with pytest.raises(ValueError, match="read-only"):
            x.indices[0, 0] = 1
        np.testing.assert_array_equal(
            repro.mttkrp(x, factors, 0, format=fmt), before)
        # the supported way to change values: a new tensor (doubling is
        # exact, so its MTTKRP is exactly twice the old one)
        doubled = x.with_values(x.values * 2)
        np.testing.assert_array_equal(
            repro.mttkrp(doubled, factors, 0, format=fmt), 2 * before)

    def test_inputs_stored_without_copy_are_frozen(self):
        idx = np.array([[0, 1, 2], [1, 0, 3]], dtype=np.int64)
        vals = np.array([1.5, -2.0])
        t = CooTensor(idx, vals, (2, 2, 4))
        assert t.indices is idx and t.values is vals
        with pytest.raises(ValueError, match="read-only"):
            vals[0] = 3.0
        # an input converted on the way in is the caller's alone
        idx32 = idx.astype(np.int32)
        t = CooTensor(idx32, [1.5, -2.0], (2, 2, 4))
        assert idx32.flags.writeable and not t.indices.flags.writeable

    @pytest.mark.parametrize("fmt", ["hb-csf", "coo"])
    def test_views_of_a_writeable_base_are_copied(self, fmt):
        """Freezing ``buf[:-1]`` would not freeze ``buf``: writing through
        the base must not reach the tensor behind its memoised
        fingerprint."""
        x = random_coo((20, 30, 25), 900, default_rng(3))
        ibuf = np.concatenate([x.indices, x.indices[:1]])
        vbuf = np.concatenate([x.values, [1.0]])
        t = CooTensor(ibuf[:-1], vbuf[:-1], x.shape)
        factors = make_factors(x.shape, 6, seed=4)
        before = repro.mttkrp(t, factors, 0, format=fmt)
        vbuf *= 2
        ibuf[:, 0] = 0
        assert ibuf.flags.writeable and vbuf.flags.writeable
        np.testing.assert_array_equal(t.values, x.values)
        np.testing.assert_array_equal(t.indices, x.indices)
        np.testing.assert_array_equal(
            repro.mttkrp(t, factors, 0, format=fmt), before)
        np.testing.assert_array_equal(
            before, repro.mttkrp(x, factors, 0, format=fmt))

    def test_views_of_read_only_memory_are_not_copied(self):
        x = random_coo((20, 30, 25), 900, default_rng(3))
        t = CooTensor(x.indices[:-1], x.values[:-1], x.shape)
        assert np.shares_memory(t.indices, x.indices)
        assert np.shares_memory(t.values, x.values)

    def test_arrays_over_a_writeable_buffer_are_copied(self):
        x = random_coo((20, 30, 25), 900, default_rng(3))
        raw = bytearray(x.values.tobytes())
        t = CooTensor(x.indices, np.frombuffer(raw), x.shape)
        raw[:8] = bytes(8)
        np.testing.assert_array_equal(t.values, x.values)


class TestUnpackableShape:
    """prod(shape) >= 2**63: no int64 key, so the sorts take np.lexsort.

    A packed key would alias (0, 0, 0) and (2**30, 0, 0) here and merge
    two distinct nonzeros into one.
    """

    SHAPE = (2**32, 2**32, 4)
    INDICES = [[2**30, 0, 0], [0, 0, 0], [2**30, 0, 0]]
    VALUES = [2.0, 1.0, 0.5]

    def tensor(self):
        return CooTensor(self.INDICES, self.VALUES, self.SHAPE)

    def fallbacks(self, fn):
        before = counters_snapshot()
        out = fn()
        return out, counters_delta(before).get("tensor.sort.fallback", 0)

    def test_sorted_unique_keeps_distinct_coordinates(self):
        t, fallbacks = self.fallbacks(
            lambda: self.tensor().sorted_unique((0, 1, 2)))
        assert fallbacks == 1
        assert t.indices.tolist() == [[0, 0, 0], [2**30, 0, 0]]
        assert t.values.tolist() == [1.0, 2.5]

    def test_deduplicated_and_constructor_keep_distinct_coordinates(self):
        t = CooTensor([[0, 0, 0], [2**30, 0, 0]], [1.0, 2.0], self.SHAPE)
        assert t.deduplicated().nnz == 2
        summed = CooTensor([[0, 0, 0], [2**30, 0, 0]], [1.0, 2.0],
                           self.SHAPE, sum_duplicates=True)
        assert summed.indices.tolist() == [[0, 0, 0], [2**30, 0, 0]]
        assert summed.values.tolist() == [1.0, 2.0]

    def test_sorted_by_modes_is_stable_lexsort(self):
        t, fallbacks = self.fallbacks(
            lambda: self.tensor().sorted_by_modes((2, 1, 0)))
        assert fallbacks == 1
        assert t.indices.tolist() == [[0, 0, 0], [2**30, 0, 0],
                                      [2**30, 0, 0]]
        assert t.values.tolist() == [1.0, 2.0, 0.5]

    def test_packable_shape_takes_no_fallback(self, small3d):
        _, fallbacks = self.fallbacks(lambda: small3d.sorted_unique())
        assert fallbacks == 0


class TestRoundTrips:
    def test_dense_roundtrip(self, small3d):
        dense = small3d.to_dense()
        back = CooTensor.from_dense(dense)
        assert back == small3d.deduplicated()

    def test_to_dense_accumulates_duplicates(self):
        t = CooTensor([[0, 0], [0, 0]], [1.0, 2.0], (1, 1))
        assert t.to_dense()[0, 0] == pytest.approx(3.0)

    def test_permute_modes_roundtrip(self, small3d):
        perm = (2, 0, 1)
        inverse = (1, 2, 0)
        assert small3d.permute_modes(perm).permute_modes(inverse) == small3d

    def test_permute_modes_invalid(self, small3d):
        with pytest.raises(DimensionError):
            small3d.permute_modes((0, 0, 1))

    def test_sorted_by_modes_is_lexicographic(self, small3d):
        s = small3d.sorted_by_modes((1, 2, 0))
        key = [tuple(row) for row in s.indices[:, [1, 2, 0]]]
        assert key == sorted(key)

    def test_equality_is_order_insensitive(self):
        a = CooTensor([[0, 0, 0], [1, 1, 1]], [1.0, 2.0], (2, 2, 2))
        b = CooTensor([[1, 1, 1], [0, 0, 0]], [2.0, 1.0], (2, 2, 2))
        assert a == b

    def test_with_values(self, small3d):
        doubled = small3d.with_values(small3d.values * 2)
        assert np.allclose(doubled.to_dense(), 2 * small3d.to_dense())

    def test_with_values_wrong_length(self, small3d):
        with pytest.raises(ValidationError):
            small3d.with_values(np.ones(small3d.nnz + 1))


class TestStructuralQueries:
    def test_slice_keys_counts_sum_to_nnz(self, small3d):
        for mode in range(3):
            _, counts = small3d.slice_keys(mode)
            assert counts.sum() == small3d.nnz

    def test_fiber_keys_counts_sum_to_nnz(self, small4d):
        for mode in range(4):
            _, counts = small4d.fiber_keys(mode)
            assert counts.sum() == small4d.nnz

    def test_num_slices_matches_unique_indices(self, small3d):
        for mode in range(3):
            expected = np.unique(small3d.indices[:, mode]).shape[0]
            assert small3d.num_slices(mode) == expected

    def test_num_fibers_at_least_num_slices(self, small3d):
        for mode in range(3):
            assert small3d.num_fibers(mode) >= small3d.num_slices(mode)

    def test_fibers_bounded_by_nnz(self, small4d):
        for mode in range(4):
            assert small4d.num_fibers(mode) <= small4d.nnz

    def test_mode_out_of_range(self, small3d):
        with pytest.raises(DimensionError):
            small3d.num_slices(3)
        with pytest.raises(DimensionError):
            small3d.mode_index(-1)

    def test_csf_mode_ordering(self):
        assert csf_mode_ordering(3, 0) == (0, 1, 2)
        assert csf_mode_ordering(3, 1) == (1, 0, 2)
        assert csf_mode_ordering(4, 2) == (2, 0, 1, 3)
        with pytest.raises(DimensionError):
            csf_mode_ordering(3, 3)
