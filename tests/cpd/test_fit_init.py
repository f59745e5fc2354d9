"""Tests for factor initialisation and fit computation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpd.fit import (column_dots, cp_fit, cp_innerprod, cp_norm,
                           tensor_norm)
from repro.cpd.init import init_factors
from repro.tensor.coo import CooTensor
from repro.util.errors import DimensionError, ValidationError
from repro.util.prng import default_rng


def rank_one_tensor(shape=(4, 5, 6), seed=0):
    rng = default_rng(seed)
    vecs = [rng.random(s) + 0.1 for s in shape]
    dense = np.einsum("i,j,k->ijk", *vecs)
    return CooTensor.from_dense(dense), vecs


class TestInit:
    def test_shapes_and_determinism(self, small3d):
        a = init_factors(small3d, 5, rng=3)
        b = init_factors(small3d, 5, rng=3)
        assert [f.shape for f in a] == [(s, 5) for s in small3d.shape]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_randn(self, small3d):
        f = init_factors(small3d, 4, method="randn", rng=1)
        assert any(np.any(m < 0) for m in f)

    def test_errors(self, small3d):
        with pytest.raises(ValidationError):
            init_factors(small3d, 0)
        with pytest.raises(ValidationError):
            init_factors(small3d, 3, method="svd")


class TestNorms:
    def test_tensor_norm(self, small3d):
        assert tensor_norm(small3d) == pytest.approx(
            np.linalg.norm(small3d.to_dense()))

    def test_cp_norm_matches_dense(self):
        rng = default_rng(2)
        factors = [rng.random((4, 3)), rng.random((5, 3)), rng.random((6, 3))]
        weights = rng.random(3)
        dense = np.einsum("r,ir,jr,kr->ijk", weights, *factors)
        assert cp_norm(weights, factors) == pytest.approx(np.linalg.norm(dense))

    def test_cp_norm_weight_shape_checked(self):
        with pytest.raises(DimensionError):
            cp_norm(np.ones(2), [np.ones((3, 4))])


class TestColumnDots:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 7, 100, 4097, 8193, 70001])
    def test_bit_identical_to_the_full_product_on_f_arrays(self, dtype, rows):
        """CP-ALS norms and inner products keep their bits: each column is
        reduced pairwise, as ``np.sum(a * b, axis=0)`` does on F arrays."""
        rng = default_rng(rows)
        a, b = (np.asfortranarray(
            (rng.standard_normal((rows, 6))
             * 10.0 ** rng.uniform(-3, 3, (rows, 6))).astype(dtype))
            for _ in range(2))
        for x, y in ((a, a), (a, b)):
            want = np.sum(x * y, axis=0)
            got = column_dots(x, y)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [1, 7, 8, 9, 32, 33])
    def test_any_layout_gives_the_f_array_bits(self, dtype, rank):
        """C-ordered MTTKRP outputs and mixed layouts give the bits of the
        full product on F copies, across the 8-column blocks."""
        rng = default_rng(rank)
        a, b = ((rng.standard_normal((4099, rank))
                 * 10.0 ** rng.uniform(-3, 3, (4099, rank))).astype(dtype)
                for _ in range(2))
        want = np.sum(np.asfortranarray(a) * np.asfortranarray(b), axis=0)
        for x, y in ((a, b), (np.asfortranarray(a), b),
                     (a, np.asfortranarray(b))):
            got = column_dots(x, y)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestInnerprodAndFit:
    def test_innerprod_matches_dense(self, small3d):
        rng = default_rng(3)
        factors = [rng.random((s, 4)) for s in small3d.shape]
        weights = rng.random(4)
        dense_model = np.einsum("r,ir,jr,kr->ijk", weights, *factors)
        expected = float(np.sum(dense_model * small3d.to_dense()))
        got = cp_innerprod(small3d, weights, factors)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_innerprod_via_mttkrp_shortcut(self, small3d):
        from repro.kernels.coo_mttkrp import coo_mttkrp

        rng = default_rng(4)
        factors = [rng.random((s, 3)) for s in small3d.shape]
        weights = rng.random(3)
        direct = cp_innerprod(small3d, weights, factors)
        m_last = coo_mttkrp(small3d, factors, small3d.order - 1)
        shortcut = cp_innerprod(small3d, weights, factors,
                                mttkrp_last=m_last, last_mode=small3d.order - 1)
        assert shortcut == pytest.approx(direct, rel=1e-10)

    def test_perfect_model_has_fit_one(self):
        tensor, vecs = rank_one_tensor()
        factors = [v.reshape(-1, 1) for v in vecs]
        weights = np.ones(1)
        assert cp_fit(tensor, weights, factors) == pytest.approx(1.0, abs=1e-10)

    def test_zero_model_fit(self, small3d):
        factors = [np.zeros((s, 2)) for s in small3d.shape]
        fit = cp_fit(small3d, np.zeros(2), factors)
        assert fit == pytest.approx(0.0, abs=1e-12)

    def test_empty_tensor_innerprod(self):
        t = CooTensor.empty((2, 3, 4))
        assert cp_innerprod(t, np.ones(2), [np.ones((s, 2)) for s in t.shape]) == 0.0
