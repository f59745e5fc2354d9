"""COO-MTTKRP (Algorithm 2) correctness tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.coo_mttkrp import SORT_MIN_NNZ, coo_mttkrp
from repro.tensor.coo import CooTensor
from repro.tensor.dense import einsum_mttkrp
from repro.tensor.random_gen import random_coo
from repro.util.errors import DimensionError, ValidationError
from repro.util.prng import default_rng
from tests.conftest import make_factors


class TestCorrectness:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_reference_3d(self, small3d, factors3d, mode):
        got = coo_mttkrp(small3d, factors3d, mode)
        want = einsum_mttkrp(small3d, factors3d, mode)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_reference_4d(self, small4d, factors4d, mode):
        got = coo_mttkrp(small4d, factors4d, mode)
        want = einsum_mttkrp(small4d, factors4d, mode)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_skewed_tensor(self, skewed3d):
        factors = make_factors(skewed3d.shape, 16, seed=3)
        got = coo_mttkrp(skewed3d, factors, 0)
        want = einsum_mttkrp(skewed3d, factors, 0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_rank_one(self, small3d):
        factors = make_factors(small3d.shape, 1, seed=5)
        got = coo_mttkrp(small3d, factors, 1)
        assert got.shape == (small3d.shape[1], 1)

    def test_empty_tensor(self):
        t = CooTensor.empty((4, 5, 6))
        factors = make_factors(t.shape, 3)
        out = coo_mttkrp(t, factors, 0)
        assert np.all(out == 0.0)

    def test_target_factor_not_read(self, small3d, factors3d):
        """Algorithm 2 never reads factors[mode]; only its shape matters."""
        modified = list(factors3d)
        modified[0] = np.full_like(factors3d[0], 1e9)
        a = coo_mttkrp(small3d, factors3d, 0)
        b = coo_mttkrp(small3d, modified, 0)
        np.testing.assert_array_equal(a, b)


class TestAccumulationMethods:
    @pytest.mark.parametrize("method", ["sort"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_fast_paths_match_add_at(self, small3d, factors3d, mode, method):
        a = coo_mttkrp(small3d, factors3d, mode, method="add_at")
        b = coo_mttkrp(small3d, factors3d, mode, method=method)
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-14)

    def test_auto_matches_reference_large(self):
        tensor = random_coo((40, 30, 50), 3 * SORT_MIN_NNZ, default_rng(7))
        assert tensor.nnz >= SORT_MIN_NNZ
        factors = make_factors(tensor.shape, 8, seed=11)
        auto = coo_mttkrp(tensor, factors, 0)  # auto -> sort here
        want = einsum_mttkrp(tensor, factors, 0)
        np.testing.assert_allclose(auto, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("method", ["sort"])
    def test_fast_paths_accumulate_into_out(self, small3d, factors3d, method):
        base = np.ones((small3d.shape[0], factors3d[0].shape[1]))
        got = coo_mttkrp(small3d, factors3d, 0, out=base, method=method)
        want = 1.0 + coo_mttkrp(small3d, factors3d, 0, method="add_at")
        assert got is base
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_unknown_method_rejected(self, small3d, factors3d):
        with pytest.raises(ValidationError):
            coo_mttkrp(small3d, factors3d, 0, method="magic")


class TestOutParameter:
    def test_accumulates_into_out(self, small3d, factors3d):
        base = np.ones((small3d.shape[0], factors3d[0].shape[1]))
        got = coo_mttkrp(small3d, factors3d, 0, out=base)
        want = 1.0 + coo_mttkrp(small3d, factors3d, 0)
        assert got is base
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_wrong_out_shape_rejected(self, small3d, factors3d):
        with pytest.raises(DimensionError):
            coo_mttkrp(small3d, factors3d, 0, out=np.zeros((1, 1)))


class TestLinearity:
    def test_linear_in_values(self, small3d, factors3d):
        a = coo_mttkrp(small3d, factors3d, 0)
        b = coo_mttkrp(small3d.with_values(3.0 * small3d.values), factors3d, 0)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12)

    def test_linear_in_factor(self, small3d, factors3d):
        scaled = list(factors3d)
        scaled[2] = 2.0 * factors3d[2]
        a = coo_mttkrp(small3d, factors3d, 0)
        b = coo_mttkrp(small3d, scaled, 0)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)
