"""Property-based tests of the MTTKRP kernels and their algebraic laws."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.mttkrp import FORMATS, mttkrp
from repro.core.splitting import SplitConfig
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.kernels.csf_mttkrp import LevelSum, csf_mttkrp
from repro.kernels.khatri_rao import khatri_rao
from repro.tensor.csf import build_csf
from repro.tensor.dense import einsum_mttkrp
from tests.property.strategies import coo_tensors, tensors_with_factors

COMMON_SETTINGS = settings(max_examples=40, deadline=None)


class TestKernelEquivalence:
    @COMMON_SETTINGS
    @given(tensors_with_factors(max_dim=8, max_nnz=40), st.integers(0, 3))
    def test_all_formats_match_dense_reference(self, tensor_factors, mode_pick):
        tensor, factors = tensor_factors
        mode = mode_pick % tensor.order
        want = einsum_mttkrp(tensor, factors, mode)
        for fmt in FORMATS:
            got = mttkrp(tensor, factors, mode, format=fmt)
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)

    @COMMON_SETTINGS
    @given(tensors_with_factors(max_dim=8, max_nnz=40),
           st.integers(1, 9), st.integers(1, 64))
    def test_splitting_never_changes_result(self, tensor_factors, threshold,
                                            block_nnz):
        tensor, factors = tensor_factors
        cfg = SplitConfig(fiber_threshold=threshold, block_nnz=block_nnz)
        got = mttkrp(tensor, factors, 0, format="b-csf", config=cfg)
        want = coo_mttkrp(tensor, factors, 0)
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)


class TestAlgebraicLaws:
    @COMMON_SETTINGS
    @given(tensors_with_factors(max_dim=8, max_nnz=40),
           st.floats(-3, 3, allow_nan=False))
    def test_linearity_in_values(self, tensor_factors, alpha):
        tensor, factors = tensor_factors
        base = mttkrp(tensor, factors, 0, format="hb-csf")
        scaled = mttkrp(tensor.with_values(alpha * tensor.values), factors, 0,
                        format="hb-csf")
        np.testing.assert_allclose(scaled, alpha * base, rtol=1e-7, atol=1e-7)

    @COMMON_SETTINGS
    @given(tensors_with_factors(max_dim=8, max_nnz=40))
    def test_additivity_in_a_factor(self, tensor_factors):
        """MTTKRP is linear in each non-target factor matrix."""
        tensor, factors = tensor_factors
        if tensor.order < 3:
            return
        other = 1  # a non-target mode
        rng = np.random.default_rng(0)
        delta = rng.standard_normal(factors[other].shape)
        plus = list(factors)
        plus[other] = factors[other] + delta
        only_delta = list(factors)
        only_delta[other] = delta
        lhs = mttkrp(tensor, plus, 0, format="csf")
        rhs = (mttkrp(tensor, factors, 0, format="csf")
               + mttkrp(tensor, only_delta, 0, format="csf"))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-7, atol=1e-7)

    @COMMON_SETTINGS
    @given(tensors_with_factors(max_dim=8, max_nnz=40))
    def test_target_factor_is_ignored(self, tensor_factors):
        tensor, factors = tensor_factors
        modified = list(factors)
        modified[0] = np.full_like(factors[0], 123.0)
        np.testing.assert_array_equal(
            mttkrp(tensor, factors, 0, format="hb-csf"),
            mttkrp(tensor, modified, 0, format="hb-csf"))


class TestSegmentSumAndKhatriRao:
    @COMMON_SETTINGS
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=10),
           st.integers(1, 5), st.integers(0, 2**16))
    def test_segment_sum_matches_bincount(self, seg_sizes, width, seed):
        rng = np.random.default_rng(seed)
        ptr = np.concatenate([[0], np.cumsum(seg_sizes)])
        data = rng.standard_normal((width, int(ptr[-1])))
        got = LevelSum(ptr)(data)
        want = np.stack([data[:, ptr[i]:ptr[i + 1]].sum(axis=1)
                         for i in range(len(seg_sizes))], axis=1)
        assert got.shape == (width, len(seg_sizes))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @COMMON_SETTINGS
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2**16))
    def test_khatri_rao_gram_identity(self, rows_a, rows_b, rank, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows_a, rank))
        b = rng.standard_normal((rows_b, rank))
        kr = khatri_rao([a, b])
        np.testing.assert_allclose(kr.T @ kr, (a.T @ a) * (b.T @ b),
                                   rtol=1e-9, atol=1e-9)

    @COMMON_SETTINGS
    @given(coo_tensors(max_dim=6, max_nnz=25, allow_empty=False))
    def test_csf_mttkrp_matches_matricized_product(self, tensor):
        """The defining identity: MTTKRP == X_(n) (⊙ other factors)."""
        from repro.tensor.dense import khatri_rao_dense, matricize

        rng = np.random.default_rng(1)
        rank = 3
        factors = [rng.standard_normal((s, rank)) for s in tensor.shape]
        rest = [m for m in range(tensor.order) if m != 0]
        explicit = matricize(tensor, 0) @ khatri_rao_dense(
            [factors[m] for m in rest[::-1]])
        got = csf_mttkrp(build_csf(tensor, 0), factors)
        np.testing.assert_allclose(got, explicit, rtol=1e-8, atol=1e-8)
