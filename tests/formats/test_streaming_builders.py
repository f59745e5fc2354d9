"""CSF-family builds streamed from shards must be bit-identical to in-memory.

The builders treat an in-memory ``CooTensor`` as one sorted chunk and a
sharded tensor as many, so these tests check chunk invariance: every array
of every representation built from a shard manifest must equal — bit for
bit, compared through ``view(uint64)`` so ``-0.0`` and NaN payloads count —
the arrays built from the equivalent in-RAM ``CooTensor``.  The independent
reference is ``test_golden_structures.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bcsf import build_bcsf
from repro.core.csl import build_csl_group
from repro.core.hybrid import build_hbcsf
from repro.tensor.coo import CooTensor, INDEX_DTYPE, VALUE_DTYPE
from repro.tensor.csf import build_csf
from repro.tensor.random_gen import random_coo
from repro.tensor.shards import save_sharded
from repro.util.prng import default_rng


def dup_tensor(shape, nnz, seed):
    rng = default_rng(seed)
    indices = np.stack([rng.integers(0, s, size=nnz) for s in shape],
                       axis=1).astype(INDEX_DTYPE)
    values = rng.standard_normal(nnz).astype(VALUE_DTYPE)
    return CooTensor(indices, values, shape)


TENSORS = {
    "order3": lambda: random_coo((19, 14, 23), 1_100, default_rng(21)),
    "order4": lambda: random_coo((9, 8, 11, 7), 900, default_rng(22)),
    "duplicates": lambda: dup_tensor((13, 11, 17), 2_500, 23),
}


def assert_bits(a: np.ndarray, b: np.ndarray) -> None:
    if a.dtype.kind == "f":
        itemsize = a.dtype.itemsize
        view = np.uint64 if itemsize == 8 else np.uint32
        np.testing.assert_array_equal(a.view(view), b.view(view))
    else:
        np.testing.assert_array_equal(a, b)


def assert_csf_equal(a, b) -> None:
    assert a.shape == b.shape
    assert a.mode_order == b.mode_order
    assert len(a.fptr) == len(b.fptr) and len(a.fids) == len(b.fids)
    for pa, pb in zip(a.fptr, b.fptr):
        np.testing.assert_array_equal(pa, pb)
    for fa, fb in zip(a.fids, b.fids):
        np.testing.assert_array_equal(fa, fb)
    assert_bits(a.values, b.values)


@pytest.fixture(params=sorted(TENSORS), scope="module")
def case(request, tmp_path_factory):
    tensor = TENSORS[request.param]()
    root = tmp_path_factory.mktemp("stream") / request.param
    sharded = save_sharded(tensor, root, shard_nnz=197)
    return tensor, sharded


class TestStreamingCsf:
    def test_all_root_modes(self, case):
        tensor, sharded = case
        for mode in range(tensor.order):
            expected = build_csf(tensor, mode)
            got = build_csf(sharded, mode)
            assert_csf_equal(got, expected)

    def test_empty_tensor(self, tmp_path):
        empty = CooTensor.empty((4, 5, 6))
        sharded = save_sharded(empty, tmp_path / "e", shard_nnz=8)
        assert_csf_equal(build_csf(sharded, 0), build_csf(empty, 0))


def assert_bcsf_equal(a, b) -> None:
    assert_csf_equal(a.csf, b.csf)
    np.testing.assert_array_equal(a.segment_of_fiber, b.segment_of_fiber)
    np.testing.assert_array_equal(a.blocks_per_slice, b.blocks_per_slice)
    assert a.original_num_fibers == b.original_num_fibers


class TestStreamingBcsf:
    @pytest.mark.parametrize("mode", [0, 1])
    def test_bit_identical(self, case, mode):
        tensor, sharded = case
        expected = build_bcsf(tensor, mode)
        got = build_bcsf(sharded, mode)
        assert_bcsf_equal(got, expected)


class TestStreamingHbcsf:
    @pytest.mark.parametrize("mode", [0, 2])
    def test_bit_identical(self, case, mode):
        tensor, sharded = case
        expected = build_hbcsf(tensor, mode)
        got = build_hbcsf(sharded, mode)
        for mask in ("coo_mask", "csl_mask", "csf_mask"):
            np.testing.assert_array_equal(getattr(got.partition, mask),
                                          getattr(expected.partition, mask))
        np.testing.assert_array_equal(got.coo_group.indices,
                                      expected.coo_group.indices)
        assert_bits(got.coo_group.values, expected.coo_group.values)
        np.testing.assert_array_equal(got.csl_group.slice_inds,
                                      expected.csl_group.slice_inds)
        np.testing.assert_array_equal(got.csl_group.slice_ptr,
                                      expected.csl_group.slice_ptr)
        np.testing.assert_array_equal(got.csl_group.rest_indices,
                                      expected.csl_group.rest_indices)
        assert_bits(got.csl_group.values, expected.csl_group.values)
        assert (got.bcsf_group is None) == (expected.bcsf_group is None)
        if expected.bcsf_group is not None:
            assert_bcsf_equal(got.bcsf_group, expected.bcsf_group)


def csl_representable(shape=(30, 20, 25), nnz=240, seed=31) -> CooTensor:
    """Every fiber a singleton: unique (mode-0, mode-1) pairs, random mode-2."""
    rng = default_rng(seed)
    pairs = rng.choice(shape[0] * shape[1], size=nnz, replace=False)
    indices = np.stack([pairs // shape[1], pairs % shape[1],
                        rng.integers(0, shape[2], size=nnz)],
                       axis=1).astype(INDEX_DTYPE)
    return CooTensor(indices, rng.standard_normal(nnz).astype(VALUE_DTYPE),
                     shape)


class TestStreamingCsl:
    def test_matches_in_memory_group(self, tmp_path):
        tensor = csl_representable()
        sharded = save_sharded(tensor, tmp_path / "csl", shard_nnz=53)
        csf = build_csf(tensor, 0)
        expected = build_csl_group(csf)
        got = build_csl_group(build_csf(sharded, 0))
        np.testing.assert_array_equal(got.slice_inds, expected.slice_inds)
        np.testing.assert_array_equal(got.slice_ptr, expected.slice_ptr)
        np.testing.assert_array_equal(got.rest_indices, expected.rest_indices)
        assert_bits(got.values, expected.values)


class TestDispatchIntegration:
    def test_mttkrp_dispatch_and_plan_cache(self, tmp_path):
        from repro.core.mttkrp import mttkrp
        from repro.formats import tensor_fingerprint

        tensor = TENSORS["duplicates"]()
        sharded = save_sharded(tensor, tmp_path / "d", shard_nnz=311)
        rng = default_rng(99)
        factors = [rng.standard_normal((s, 6)) for s in tensor.shape]
        dedup = tensor.deduplicated()
        for fmt in ("csf", "b-csf", "hb-csf"):
            expected = mttkrp(dedup, factors, 0, fmt)
            got = mttkrp(sharded, factors, 0, fmt)
            assert_bits(got, expected)
        assert tensor_fingerprint(sharded).startswith("sharded:")

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtype_policy(self, tmp_path, dtype):
        from repro.formats import get_format

        tensor = TENSORS["order3"]()
        sharded = save_sharded(tensor, tmp_path / dtype, shard_nnz=151)
        for name in ("csf", "b-csf", "hb-csf"):
            fmt = get_format(name)
            rep_mem = fmt.build(tensor, 0, None, dtype)
            rep_ooc = fmt.build(sharded, 0, None, dtype)
            if name == "csf":
                assert rep_ooc.values.dtype == rep_mem.values.dtype
                assert_bits(rep_ooc.values, rep_mem.values)
            elif name == "b-csf":
                assert_bits(rep_ooc.csf.values, rep_mem.csf.values)
            else:
                assert_bits(rep_ooc.bcsf_group.csf.values,
                            rep_mem.bcsf_group.csf.values)
