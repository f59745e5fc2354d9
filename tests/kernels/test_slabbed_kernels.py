"""Slab-bounded kernel evaluation: bit-identity at any slab size.

The CSF and CSL kernels bound their ``(R, nnz)`` scratch by evaluating
root-aligned slabs; because slabs split only at root-entry / slice
boundaries, the result must be bit-identical to the single-pass path for
every slab size down to 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.csl import build_csl_group
from repro.core.hybrid import build_hbcsf
from repro.kernels.csf_mttkrp import (
    DEFAULT_SLAB_ELEMS,
    csf_mttkrp,
    slab_nnz_for,
)
from repro.tensor.csf import build_csf
from repro.tensor.random_gen import random_coo
from repro.util.errors import TensorFormatError
from repro.util.prng import default_rng

RANK = 5


@pytest.fixture(scope="module", params=[(30, 20, 25), (9, 8, 7, 6)],
                ids=["order3", "order4"])
def tensor(request):
    shape = request.param
    return random_coo(shape, 2_000 if len(shape) == 3 else 1_200,
                      default_rng(31))


def factors_for(shape):
    rng = default_rng(7)
    return [rng.standard_normal((s, RANK)) for s in shape]


class TestCsfSlabs:
    @pytest.mark.parametrize("slab", [1, 7, 64, 999, 10**9])
    def test_bit_identical_across_slab_sizes(self, tensor, slab):
        csf = build_csf(tensor, 0)
        factors = factors_for(tensor.shape)
        want = csf_mttkrp(csf, factors, slab_nnz=10**9)
        got = csf_mttkrp(csf, factors, slab_nnz=slab)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_every_root_mode(self, tensor):
        factors = factors_for(tensor.shape)
        for mode in range(tensor.order):
            csf = build_csf(tensor, mode)
            want = csf_mttkrp(csf, factors, slab_nnz=10**9)
            got = csf_mttkrp(csf, factors, slab_nnz=13)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    def test_oversized_slice_evaluated_whole(self):
        # one slice owns every nonzero: the slab floor is one root entry,
        # so slab_nnz=1 still evaluates it in a single pass
        rng = default_rng(3)
        t = random_coo((1, 40, 50), 500, default_rng(11))
        csf = build_csf(t, 0)
        factors = [rng.standard_normal((s, RANK)) for s in t.shape]
        got = csf_mttkrp(csf, factors, slab_nnz=1)
        want = csf_mttkrp(csf, factors, slab_nnz=10**9)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_slab_auto_sizing_and_validation(self):
        assert slab_nnz_for(4) == DEFAULT_SLAB_ELEMS // 4
        assert slab_nnz_for(4, 128) == 128
        assert slab_nnz_for(10**9) >= 1
        with pytest.raises(TensorFormatError):
            slab_nnz_for(4, 0)


class TestCslSlabs:
    @staticmethod
    def _csl_tensor():
        # unique (mode-0, mode-1) pairs -> every fiber is a singleton,
        # so the whole tensor is CSL-representable
        from repro.tensor.coo import CooTensor

        rng = default_rng(23)
        flat = rng.choice(60 * 45, size=900, replace=False)
        indices = np.stack([flat // 45, flat % 45,
                            rng.integers(0, 35, size=900)], axis=1)
        return CooTensor(indices.astype(np.int64),
                         rng.standard_normal(900), (60, 45, 35))

    @pytest.mark.parametrize("slab", [1, 5, 37, 10**9])
    def test_bit_identical_across_slab_sizes(self, slab):
        t = self._csl_tensor()
        group = build_csl_group(build_csf(t, 0))
        factors = factors_for(t.shape)
        want = np.zeros((t.shape[0], RANK))
        group.mttkrp(factors, want)
        got = np.zeros((t.shape[0], RANK))
        from repro.kernels.csl_mttkrp import csl_mttkrp

        csl_mttkrp(group.slice_ptr, group.slice_inds, group.rest_indices,
                   group.values, factors, group.mode_order, got,
                   slab_nnz=slab)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))


class TestHbcsfEndToEnd:
    def test_auto_slab_matches_explicit_single_pass(self):
        import importlib

        kern = importlib.import_module("repro.kernels.csf_mttkrp")

        t = random_coo((50, 40, 30), 3_000, default_rng(17))
        hb = build_hbcsf(t, 0)
        factors = factors_for(t.shape)
        want = hb.mttkrp(factors)
        # force multi-slab evaluation through the public path
        orig = kern.DEFAULT_SLAB_ELEMS
        kern.DEFAULT_SLAB_ELEMS = RANK * 100
        try:
            got = hb.mttkrp(factors)
        finally:
            kern.DEFAULT_SLAB_ELEMS = orig
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))
