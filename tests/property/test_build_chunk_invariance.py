"""Property: the CSF-family builders are chunk-invariant and classify
slices exactly as Algorithm 5 defines.

An in-memory tensor is one sorted chunk; the same tensor written as a
shard manifest streams as many.  Both must give bit-identical CSF and
HB-CSF representations, and the HB-CSF partition must equal a brute-force
reading of Algorithm 5 (lines 10-16) computed here from scratch: a slice
with one nonzero is COO, a slice whose fibers all hold one nonzero is CSL,
every other slice is B-CSF.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.hybrid import build_hbcsf
from repro.tensor.coo import CooTensor, csf_mode_ordering
from repro.tensor.csf import build_csf
from repro.tensor.shards import save_sharded


@st.composite
def chunked_cases(draw):
    """``(tensor, root mode, shard_nnz)``: order 2-5, size-1 modes, empty
    tensors, unsummed duplicate coordinates and, half the time, a
    dominant heavy slice holding most nonzeros of the root mode."""
    order = draw(st.integers(2, 5))
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=order,
                                max_size=order)))
    mode = draw(st.integers(0, order - 1))
    nnz = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    if nnz and draw(st.booleans()):
        heavy = rng.random(nnz) < 0.7
        idx[heavy, mode] = rng.integers(0, shape[mode])
    vals = rng.uniform(-1, 1, size=nnz)
    tensor = CooTensor(idx.reshape(nnz, order), vals, shape)
    return tensor, mode, draw(st.integers(1, 6))


def brute_force_partition(tensor: CooTensor, mode: int):
    """Algorithm 5's slice classes from per-slice nonzero counts
    (``bincount``) and maximum fiber lengths (unique fiber keys)."""
    dedup = tensor.deduplicated()
    per_slice = np.bincount(dedup.indices[:, mode],
                            minlength=tensor.shape[mode])
    max_fiber = np.zeros(tensor.shape[mode], dtype=np.int64)
    if dedup.nnz:
        upper = list(csf_mode_ordering(tensor.order, mode)[:-1])
        keys, lengths = np.unique(dedup.indices[:, upper], axis=0,
                                  return_counts=True)
        np.maximum.at(max_fiber, keys[:, 0], lengths)
    present = np.flatnonzero(per_slice)
    coo = per_slice[present] == 1
    csl = ~coo & (max_fiber[present] == 1)
    return coo, csl, ~coo & ~csl


def assert_same_arrays(a, b) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


def assert_same_csf(a, b) -> None:
    assert a.mode_order == b.mode_order
    for x, y in zip(a.fptr + a.fids + [a.values],
                    b.fptr + b.fids + [b.values]):
        assert_same_arrays(x, y)


@settings(max_examples=20, deadline=None)
@given(chunked_cases())
def test_sharded_builds_are_bit_identical_and_partition_is_algorithm5(case):
    tensor, mode, shard_nnz = case
    with tempfile.TemporaryDirectory() as root:
        sharded = save_sharded(tensor, root, shard_nnz=shard_nnz)
        assert_same_csf(build_csf(sharded, mode), build_csf(tensor, mode))
        got, want = build_hbcsf(sharded, mode), build_hbcsf(tensor, mode)

    for name in ("coo_mask", "csl_mask", "csf_mask"):
        assert_same_arrays(getattr(got.partition, name),
                           getattr(want.partition, name))
    assert_same_arrays(got.coo_group.indices, want.coo_group.indices)
    assert_same_arrays(got.coo_group.values, want.coo_group.values)
    for name in ("slice_ptr", "slice_inds", "rest_indices", "values"):
        assert_same_arrays(getattr(got.csl_group, name),
                           getattr(want.csl_group, name))
    assert (got.bcsf_group is None) == (want.bcsf_group is None)
    if want.bcsf_group is not None:
        assert_same_csf(got.bcsf_group.csf, want.bcsf_group.csf)

    coo, csl, csf = brute_force_partition(tensor, mode)
    np.testing.assert_array_equal(want.partition.coo_mask, coo)
    np.testing.assert_array_equal(want.partition.csl_mask, csl)
    np.testing.assert_array_equal(want.partition.csf_mask, csf)
