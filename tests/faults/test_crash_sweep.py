"""Kill-at-every-fault-point sweeps: crash, reopen, resume bit-identically.

Each sweep injects ``raise`` at hit 1, 2, 3, ... of a fault point until a
run survives (the hit index passed the last firing), proving every single
commit boundary of the operation was crashed at least once.  After every
kill the operation is simply retried; the rebuilt output must be
bit-identical to the fault-free reference and the tree must hold no torn
files or orphaned temporaries.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core.hybrid import build_hbcsf
from repro.faults import inject, scan_for_debris
from repro.tensor.random_gen import random_coo
from repro.tensor.shards import open_sharded, save_sharded, sort_sharded
from repro.util.errors import FaultInjected
from repro.util.prng import default_rng

MAX_HITS = 64  # sweep bound; every sweep must terminate well before this


@pytest.fixture(scope="module")
def sharded(tmp_path_factory):
    tensor = random_coo((25, 18, 12), 2_000, default_rng(6))
    root = tmp_path_factory.mktemp("sweep") / "t"
    return save_sharded(tensor, root, shard_nnz=400)


def collect(view):
    chunks = list(view.iter_chunks())
    idx = np.concatenate([np.asarray(c.indices) for c in chunks], axis=0)
    vals = np.concatenate([np.asarray(c.values) for c in chunks])
    return idx, vals


def assert_views_bit_identical(got, want):
    gi, gv = collect(got)
    wi, wv = collect(want)
    np.testing.assert_array_equal(gi, wi)
    np.testing.assert_array_equal(gv.view(np.uint64), wv.view(np.uint64))


def assert_hbcsf_bit_identical(got, want):
    for mask in ("coo_mask", "csl_mask", "csf_mask"):
        np.testing.assert_array_equal(getattr(got.partition, mask),
                                      getattr(want.partition, mask))
    np.testing.assert_array_equal(got.coo_group.indices,
                                  want.coo_group.indices)
    np.testing.assert_array_equal(got.coo_group.values.view(np.uint64),
                                  want.coo_group.values.view(np.uint64))
    np.testing.assert_array_equal(got.csl_group.slice_inds,
                                  want.csl_group.slice_inds)
    np.testing.assert_array_equal(got.csl_group.slice_ptr,
                                  want.csl_group.slice_ptr)
    np.testing.assert_array_equal(got.csl_group.values.view(np.uint64),
                                  want.csl_group.values.view(np.uint64))
    assert (got.bcsf_group is None) == (want.bcsf_group is None)
    if want.bcsf_group is not None:
        for pa, pb in zip(got.bcsf_group.csf.fptr, want.bcsf_group.csf.fptr):
            np.testing.assert_array_equal(pa, pb)
        for fa, fb in zip(got.bcsf_group.csf.fids, want.bcsf_group.csf.fids):
            np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(
            got.bcsf_group.csf.values.view(np.uint64),
            want.bcsf_group.csf.values.view(np.uint64))


def sweep(point, crash_once, min_kills):
    """Crash at every successive firing of ``point``; count the kills."""
    kills = 0
    for hit in range(1, MAX_HITS + 1):
        with inject(f"{point}:raise@hit={hit}"):
            survived = crash_once()
        if survived:
            break
        kills += 1
    else:  # pragma: no cover - sweep must terminate
        pytest.fail(f"{point} still firing after {MAX_HITS} hits")
    assert kills >= min_kills, \
        f"expected >= {min_kills} distinct kill sites at {point}, got {kills}"
    return kills


@pytest.mark.parametrize("point,min_kills", [
    ("shards.write", 5),       # every shard commit plus the manifest
    ("shards.sort.merge", 1),  # every cascade merge
])
def test_sort_sharded_killed_at_every_commit(sharded, tmp_path, point,
                                             min_kills):
    mode_order = (1, 0, 2)
    reference = sort_sharded(sharded, mode_order, tmp_path / "ref",
                             block_nnz=512)
    out = tmp_path / "out"

    def crash_once():
        try:
            sort_sharded(sharded, mode_order, out, block_nnz=512)
        except FaultInjected:
            # the crash itself must strand nothing outside the out tree,
            # and no temp files / merge runs even inside it
            assert scan_for_debris(tmp_path) == []
            # reopen-and-resume: plain retry rebuilds the derived view
            recovered = sort_sharded(sharded, mode_order, out,
                                     block_nnz=512)
            assert_views_bit_identical(recovered, reference)
            assert_views_bit_identical(open_sharded(out), reference)
            assert scan_for_debris(tmp_path) == []
            return False
        return True

    sweep(point, crash_once, min_kills)


@pytest.mark.parametrize("point,min_kills", [
    ("shards.write", 5),
    ("shards.sort.merge", 1),
])
def test_streaming_hbcsf_killed_during_view_build(sharded, point, min_kills):
    reference = build_hbcsf(sharded, mode=1)

    def crash_once():
        # drop the materialised sorted view so each attempt rebuilds it
        # (and therefore walks every fault point again)
        for child in sharded.root.iterdir():
            if child.is_dir() and child.name.startswith("sorted-"):
                shutil.rmtree(child)
        try:
            build_hbcsf(sharded, mode=1)
        except FaultInjected:
            assert scan_for_debris(sharded.root) == []
            # reopen-and-resume without clearing anything: sorted_view
            # must treat the crashed build as derivable damage
            recovered = build_hbcsf(sharded, mode=1)
            assert_hbcsf_bit_identical(recovered, reference)
            assert scan_for_debris(sharded.root) == []
            return False
        return True

    sweep(point, crash_once, min_kills)
