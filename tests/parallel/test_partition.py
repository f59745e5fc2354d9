"""Partitioner invariants: shards are a row-disjoint, cost-balanced cover."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import build_plan, get_format, plan_cache
from repro.parallel.partition import (OVERSUBSCRIPTION, shard_plan_for,
                                      shard_units)

from tests.parallel.conftest import singleton_fiber_tensor

WORKER_COUNTS = (2, 4)


def _plans(name, tensor, mode, workers):
    spec = get_format(name)
    built = build_plan(tensor, name, mode)
    return spec, built, shard_units(name, spec.units(built.rep, mode), mode,
                                    workers)


def _touched_rows(kind, rep, mode):
    """The output rows a unit or shard writes, read structurally from its
    rep."""
    if kind == "coo":
        return np.unique(rep.indices[:, mode])
    if kind == "csf":
        return np.unique(rep.fids[0])
    if kind == "csl":
        return np.unique(rep.slice_inds)
    raise AssertionError(f"unknown unit kind {kind!r}")


def _shard_nnz(shard):
    if shard.kind == "coo":
        return shard.rep.nnz
    return shard.rep.values.shape[0]


def _linear(indices, shape):
    """Sorted linear positions of a list of nonzero coordinates."""
    return np.sort(np.ravel_multi_index(indices.T, shape))


@pytest.mark.parametrize("name", ["coo", "csf", "b-csf", "hb-csf", "csl"])
@pytest.mark.parametrize("workers", ("serial",) + WORKER_COUNTS)
def test_partition_invariants(name, workers, skewed3d):
    """The serial kernel units and every shard plan of them are a
    row-disjoint cover of the nonzeros."""
    tensor = singleton_fiber_tensor() if name == "csl" else skewed3d
    mode = 0
    spec = get_format(name)
    units = spec.units(build_plan(tensor, name, mode).rep, mode)
    if workers == "serial":
        pieces = [(kind, rep) for kind, rep in units if rep.nnz]
    else:
        plan = shard_units(name, units, mode, workers)
        pieces = [(shard.kind, shard.rep) for shard in plan.shards]

    # the pieces cover every nonzero exactly once
    covered = np.concatenate([rep.indices if kind == "coo"
                              else rep.to_coo().indices
                              for kind, rep in pieces])
    assert np.array_equal(_linear(covered, tensor.shape),
                          _linear(tensor.indices, tensor.shape))

    # output rows are pairwise disjoint across pieces and cover exactly
    # the rows the serial kernel writes — the bit-identity precondition
    seen = np.empty(0, dtype=np.int64)
    for kind, rep in pieces:
        rows = _touched_rows(kind, rep, mode)
        assert not np.intersect1d(seen, rows).size
        seen = np.concatenate((seen, rows))
    assert np.array_equal(np.sort(seen),
                          np.unique(tensor.indices[:, mode]))
    if workers == "serial":
        return

    # identity of the plan cell
    assert plan.format == name
    assert plan.mode == mode
    assert plan.num_workers == workers
    assert plan.total_nnz == tensor.nnz
    assert sum(_shard_nnz(s) for s in plan.shards) == tensor.nnz
    assert np.isclose(sum(s.cost for s in plan.shards), tensor.nnz)

    # the LPT schedule is consistent and balanced
    assert len(plan.assignment) == plan.num_shards
    assert all(0 <= w < workers for w in plan.assignment)
    loads = np.zeros(workers)
    np.add.at(loads, np.asarray(plan.assignment),
              [s.cost for s in plan.shards])
    assert np.allclose(loads, plan.loads)
    cmax = max((s.cost for s in plan.shards), default=0.0)
    assert plan.makespan <= tensor.nnz / workers + cmax + 1e-9

    # oversubscription bounds the shard count (HB-CSF composes up to
    # three group partitions)
    groups = 3 if name == "hb-csf" else 1
    assert plan.num_shards <= groups * workers * OVERSUBSCRIPTION

    # worker buckets preserve shard-index (row) order
    index_of = {id(s): i for i, s in enumerate(plan.shards)}
    for bucket in plan.worker_shards():
        order = [index_of[id(s)] for s in bucket]
        assert order == sorted(order)


def test_coo_method_pinned_from_full_nnz(skewed3d):
    from repro.kernels.coo_mttkrp import SORT_MIN_NNZ

    spec, built, plan = _plans("coo", skewed3d, 0, 4)
    expected = "sort" if skewed3d.nnz >= SORT_MIN_NNZ else "add_at"
    assert all(s.coo_method == expected for s in plan.shards)
    # shards are individually far smaller than the threshold, yet keep
    # the full-tensor method — per-shard re-deciding would not replay the
    # serial computation
    assert any(_shard_nnz(s) < SORT_MIN_NNZ for s in plan.shards)


@pytest.mark.parametrize("name", ["coo", "csf", "b-csf", "hb-csf", "csl"])
def test_cached_plan_footprint_counts_pinned_arrays(name, skewed3d):
    """A cached ShardPlan pins the parent's index/value arrays through its
    shard views, so the plan cache's byte estimate must charge it roughly
    the parent's footprint — not just the rebased pointer copies."""
    from repro.formats.plan_cache import _estimate_rep_bytes

    tensor = singleton_fiber_tensor() if name == "csl" else skewed3d
    spec, built, plan = _plans(name, tensor, 0, 4)
    assert plan.nnz == tensor.nnz
    # the values term alone (8 bytes/nonzero) must be present
    assert _estimate_rep_bytes(plan) >= 8 * tensor.nnz
    # view-pinned index words dominate the pointer copies for every format
    # that stores per-nonzero indices (all of them)
    assert plan.index_storage_words() >= tensor.nnz


def test_shard_plan_for_memoises_per_rep(small3d):
    spec = get_format("csf")
    built = build_plan(small3d, "csf", 0)
    first = shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    again = shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    assert again is first
    # distinct worker counts are distinct plans
    other = shard_plan_for(spec, built.rep, 0, 4, plan_key=built.key)
    assert other is not first
    assert other.num_workers == 4


def test_shard_plan_stored_in_plan_cache(small3d):
    spec = get_format("b-csf")
    built = build_plan(small3d, "b-csf", 0)
    plan = shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    entry = plan_cache().get(built.key + ("shards", 2))
    assert entry is not None
    assert entry.rep is plan


def test_shard_plan_without_key_is_memo_only(small3d):
    spec = get_format("coo")
    built = build_plan(small3d, "coo", 1)
    before = len(plan_cache())
    plan = shard_plan_for(spec, built.rep, 1, 2)
    assert len(plan_cache()) == before
    assert shard_plan_for(spec, built.rep, 1, 2) is plan


def test_discard_format_evicts_shard_plans(small3d):
    from repro.formats.plan_cache import plan_cache as cache_fn

    spec = get_format("csf")
    built = build_plan(small3d, "csf", 0)
    shard_plan_for(spec, built.rep, 0, 2, plan_key=built.key)
    cache = cache_fn()
    assert cache.get(built.key + ("shards", 2)) is not None
    cache.discard(format="csf")
    assert cache.get(built.key + ("shards", 2)) is None
