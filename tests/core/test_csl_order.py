"""CSL slice order: every builder stores a group's slices in length order
(short slices binned by nonzero count, then the long ones, each in root
order), and that order changes the kernel's speed, never its bits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.csl import CslGroup, build_csl_group
from repro.core.hybrid import build_hbcsf, partition_slices
from repro.formats import get_format
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.kernels.csf_mttkrp import CHAIN_MAX_LEN, SEGSUM_MAX_RUNS
from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.coo import CooTensor
from repro.tensor.csf import build_csf
from repro.tensor.random_gen import random_coo
from repro.util.prng import default_rng
from tests.conftest import make_factors

#: slice lengths crossing the chained-sum (8/9) and pairwise-block
#: (128/129) boundaries, with ties
LENGTHS = (1, 2, 2, 3, 3, 3, 4, 4, 5, 6, 7, 8, 8, 9, 9, 10, 20, 127, 128,
           129, 130)


def varied_slices(lengths=LENGTHS, seed: int = 41) -> CooTensor:
    """Order 3, CSL-eligible at root mode 0: the slices hold ``lengths``
    nonzeros in shuffled root order, over unique (root, mode-1) pairs."""
    rng = default_rng(seed)
    rows = []
    for root, length in enumerate(rng.permutation(lengths)):
        cols = rng.choice(200, int(length), replace=False)
        rows.append(np.stack([np.full(length, root), cols,
                              rng.integers(0, 50, length)], axis=1))
    idx = np.concatenate(rows)
    return CooTensor(idx, rng.standard_normal(idx.shape[0]),
                     (len(lengths), 200, 50))


TENSORS = {
    "varied": varied_slices,
    "random3": lambda: random_coo((60, 40, 50), 900, default_rng(3)),
    "random4": lambda: random_coo((40, 30, 30, 30), 300, default_rng(4)),
}


def assert_length_order(group: CslGroup) -> None:
    """Slices sorted by (min(count, CHAIN_MAX_LEN + 1), root)."""
    bins = np.minimum(np.diff(group.slice_ptr), CHAIN_MAX_LEN + 1)
    assert np.all(np.diff(bins) >= 0)
    order = np.lexsort((group.slice_inds, bins))
    np.testing.assert_array_equal(order, np.arange(group.num_slices))


def root_ordered(group: CslGroup) -> CslGroup:
    """The same slices, moved back to ascending root order."""
    perm = np.argsort(group.slice_inds)
    counts = np.diff(group.slice_ptr)[perm]
    rows = np.concatenate([np.arange(group.slice_ptr[s],
                                     group.slice_ptr[s + 1]) for s in perm])
    moved = CslGroup(
        shape=group.shape, mode_order=group.mode_order,
        slice_ptr=np.concatenate([[0], np.cumsum(counts)]).astype(
            group.slice_ptr.dtype),
        slice_inds=group.slice_inds[perm],
        rest_indices=group.rest_indices[rows],
        values=group.values[rows])
    moved.validate()
    return moved


@pytest.mark.parametrize("name", sorted(TENSORS))
def test_every_built_group_is_in_length_order(name):
    tensor = TENSORS[name]()
    groups = [build_hbcsf(tensor, mode).csl_group
              for mode in range(tensor.order)]
    csf = build_csf(tensor, 0)
    groups.append(build_csl_group(csf, partition_slices(csf).csl_mask))
    assert sum(group.num_slices > 1 for group in groups) >= 2
    for group in groups:
        assert_length_order(group)


@pytest.mark.parametrize("name", sorted(TENSORS))
def test_csl_builder_matches_hbcsf_group(name):
    """``build_csl_group`` over the HB-CSF CSL slices stores the group
    ``build_hbcsf`` routes: same slices, same order, same bits."""
    tensor = TENSORS[name]()
    for mode in range(tensor.order):
        csf = build_csf(tensor, mode)
        got = build_csl_group(csf, partition_slices(csf).csl_mask)
        want = build_hbcsf(tensor, mode).csl_group
        for field in ("slice_ptr", "slice_inds", "rest_indices"):
            np.testing.assert_array_equal(getattr(got, field),
                                          getattr(want, field))
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_root_order_gives_identical_bits(backend, dtype):
    tensor = varied_slices()
    group = build_csl_group(build_csf(tensor, 0))
    factors = make_factors(tensor.shape, 7, seed=5)
    spec = get_format("csl")
    binned = spec.mttkrp(group, factors, 0, dtype=dtype, backend=backend,
                         num_workers=2)
    rooted = spec.mttkrp(root_ordered(group), factors, 0, dtype=dtype,
                         backend=backend, num_workers=2)
    assert binned.tobytes() == rooted.tobytes()


class TestSegsumCounters:
    def sums_of(self, group: CslGroup) -> dict[str, int]:
        before = counters_snapshot()
        group.mttkrp(make_factors(group.shape, 4, seed=1),
                     np.zeros((group.shape[0], 4)))
        delta = counters_delta(before)
        return {way: delta.get(f"kernel.segsum.{way}", 0)
                for way in ("chained", "reduceat")}

    def test_length_ordered_group(self):
        # one pass: runs of 2, 3 and long (9, 9, 20 in root order) segments
        group = build_csl_group(build_csf(
            varied_slices((2, 3, 9, 2, 3, 20, 3, 9)), 0))
        np.testing.assert_array_equal(np.diff(group.slice_ptr)[:5],
                                      [2, 2, 3, 3, 3])
        np.testing.assert_array_equal(np.sort(np.diff(group.slice_ptr)[5:]),
                                      [9, 9, 20])
        assert self.sums_of(group) == {"chained": 5, "reduceat": 3}

    def test_many_length_changes_fall_back(self):
        lengths = (2, 3) * (SEGSUM_MAX_RUNS + 1)
        group = root_ordered(build_csl_group(build_csf(
            varied_slices(lengths), 0)))
        assert self.sums_of(group) == {"chained": 0,
                                       "reduceat": len(lengths)}

    def test_coo_runs_of_one_are_chained(self):
        # unique target rows: every sort run is one nonzero long
        tensor = random_coo((3000, 40, 50), 2500, default_rng(8))
        rows = np.unique(tensor.indices[:, 0], return_index=True)[1]
        tensor = CooTensor(tensor.indices[rows], tensor.values[rows],
                           tensor.shape)
        before = counters_snapshot()
        coo_mttkrp(tensor, make_factors(tensor.shape, 4), 0, method="sort")
        delta = counters_delta(before)
        assert delta["kernel.segsum.chained"] == tensor.nnz
        assert "kernel.segsum.reduceat" not in delta


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("name", ["varied", "dense"])
def test_hbcsf_output_is_row_major(name, backend):
    """A made ``out`` is row-major on either backend, whichever group holds
    the nonzeros, and an F-ordered ``out`` gets the same bits."""
    tensor = (varied_slices() if name == "varied"
              else random_coo((6, 7, 8), 300, default_rng(9)))
    spec = get_format("hb-csf")
    rep = build_hbcsf(tensor, 0)
    factors = make_factors(tensor.shape, 5, seed=2)
    made = spec.mttkrp(rep, factors, 0, backend=backend, num_workers=2)
    assert made.flags.c_contiguous
    other = spec.mttkrp(rep, factors, 0, out=np.zeros(made.shape, order="F"),
                        backend=backend, num_workers=2)
    assert made.tobytes() == other.tobytes()
