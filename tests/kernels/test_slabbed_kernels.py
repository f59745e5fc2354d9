"""Pass-bounded kernel evaluation: bit-identity at any pass shape.

Every kernel runs in passes of rank rows ``[r0, r1)`` times a nonzero
range that splits only where its reduction allows (CSF root entries, CSL
slices, COO ``sort`` runs; COO ``add_at`` anywhere).  Each rank row's arithmetic is independent of the others, so
the result must be bit-identical to the single-pass evaluation for every
budget, from one rank row over one unit to the full rank over every
nonzero, on the serial and the threaded backends.  The scratch a pass
materialises must stay within the element budget.
"""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from repro import mttkrp
from repro.core.csl import build_csl_group
from repro.core.hybrid import build_hbcsf
from repro.formats import build_plan, get_format
from repro.kernels.coo_mttkrp import SORT_MIN_NNZ, coo_mttkrp
from repro.kernels.csl_mttkrp import csl_mttkrp
from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.coo import CooTensor
from repro.tensor.csf import build_csf
from repro.tensor.random_gen import random_coo
from repro.util.errors import DimensionError, TensorFormatError
from repro.util.prng import default_rng

# the package re-exports the kernel function under the module's name
kern = importlib.import_module("repro.kernels.csf_mttkrp")

RANKS = (1, 5, 32)
#: ``(DEFAULT_SLAB_ELEMS, PASS_ROWS)`` per rank: one rank row per pass over
#: one unit (root entry, slice, run or nonzero); several nonzero ranges
#: whose rank rows split unevenly (3 + 2, 6 x 5 + 2; rank 1 has one row, so
#: only its ranges split); and the full rank over every nonzero at once.
BUDGETS = {
    1: {"row": (1, 4), "ragged": (7, 4), "full": (10**9, 4)},
    5: {"row": (1, 4), "ragged": (150, 3), "full": (10**9, 4)},
    32: {"row": (1, 4), "ragged": (160, 5), "full": (10**9, 4)},
}
CASES = [(r, b) for r in RANKS for b in BUDGETS[r]]
CASE_IDS = [f"R{r}-{b}" for r, b in CASES]


def factors_for(shape, rank):
    rng = default_rng(7)
    return [np.asfortranarray(rng.standard_normal((s, rank))) for s in shape]


def assert_same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def single_pass(fn):
    """``fn()`` evaluated with a budget (and a row-major pass length) that
    makes one pass of everything."""
    orig = kern.DEFAULT_SLAB_ELEMS, kern.ROW_PASS_NNZ
    kern.DEFAULT_SLAB_ELEMS = kern.ROW_PASS_NNZ = 10**12
    try:
        return fn()
    finally:
        kern.DEFAULT_SLAB_ELEMS, kern.ROW_PASS_NNZ = orig


@pytest.fixture
def budget(request, monkeypatch):
    rank, name = request.param
    elems, rows = BUDGETS[rank][name]
    monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", elems)
    monkeypatch.setattr(kern, "PASS_ROWS", rows)
    return rank


def passes_of(bounds, rank, slab_nnz=None):
    return list(kern.kernel_passes(bounds, rank, slab_nnz))


class TestPassShapes:
    @pytest.mark.parametrize("rank", RANKS)
    @pytest.mark.parametrize("elems", [1, 7, 11, 111, 10**9])
    def test_passes_tile_units_and_rank_rows(self, monkeypatch, rank, elems):
        monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", elems)
        bounds = np.array([0, 3, 4, 9, 10, 30, 31, 40])
        ranges = {}
        for start, stop, r0, r1 in passes_of(bounds, rank):
            ranges.setdefault((start, stop), []).append((r0, r1))
        # the ranges tile the units in order, each at least one unit
        spans = sorted(ranges)
        assert spans[0][0] == 0 and spans[-1][1] == bounds.shape[0] - 1
        assert all(a[1] == b[0] and a[0] < a[1]
                   for a, b in zip(spans, spans[1:]))
        for (start, stop), blocks in ranges.items():
            # the row blocks of a range tile [0, rank), first one at 0
            assert blocks[0][0] == 0 and blocks[-1][1] == rank
            assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
            rows = blocks[0][1] - blocks[0][0]
            nnz = int(bounds[stop] - bounds[start])
            # within budget unless one row of one unit is already over it
            assert rows * nnz <= elems or (rows == 1 and stop == start + 1)

    def test_single_row_ragged_and_full_rank(self, monkeypatch):
        bounds = np.arange(0, 101, 10)
        monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", 1)
        assert {r1 - r0 for *_, r0, r1 in passes_of(bounds, 32)} == {1}
        # 30 elements over 10-nonzero ranges: 3 rows, so 5 rows split 3 + 2
        monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", 30)
        blocks = [(r0, r1) for s, _, r0, r1 in passes_of(bounds, 5, 10)
                  if s == 0]
        assert blocks == [(0, 3), (3, 5)]
        monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", 10**9)
        assert passes_of(bounds, 32) == [(0, 10, 0, 32)]

    def test_every_nonzero_bound_and_oversized_unit(self, monkeypatch):
        monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", 8)
        # a bound at every nonzero: 2 nonzeros x 4 rows
        assert passes_of(np.arange(11), 4)[:2] == [(0, 2, 0, 4), (2, 4, 0, 4)]
        # one unit over budget is one range, evaluated a row at a time
        got = passes_of(np.array([0, 50]), 3)
        assert got == [(0, 1, 0, 1), (0, 1, 1, 2), (0, 1, 2, 3)]

    def test_every_pass_is_counted(self, monkeypatch):
        monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", 11)
        bounds = np.array([0, 3, 4, 9, 10, 30])
        before = counters_snapshot()
        n = len(passes_of(bounds, 5))
        assert counters_delta(before)["kernel.passes"] == n > 1


@pytest.fixture(scope="module", params=[(30, 20, 25), (9, 8, 7, 6)],
                ids=["order3", "order4"])
def tensor(request):
    shape = request.param
    return random_coo(shape, 2_000 if len(shape) == 3 else 1_200,
                      default_rng(31))


def csl_tensor():
    """Unique (mode-0, mode-1) pairs: every fiber is a singleton, so the
    whole tensor is CSL-representable."""
    rng = default_rng(23)
    flat = rng.choice(60 * 45, size=900, replace=False)
    indices = np.stack([flat // 45, flat % 45,
                        rng.integers(0, 35, size=900)], axis=1)
    return CooTensor(indices.astype(np.int64),
                     rng.standard_normal(900), (60, 45, 35))


class TestCsfSlabs:
    @pytest.mark.parametrize("budget", CASES, ids=CASE_IDS, indirect=True)
    def test_bit_identical_across_budgets(self, tensor, budget):
        factors = factors_for(tensor.shape, budget)
        for mode in range(tensor.order):
            csf = build_csf(tensor, mode)
            want = single_pass(lambda: kern.csf_mttkrp(csf, factors))
            assert_same_bits(kern.csf_mttkrp(csf, factors), want)

    @pytest.mark.parametrize("slab", [1, 7, 64, 999, 10**9])
    def test_bit_identical_across_slab_sizes(self, tensor, slab):
        csf = build_csf(tensor, 0)
        factors = factors_for(tensor.shape, 5)
        want = kern.csf_mttkrp(csf, factors, slab_nnz=10**9)
        got = kern.csf_mttkrp(csf, factors, slab_nnz=slab)
        assert_same_bits(got, want)

    def test_every_root_mode(self, tensor):
        factors = factors_for(tensor.shape, 5)
        for mode in range(tensor.order):
            csf = build_csf(tensor, mode)
            want = kern.csf_mttkrp(csf, factors, slab_nnz=10**9)
            got = kern.csf_mttkrp(csf, factors, slab_nnz=13)
            assert_same_bits(got, want)

    def test_oversized_slice_evaluated_whole(self):
        # one slice owns every nonzero: the range floor is one root entry,
        # so slab_nnz=1 still evaluates it in one range (a row at a time)
        t = random_coo((1, 40, 50), 500, default_rng(11))
        csf = build_csf(t, 0)
        factors = factors_for(t.shape, 5)
        got = kern.csf_mttkrp(csf, factors, slab_nnz=1)
        want = kern.csf_mttkrp(csf, factors, slab_nnz=10**9)
        assert_same_bits(got, want)

    def test_slab_auto_sizing_and_validation(self):
        assert kern.slab_nnz_for(4) == kern.DEFAULT_SLAB_ELEMS // 4
        assert (kern.slab_nnz_for(32)
                == kern.DEFAULT_SLAB_ELEMS // kern.PASS_ROWS)
        assert kern.slab_nnz_for(2) == kern.DEFAULT_SLAB_ELEMS // 2
        assert kern.slab_nnz_for(4, 128) == 128
        assert kern.slab_nnz_for(10**9) >= 1
        with pytest.raises(TensorFormatError):
            kern.slab_nnz_for(4, 0)

    def test_row_pass_sizing(self, monkeypatch):
        # a row-major pass holds the full rank, so the budget caps it
        assert kern.row_pass_nnz(32) == kern.ROW_PASS_NNZ
        assert kern.row_pass_nnz(32, 7) == 7
        monkeypatch.setattr(kern, "DEFAULT_SLAB_ELEMS", 100)
        assert kern.row_pass_nnz(32) == 3
        assert kern.row_pass_nnz(101) == 1
        with pytest.raises(TensorFormatError):
            kern.row_pass_nnz(4, 0)


def csl_call(t, group, factors, rank, slab=None):
    out = np.zeros((t.shape[0], rank))
    return csl_mttkrp(group.slice_ptr, group.slice_inds, group.rest_indices,
                      group.values, factors, group.mode_order, out,
                      slab_nnz=slab)


class TestCslSlabs:
    @pytest.mark.parametrize("slab", [1, 5, 37, 10**9])
    def test_bit_identical_across_slab_sizes(self, slab):
        t = csl_tensor()
        group = build_csl_group(build_csf(t, 0))
        factors = factors_for(t.shape, 5)
        want = np.zeros((t.shape[0], 5))
        group.mttkrp(factors, want)
        assert_same_bits(csl_call(t, group, factors, 5, slab), want)

    @pytest.mark.parametrize("budget", CASES, ids=CASE_IDS, indirect=True)
    def test_bit_identical_across_budgets(self, budget):
        t = csl_tensor()
        group = build_csl_group(build_csf(t, 0))
        factors = factors_for(t.shape, budget)
        want = single_pass(lambda: csl_call(t, group, factors, budget))
        assert_same_bits(csl_call(t, group, factors, budget), want)

    def test_out_of_range_index_rejected(self):
        t = csl_tensor()
        group = build_csl_group(build_csf(t, 0))
        factors = factors_for(t.shape, 5)
        factors[1] = factors[1][:10]
        with pytest.raises(DimensionError):
            csl_mttkrp(group.slice_ptr, group.slice_inds, group.rest_indices,
                       group.values, factors, group.mode_order,
                       np.zeros((t.shape[0], 5)))


def small_coo():
    return random_coo((20, 15, 12), 400, default_rng(5))


def large_coo():
    t = random_coo((20, 60, 40), 2_500, default_rng(5))
    assert t.nnz >= SORT_MIN_NNZ
    return t


class TestCooSlabs:
    @pytest.mark.parametrize("budget", CASES, ids=CASE_IDS, indirect=True)
    @pytest.mark.parametrize("method", ["add_at", "sort"])
    def test_bit_identical_across_budgets(self, budget, method):
        t = small_coo()
        factors = factors_for(t.shape, budget)
        for mode in range(t.order):
            want = single_pass(
                lambda: coo_mttkrp(t, factors, mode, method=method))
            assert_same_bits(coo_mttkrp(t, factors, mode, method=method), want)

    @pytest.mark.parametrize("budget", CASES, ids=CASE_IDS, indirect=True)
    @pytest.mark.parametrize("make", [small_coo, large_coo],
                             ids=["add_at", "sort"])
    def test_threads_match_serial(self, budget, make):
        """Threaded COO replays serial's ``"auto"`` accumulator on each
        side of ``SORT_MIN_NNZ``."""
        t = make()
        factors = factors_for(t.shape, budget)
        rep = build_plan(t, "coo", 0).rep
        want = single_pass(lambda: coo_mttkrp(rep, factors, 0))
        got = mttkrp(t, factors, 0, format="coo", backend="threads",
                     num_workers=2)
        assert_same_bits(got, want)


class TestHbcsfEndToEnd:
    def test_auto_slab_matches_explicit_single_pass(self):
        t = random_coo((50, 40, 30), 3_000, default_rng(17))
        hb = build_hbcsf(t, 0)
        factors = factors_for(t.shape, 5)
        want = hb.mttkrp(factors)
        # force multi-pass evaluation through the public path
        orig = kern.DEFAULT_SLAB_ELEMS
        kern.DEFAULT_SLAB_ELEMS = 5 * 100
        try:
            got = hb.mttkrp(factors)
        finally:
            kern.DEFAULT_SLAB_ELEMS = orig
        assert_same_bits(got, want)

    @pytest.mark.parametrize("budget", CASES, ids=CASE_IDS, indirect=True)
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_bit_identical_across_budgets(self, budget, backend):
        t = random_coo((50, 40, 30), 1_500, default_rng(17))
        factors = factors_for(t.shape, budget)
        for mode in range(t.order):
            hb = build_hbcsf(t, mode)
            want = single_pass(lambda: hb.mttkrp(factors))
            got = mttkrp(t, factors, mode, format="hb-csf", backend=backend,
                         num_workers=2)
            assert_same_bits(got, want)


SCRATCH_NNZ = 200_000
SCRATCH_RANK = 32


@pytest.fixture(scope="module")
def scratch_tensor():
    return random_coo((4_000, 3_000, 5_000), SCRATCH_NNZ, default_rng(3))


def _scratch_kernels():
    def csl(t, factors):
        group = build_hbcsf(t, 0).csl_group
        return lambda: group.mttkrp(
            factors, np.zeros((t.shape[0], SCRATCH_RANK), order="F"))

    def fmt(name):
        def make(t, factors):
            spec = get_format(name)
            rep = spec.build(t, 0, None, None)
            return lambda: spec.mttkrp(rep, factors, 0)
        return make

    def coo(method):
        return lambda t, factors: lambda: coo_mttkrp(t, factors, 0,
                                                     method=method)

    return {"csf": fmt("csf"), "b-csf": fmt("b-csf"), "csl": csl,
            "hb-csf": fmt("hb-csf"), "coo-sort": coo("sort"),
            "coo-add_at": coo("add_at")}


@pytest.mark.parametrize("kernel", sorted(_scratch_kernels()))
def test_scratch_stays_within_budget(scratch_tensor, kernel):
    """Traced peak of one call at 2x10^5 nnz and rank 32, where a full-rank
    ``(R, nnz)`` array (6.4M elements) is over the 2^22-element budget:
    two budget-sized scratch arrays (gather and accumulator), the output,
    and two copies of the COO index and value arrays (sort permutation,
    per-range index columns)."""
    t = scratch_tensor
    factors = factors_for(t.shape, SCRATCH_RANK)
    call = _scratch_kernels()[kernel](t, factors)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    itemsize = np.dtype(np.float64).itemsize
    limit = (2 * kern.DEFAULT_SLAB_ELEMS * itemsize + out.nbytes
             + 2 * (t.indices.nbytes + t.values.nbytes))
    assert peak <= limit, (
        f"{kernel}: {peak / 2**20:.1f} MB > {limit / 2**20:.1f} MB")
