"""CSF-MTTKRP (Algorithm 3) correctness tests."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.bcsf import build_bcsf
from repro.formats import get_format
from repro.kernels.csf_mttkrp import (CHAIN_MAX_LEN, TREESUM_MIN_SINGLETONS,
                                      LevelSum, csf_mttkrp)
from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.coo import CooTensor
from repro.tensor.csf import build_csf
from repro.tensor.dense import einsum_mttkrp
from repro.util.errors import DimensionError, TensorFormatError
from tests.conftest import make_factors


def segment_sum(data, ptr, validate=True):
    """One :class:`LevelSum` over the last axis of ``data``."""
    return LevelSum(ptr, validate=validate)(data)


class TestSegmentSum:
    """A :class:`LevelSum` reduces the last axis of an ``(R, n)`` scratch."""

    def test_basic(self):
        data = np.arange(12.0).reshape(2, 6)
        ptr = np.array([0, 2, 3, 6])
        out = segment_sum(data, ptr)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out[:, 0], data[:, 0] + data[:, 1])
        np.testing.assert_allclose(out[:, 1], data[:, 2])
        np.testing.assert_allclose(out[:, 2],
                                   data[:, 3] + data[:, 4] + data[:, 5])

    def test_empty_segment_rejected(self):
        with pytest.raises(TensorFormatError):
            segment_sum(np.ones((2, 3)), np.array([0, 0, 3]))

    def test_coverage_mismatch_rejected(self):
        with pytest.raises(TensorFormatError):
            segment_sum(np.ones((2, 4)), np.array([0, 2, 3]))

    def test_no_segments(self):
        out = segment_sum(np.zeros((2, 0)), np.array([0]))
        assert out.shape == (2, 0)

    def test_validate_false_same_result(self):
        data = np.arange(12.0).reshape(2, 6)
        ptr = np.array([0, 2, 3, 6])
        np.testing.assert_array_equal(segment_sum(data, ptr),
                                      segment_sum(data, ptr, validate=False))

    def test_validate_false_skips_no_segment_scan(self):
        # the fast path still handles the empty-pointer edge correctly
        out = segment_sum(np.zeros((3, 0)), np.array([0]), validate=False)
        assert out.shape == (3, 0)


def _pairwise(x: list[float]) -> float:
    """NumPy's pairwise float sum (``pairwise_sum`` in its loops source):
    sequential below 8 terms, 8 interleaved partial sums up to a block of
    128, and a recursive split (at a multiple of 8) above it."""
    n = len(x)
    if n < 8:  # numpy starts from -0.0, which leaves x[0] exact
        res = x[0]
        for v in x[1:]:
            res += v
        return res
    if n <= 128:
        r = list(x[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += x[i + j]
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in x[i:]:
            res += v
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(x[:n2]) + _pairwise(x[n2:])


class TestReduceatSummationOrder:
    """Pins the numpy behaviour the kernel layouts rely on.

    ``np.add.reduceat`` seeds each segment with its first element and adds
    the pairwise sum of the rest, whichever axis it reduces: along a
    contiguous last axis and along a strided first axis the association is
    the same.  The CSF tree kernel reduces its rank-major ``(R, n)``
    scratch along axis 1, the CSL and COO kernels their row-major ``(n,
    R)`` scratch along axis 0, and the golden digests were recorded with
    every kernel rank-major.  :func:`segment_sums` sums segments of up to
    :data:`CHAIN_MAX_LEN` nonzeros with chained adds, which is the model's
    association only while the pairwise part is a plain left-to-right
    sum: every length 1-10 is listed, so the chained regime (1-8) and the
    first pairwise length (9) fail here by name.  If a numpy upgrade
    changes any of this, this class names the cause before the
    golden-digest test fails.
    """

    LENGTHS = (*range(1, 11), 130, 1000)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_first_plus_pairwise_model(self, dtype):
        rng = np.random.default_rng(5)
        ptr = np.concatenate(([0], np.cumsum(self.LENGTHS)))
        data = rng.standard_normal((3, int(ptr[-1]))).astype(dtype)
        rank_major = np.add.reduceat(data, ptr[:-1], axis=1)
        row_major = np.add.reduceat(np.ascontiguousarray(data.T), ptr[:-1],
                                    axis=0)
        np.testing.assert_array_equal(rank_major.view(np.uint8),
                                      row_major.T.copy().view(np.uint8))
        for r in range(data.shape[0]):
            for s, (a, b) in enumerate(zip(ptr[:-1], ptr[1:])):
                seg = [dtype(v) for v in data[r, a:b]]
                want = seg[0] + _pairwise(seg[1:]) if len(seg) > 1 else seg[0]
                assert rank_major[r, s].tobytes() == dtype(want).tobytes(), \
                    (r, b - a)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chained_regime_ends_at_chain_max_len(self, dtype):
        """``x0 + (((x1 + x2) + x3) ...)`` is ``reduceat``'s sum up to
        :data:`CHAIN_MAX_LEN` nonzeros and not one longer."""
        rng = np.random.default_rng(11)
        for length in range(1, CHAIN_MAX_LEN + 2):
            rows = self.spread_rows(200 * length, dtype, rng)
            block = rows.reshape(200, length, -1)
            chain = block[:, 1].copy() if length > 1 else None
            for j in range(2, length):
                chain += block[:, j]
            want = block[:, 0] + chain if length > 1 else block[:, 0]
            got = np.add.reduceat(rows, np.arange(0, 200 * length, length),
                                  axis=0)
            same = got.tobytes() == want.tobytes()
            assert same == (length <= CHAIN_MAX_LEN), length

    @staticmethod
    def assert_axes_agree(rows: np.ndarray, starts: np.ndarray) -> None:
        along_rows = np.add.reduceat(rows, starts, axis=0)
        along_rank = np.add.reduceat(np.ascontiguousarray(rows.T), starts,
                                     axis=1)
        np.testing.assert_array_equal(along_rows.T.copy().view(np.uint8),
                                      along_rank.view(np.uint8))

    @staticmethod
    def spread_rows(n: int, dtype, rng) -> np.ndarray:
        """``(n, 7)`` values over six decades, so any other association of
        a sum changes its rounding."""
        scale = 10.0 ** rng.uniform(-3, 3, (n, 7))
        return (rng.standard_normal((n, 7)) * scale).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_axes_agree_for_every_length_to_300(self, dtype):
        rng = np.random.default_rng(3)
        for n in range(1, 301):
            self.assert_axes_agree(self.spread_rows(n, dtype, rng),
                                   np.array([0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_axes_agree_on_ragged_segments(self, dtype):
        rng = np.random.default_rng(5)
        lengths = np.concatenate([np.arange(1, 301),
                                  rng.integers(1, 301, 200)])
        rng.shuffle(lengths)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        self.assert_axes_agree(
            self.spread_rows(int(lengths.sum()), dtype, rng), starts)


def singleton_fibers(seed: int = 17) -> CooTensor:
    """Order 3: six slices of mostly one-nonzero fibers (96-97%, above
    :data:`TREESUM_MIN_SINGLETONS`), with fibers of 2-8 nonzeros, of 9-40
    and one of 300 (fbr-split into 128-segments)."""
    rng = np.random.default_rng(seed)
    rows = []
    for root in range(6):
        lengths = [1] * 240 + [2, 3, 5, 8, 8, 9, 13, 40]
        if root == 2:
            lengths.append(300)
        for fiber, length in enumerate(rng.permutation(lengths)):
            leaves = rng.choice(3000, int(length), replace=False)
            rows.append(np.stack([np.full(length, root),
                                  np.full(length, fiber), leaves], axis=1))
    idx = np.concatenate(rows)
    values = (rng.standard_normal(idx.shape[0])
              * 10.0 ** rng.uniform(-6, 6, idx.shape[0]))
    return CooTensor(idx, values, (6, 250, 3000))


class TestTreeLevelSums:
    """A B-CSF group whose leaf level is almost all singletons is summed by
    the split :class:`LevelSum` path, with the bits of plain ``reduceat``."""

    @pytest.fixture
    def plain_only(self, monkeypatch):
        """Run a call with every tree level on one plain ``reduceat``."""
        module = importlib.import_module("repro.kernels.csf_mttkrp")

        def run(call):
            with monkeypatch.context() as patch:
                patch.setattr(module, "TREESUM_MIN_SINGLETONS", 1.0)
                return call()
        return run

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_split_path_gives_reduceat_bits(self, plain_only, backend,
                                            dtype):
        bcsf = build_bcsf(singleton_fibers(), 0)
        leaves = np.diff(bcsf.csf.fptr[-1])
        assert np.mean(leaves == 1) > TREESUM_MIN_SINGLETONS
        assert leaves.max() == 128
        factors = make_factors(bcsf.shape, 7, seed=3)
        spec = get_format("b-csf")

        def call():
            return spec.mttkrp(bcsf, factors, 0, dtype=dtype,
                               backend=backend, num_workers=2)

        before = counters_snapshot()
        split = call()
        delta = counters_delta(before)
        assert all(delta.get(f"kernel.treesum.{way}", 0) > 0
                   for way in ("copied", "chained", "reduceat"))
        before = counters_snapshot()
        plain = plain_only(call)
        delta = counters_delta(before)
        assert "kernel.treesum.copied" not in delta
        assert "kernel.treesum.chained" not in delta
        assert split.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("slab_nnz", [1, 150, 700])
    def test_every_nonzero_range_plans_its_own_levels(self, plain_only,
                                                      slab_nnz):
        csf = build_bcsf(singleton_fibers(), 0).csf
        factors = make_factors(csf.shape, 5, seed=4)
        split = csf_mttkrp(csf, factors, slab_nnz=slab_nnz)
        plain = plain_only(lambda: csf_mttkrp(csf, factors,
                                              slab_nnz=slab_nnz))
        assert split.tobytes() == plain.tobytes()

    def test_counts_each_way_per_plan(self):
        # 96 singletons (95.05%), chained 2..8, long (9, 20) and a long
        # last segment
        ptr = np.cumsum([0] + [1] * 48 + [2] + [1] * 48 + [8, 9, 20, 12])
        before = counters_snapshot()
        LevelSum(ptr)
        assert counters_delta(before) == {"kernel.treesum.copied": 96,
                                          "kernel.treesum.chained": 2,
                                          "kernel.treesum.reduceat": 3}
        before = counters_snapshot()
        LevelSum(np.cumsum([0, 2, 1, 9]))
        assert counters_delta(before) == {"kernel.treesum.reduceat": 3}

    def test_empty_segment_rejected(self):
        with pytest.raises(TensorFormatError):
            LevelSum(np.array([0, 1, 1, 2]))
        LevelSum(np.array([0, 1, 1, 2]), validate=False)


class TestValidateFastPath:
    def test_csf_mttkrp_validate_false_bit_identical(self, small3d, factors3d):
        csf = build_csf(small3d, 0)
        checked = csf_mttkrp(csf, factors3d)
        trusted = csf_mttkrp(csf, factors3d, validate=False)
        np.testing.assert_array_equal(checked, trusted)

    def test_validate_true_still_checks_factors(self, small3d, factors3d):
        csf = build_csf(small3d, 0)
        bad = list(factors3d)
        bad[1] = bad[1][:-1]
        with pytest.raises(DimensionError):
            csf_mttkrp(csf, bad)


class TestCorrectness:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_reference_3d(self, small3d, factors3d, mode):
        csf = build_csf(small3d, mode)
        got = csf_mttkrp(csf, factors3d)
        want = einsum_mttkrp(small3d, factors3d, mode)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_reference_4d(self, small4d, factors4d, mode):
        csf = build_csf(small4d, mode)
        got = csf_mttkrp(csf, factors4d)
        want = einsum_mttkrp(small4d, factors4d, mode)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_skewed_tensor(self, skewed3d):
        factors = make_factors(skewed3d.shape, 32, seed=21)
        csf = build_csf(skewed3d, 0)
        got = csf_mttkrp(csf, factors)
        want = einsum_mttkrp(skewed3d, factors, 0)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_agrees_with_coo_kernel(self, small3d, factors3d):
        from repro.kernels.coo_mttkrp import coo_mttkrp

        for mode in range(3):
            a = csf_mttkrp(build_csf(small3d, mode), factors3d)
            b = coo_mttkrp(small3d, factors3d, mode)
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_empty_tensor(self):
        t = CooTensor.empty((3, 4, 5))
        csf = build_csf(t, 0)
        out = csf_mttkrp(csf, make_factors(t.shape, 4))
        assert np.all(out == 0.0)

    def test_single_nonzero(self):
        t = CooTensor([[1, 2, 3]], [2.0], (3, 4, 5))
        factors = make_factors(t.shape, 4, seed=2)
        got = csf_mttkrp(build_csf(t, 0), factors)
        want = einsum_mttkrp(t, factors, 0)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestModeHandling:
    def test_wrong_mode_rejected(self, small3d, factors3d):
        csf = build_csf(small3d, 0)
        with pytest.raises(DimensionError):
            csf_mttkrp(csf, factors3d, mode=1)

    def test_out_accumulation(self, small3d, factors3d):
        csf = build_csf(small3d, 0)
        base = np.full((small3d.shape[0], factors3d[0].shape[1]), 2.0)
        got = csf_mttkrp(csf, factors3d, out=base)
        want = 2.0 + csf_mttkrp(csf, factors3d)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_bad_out_shape(self, small3d, factors3d):
        csf = build_csf(small3d, 0)
        with pytest.raises(DimensionError):
            csf_mttkrp(csf, factors3d, out=np.zeros((2, 2)))
