"""The rank-major kernels give the same bits whatever layout they are handed.

Kernels gather from the ``(R, I)`` view of F-contiguous factors and convert
anything else once per dispatch, so C-ordered, F-ordered and non-contiguous
factors, and C- or F-ordered ``out`` arrays, must all produce identical
outputs.  CP-ALS keeps its factors F-contiguous, and a checkpoint resume
replays the uninterrupted trajectory whichever layout the checkpoint holds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cpd.als import cp_als
from repro.cpd.checkpoint import load_checkpoint, save_checkpoint
from repro.faults import inject
from repro.formats import build_plan, format_names, get_format
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.coo import CooTensor
from repro.tensor.random_gen import random_coo
from repro.util.errors import FaultInjected
from repro.util.prng import default_rng

RANK = 5
FACTOR_LAYOUTS = ("C", "F", "column-slice")
OUT_LAYOUTS = (None, "C", "F")


def general_tensor() -> CooTensor:
    return random_coo((9, 12, 10), 300, default_rng(21))


def singleton_fiber_tensor() -> CooTensor:
    rng = default_rng(8)
    idx = np.stack([rng.permutation(20) for _ in range(3)], axis=1)
    return CooTensor(idx, rng.standard_normal(20), (20, 20, 20))


def three_group_tensor() -> CooTensor:
    """Root slices 0-9 for the B-CSF group, 10-19 of three singleton
    fibers each for CSL and 20-29 of one nonzero each for COO."""
    rng = default_rng(4)
    dense = random_coo((10, 12, 10), 400, rng).indices
    csl = np.stack([np.repeat(np.arange(10, 20), 3),
                    np.tile([0, 4, 8], 10),
                    rng.integers(0, 10, size=30)], axis=1)
    coo = np.stack([np.arange(20, 30), rng.integers(0, 12, size=10),
                    rng.integers(0, 10, size=10)], axis=1)
    idx = np.concatenate([dense, csl, coo])
    return CooTensor(idx, rng.standard_normal(idx.shape[0]), (30, 12, 10))


def factors_in(layout: str, shape) -> list[np.ndarray]:
    rng = default_rng(5)
    wide = [rng.standard_normal((s, RANK + 3)) for s in shape]
    if layout == "C":
        return [np.ascontiguousarray(w[:, :RANK]) for w in wide]
    if layout == "F":
        return [np.asfortranarray(w[:, :RANK]) for w in wide]
    return [w[:, :RANK] for w in wide]  # neither C- nor F-contiguous


def bits(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr).tobytes()


@pytest.mark.parametrize("fmt", format_names(cpu=True))
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_every_format_ignores_factor_and_out_layout(fmt, dtype):
    tensor = singleton_fiber_tensor() if fmt == "csl" else general_tensor()
    for mode in range(tensor.order):
        # keyed by output dtype: baseline kernels take no ``dtype`` and
        # compute in float64 unless handed a float32 ``out``
        want = {}
        for backend in ("serial", "threads"):
            for flayout in FACTOR_LAYOUTS:
                factors = factors_in(flayout, tensor.shape)
                for olayout in OUT_LAYOUTS:
                    out = None if olayout is None else np.zeros(
                        (tensor.shape[mode], RANK), dtype=dtype,
                        order=olayout)
                    got = repro.mttkrp(tensor, factors, mode, format=fmt,
                                       out=out, dtype=dtype, backend=backend,
                                       num_workers=2)
                    assert out is None or got is out
                    ref = want.setdefault(got.dtype.str, bits(got))
                    assert bits(got) == ref, (mode, backend, flayout,
                                              olayout)


@pytest.mark.parametrize("method", ["add_at", "sort"])
def test_coo_accumulators_ignore_layout(method):
    tensor = general_tensor()
    for mode in range(tensor.order):
        outs = {
            (flayout, olayout): bits(coo_mttkrp(
                tensor, factors_in(flayout, tensor.shape), mode,
                out=np.zeros((tensor.shape[mode], RANK), order=olayout),
                method=method))
            for flayout in FACTOR_LAYOUTS for olayout in ("C", "F")
        }
        assert len(set(outs.values())) == 1, mode


def _solve(tensor, **kwargs):
    return cp_als(tensor, 4, n_iters=5, tol=0.0, rng=default_rng(3),
                  **kwargs)


def test_cp_als_factors_are_f_contiguous():
    result = _solve(general_tensor())
    assert all(f.flags.f_contiguous for f in result.factors)


def test_cp_als_initial_factor_layout_does_not_matter():
    tensor = general_tensor()
    init = factors_in("C", tensor.shape)
    runs = [cp_als(tensor, RANK, n_iters=3, tol=0.0,
                   init=[layout(f) for f in init])
            for layout in (np.ascontiguousarray, np.asfortranarray)]
    assert runs[0].fits == runs[1].fits
    for a, b in zip(runs[0].factors, runs[1].factors):
        assert bits(a) == bits(b)


@pytest.mark.parametrize("stored", ["as-saved", "C-ordered"])
def test_checkpoint_resume_bit_identical_for_either_layout(tmp_path, stored):
    tensor = general_tensor()
    ref = _solve(tensor)
    ck = tmp_path / "als.npz"
    with inject("als.iteration:raise@hit=4"):
        with pytest.raises(FaultInjected):
            _solve(tensor, checkpoint=ck)
    state = load_checkpoint(ck, expect_meta={})
    assert all(f.flags.f_contiguous for f in state["factors"])
    if stored == "C-ordered":
        save_checkpoint(ck, factors=[np.ascontiguousarray(f)
                                     for f in state["factors"]],
                        weights=state["weights"], fits=state["fits"],
                        iteration=state["iteration"], meta=state["meta"])
    resumed = _solve(tensor, checkpoint=ck)
    assert resumed.fits == ref.fits
    assert bits(resumed.weights) == bits(ref.weights)
    for a, b in zip(resumed.factors, ref.factors):
        assert a.flags.f_contiguous
        assert bits(a) == bits(b)


@pytest.mark.parametrize("workers", [pytest.param(1, id="serial"), 2, 4])
def test_hbcsf_converts_each_layout_once(workers):
    """One hb-csf call over all three groups copies exactly the two
    gathered row tables of F-ordered factors, serial or threaded: F is the
    tree kernel's layout already, and no group or shard converts again."""
    tensor = three_group_tensor()
    rep = build_plan(tensor, "hb-csf", 0).rep
    assert all(rep.group_nnz().values())
    factors = factors_in("F", tensor.shape)
    before = counters_snapshot()
    get_format("hb-csf").mttkrp(rep, factors, 0, backend="threads",
                                num_workers=workers)
    assert counters_delta(before).get("kernel.layout_copies") == 2
