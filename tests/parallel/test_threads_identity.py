"""The backend contract: threaded MTTKRP is bit-identical to serial.

Every output row is computed entirely inside one shard with the same
left-to-right float accumulation as the serial kernel, so the comparison
below is ``np.array_equal`` — exact bits, not ``allclose`` — across every
CPU format in the registry, every mode, both dtypes and several worker
counts.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.mttkrp import MttkrpPlan, mttkrp
from repro.cpd.als import cp_als
from repro.formats import build_plan, format_names, get_format
from repro.tensor.csf import CsfTensor
from repro.util.errors import DimensionError, ValidationError
from repro.util.prng import default_rng

from tests.conftest import make_factors
from tests.parallel.conftest import singleton_fiber_tensor


def _sharded_formats():
    return [name for name in format_names(kind="own", cpu=True)
            if get_format(name).supports_threads]


def _tensors(request):
    return {
        "skewed3d": request.getfixturevalue("skewed3d"),
        "small4d": request.getfixturevalue("small4d"),
        "singleton": singleton_fiber_tensor(),
    }


@pytest.mark.parametrize("fmt", ["coo", "csf", "b-csf", "hb-csf", "csl"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_spec_mttkrp_bit_identical(fmt, dtype, request):
    spec = get_format(fmt)
    assert spec.supports_threads
    checked = 0
    for tname, tensor in _tensors(request).items():
        for mode in range(tensor.order):
            try:
                built = build_plan(tensor, fmt, mode, None, dtype)
            except ValidationError:
                continue  # format cannot represent this (tensor, mode)
            factors = [f.astype(dtype) for f in
                       make_factors(tensor.shape, 8, seed=31)]
            serial = spec.mttkrp(built.rep, factors, mode, dtype=dtype,
                                 backend="serial")
            for workers in (2, 4):
                threaded = spec.mttkrp(built.rep, factors, mode, dtype=dtype,
                                       backend="threads", num_workers=workers)
                assert np.array_equal(serial, threaded), (
                    f"{fmt} diverged on {tname} mode {mode} "
                    f"w={workers} {dtype}")
            checked += 1
    assert checked, f"no (tensor, mode) cell exercised {fmt}"


def test_all_sharded_formats_are_covered():
    assert set(_sharded_formats()) == {"coo", "csf", "b-csf", "hb-csf", "csl"}


def test_one_worker_equals_serial(skewed3d):
    factors = make_factors(skewed3d.shape, 8, seed=5)
    serial = mttkrp(skewed3d, factors, 0, format="hb-csf", backend="serial")
    one = mttkrp(skewed3d, factors, 0, format="hb-csf", backend="threads",
                 num_workers=1)
    assert np.array_equal(serial, one)


def test_mttkrp_plan_bit_identical(skewed3d):
    factors = make_factors(skewed3d.shape, 8, seed=17)
    serial_plan = MttkrpPlan(skewed3d, format="b-csf", backend="serial")
    threads_plan = MttkrpPlan(skewed3d, format="b-csf", backend="threads",
                              num_workers=2)
    for mode in range(skewed3d.order):
        assert np.array_equal(serial_plan.mttkrp(factors, mode),
                              threads_plan.mttkrp(factors, mode))


def test_plan_per_call_backend_override(skewed3d):
    factors = make_factors(skewed3d.shape, 8, seed=17)
    plan = MttkrpPlan(skewed3d, format="csf")
    serial = plan.mttkrp(factors, 1)
    threaded = plan.mttkrp(factors, 1, backend="threads", num_workers=2)
    assert np.array_equal(serial, threaded)


def test_cp_als_trajectory_identical(skewed3d):
    rng = default_rng(99)
    init = [rng.standard_normal((s, 6)) for s in skewed3d.shape]
    serial = cp_als(skewed3d, 6, n_iters=3, format="hb-csf", init=init,
                    backend="serial")
    threaded = cp_als(skewed3d, 6, n_iters=3, format="hb-csf", init=init,
                      backend="threads", num_workers=2)
    assert serial.fits == threaded.fits
    assert np.array_equal(serial.weights, threaded.weights)
    for a, b in zip(serial.factors, threaded.factors):
        assert np.array_equal(a, b)


def test_baseline_formats_fall_back_to_serial(small3d):
    """Formats without a sharder (the baselines) accept backend="threads"
    and silently run their serial kernel."""
    factors = make_factors(small3d.shape, 8, seed=3)
    ran = 0
    for name in format_names(kind="baseline", cpu=True):
        spec = get_format(name)
        assert not spec.supports_threads
        try:
            built = build_plan(small3d, name, 0)
        except ValidationError:
            continue
        serial = spec.mttkrp(built.rep, factors, 0, backend="serial")
        threaded = spec.mttkrp(built.rep, factors, 0, backend="threads",
                               num_workers=4)
        assert np.array_equal(serial, threaded)
        ran += 1
    assert ran


def test_out_accumulation_matches_serial(skewed3d):
    """Threaded execution accumulates into a caller-provided ``out``
    exactly like serial does (shards write disjoint rows of it)."""
    spec = get_format("csf")
    built = build_plan(skewed3d, "csf", 0)
    factors = make_factors(skewed3d.shape, 8, seed=23)
    base = np.ones((skewed3d.shape[0], 8))
    serial = spec.mttkrp(built.rep, factors, 0, out=base.copy(),
                         backend="serial")
    threaded = spec.mttkrp(built.rep, factors, 0, out=base.copy(),
                           backend="threads", num_workers=2)
    assert np.array_equal(serial, threaded)


@pytest.mark.parametrize("fmt", ["csf", "csl"])
@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_validate_checks_structure_on_both_backends(fmt, backend, skewed3d):
    """``validate=True`` rejects an index outside its factor on either
    backend: the structure is checked once on the whole representation,
    before any shard runs unchecked (the kernels' gathers clip)."""
    tensor = singleton_fiber_tensor() if fmt == "csl" else skewed3d
    rep = build_plan(tensor, fmt, 0).rep
    if fmt == "csf":
        fids = [f.copy() for f in rep.fids]
        fids[-1][0] = 10 ** 6
        bad = CsfTensor(rep.shape, rep.mode_order, rep.fptr, fids,
                        rep.values)
    else:
        rest = rep.rest_indices.copy()
        rest[0, -1] = 10 ** 6
        bad = dataclasses.replace(rep, rest_indices=rest)
    factors = make_factors(tensor.shape, 8, seed=3)
    with pytest.raises(DimensionError, match="indexes outside"):
        get_format(fmt).mttkrp(bad, factors, 0, backend=backend,
                               num_workers=2)
