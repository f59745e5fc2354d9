"""Deadline budgets: kernel cooperation, ALS partials, bench timeouts."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench.runner import BenchConfig, run_benchmarks
from repro.core.mttkrp import MttkrpPlan
from repro.cpd.als import cp_als
from repro.faults import (
    Deadline,
    as_deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
    inject,
)
from repro.kernels.csf_mttkrp import csf_mttkrp
from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.csf import build_csf
from repro.tensor.random_gen import random_coo
from repro.util.errors import DeadlineExceeded, ValidationError
from repro.util.prng import default_rng

from tests.conftest import make_factors


def fake_clock(values):
    it = iter(values)
    last = [0.0]

    def clock():
        try:
            last[0] = next(it)
        except StopIteration:
            pass
        return last[0]

    return clock


def test_deadline_accounting():
    dl = Deadline(10.0, clock=fake_clock([0.0, 3.0, 7.0, 11.0]))
    assert dl.elapsed() == 3.0
    assert dl.remaining() == 3.0
    assert dl.expired()  # 11.0 - 0.0 >= 10.0


def test_deadline_check_raises_with_context():
    dl = Deadline(1.0, clock=fake_clock([0.0, 2.5]))
    with pytest.raises(DeadlineExceeded) as err:
        dl.check("kernel.slab")
    assert err.value.where == "kernel.slab"
    assert err.value.budget_seconds == 1.0
    assert err.value.elapsed_seconds == 2.5


def test_deadline_rejects_nonpositive_budget():
    with pytest.raises(ValidationError):
        Deadline(0.0)


def test_as_deadline_coercion():
    assert as_deadline(None) is None
    dl = Deadline(5.0)
    assert as_deadline(dl) is dl
    assert isinstance(as_deadline(2.5), Deadline)


def test_ambient_scope_nesting():
    assert current_deadline() is None
    check_deadline("anywhere")  # no-op without a scope
    outer = Deadline(60.0)
    inner = Deadline(30.0)
    with deadline_scope(outer):
        assert current_deadline() is outer
        with deadline_scope(inner):
            assert current_deadline() is inner
        with deadline_scope(None):  # None installs nothing
            assert current_deadline() is outer
    assert current_deadline() is None


def test_kernel_checks_deadline_at_slab_boundaries():
    tensor = random_coo((30, 20, 10), 3_000, default_rng(0))
    csf = build_csf(tensor, root_mode=0)
    factors = make_factors(tensor.shape, 4)
    out = np.zeros((tensor.shape[0], 4))
    expired = Deadline(5.0, clock=fake_clock([0.0, 100.0]))
    with deadline_scope(expired):
        with pytest.raises(DeadlineExceeded) as err:
            # slab_nnz=64 forces many slab boundaries
            csf_mttkrp(csf, factors, out=out, slab_nnz=64)
    assert err.value.where == "kernel.slab"


def test_threaded_kernel_polls_ambient_deadline():
    """Pool threads run in a copy of the caller's context, so the kernel
    passes of a threaded MTTKRP see the ambient deadline."""
    tensor = random_coo((30, 20, 10), 3_000, default_rng(0))
    factors = make_factors(tensor.shape, 4)
    expired = Deadline(5.0, clock=fake_clock([0.0, 100.0]))
    with deadline_scope(expired):
        with pytest.raises(DeadlineExceeded) as err:
            repro.mttkrp(tensor, factors, 0, format="hb-csf",
                         backend="threads", num_workers=2)
    assert err.value.where == "kernel.slab"


def test_stall_fault_drives_kernel_deadline():
    tensor = random_coo((30, 20, 10), 3_000, default_rng(0))
    csf = build_csf(tensor, root_mode=0)
    factors = make_factors(tensor.shape, 4)
    out = np.zeros((tensor.shape[0], 4))
    with inject("kernel.slab:stall@seconds=0.05,hit=1"):
        with deadline_scope(Deadline(0.01)):
            with pytest.raises(DeadlineExceeded):
                csf_mttkrp(csf, factors, out=out, slab_nnz=64)


def assert_bit_equal_solves(got, want):
    assert got.iterations == want.iterations
    assert got.fits == want.fits
    assert not got.converged
    for a, b in zip([got.weights, *got.factors],
                    [want.weights, *want.factors], strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def test_cp_als_deadline_carries_committed_partial():
    tensor = random_coo((12, 11, 10), 350, default_rng(2))
    ref = cp_als(tensor, 4, n_iters=3, tol=0.0, rng=default_rng(3))
    # a stall at iteration 4 blows a generous budget after 3 committed
    # iterations; the partial must be exactly the 3-iteration solve
    with inject("als.iteration:stall@seconds=0.25,hit=4"):
        with pytest.raises(DeadlineExceeded) as err:
            cp_als(tensor, 4, n_iters=6, tol=0.0, rng=default_rng(3),
                   deadline=0.2)
    assert err.value.partial is not None
    assert_bit_equal_solves(err.value.partial, ref)


def test_cp_als_deadline_mid_sweep_partial_is_last_committed():
    """The deadline expires in mode 1 of iteration 4, after mode 0 has
    replaced its factor: the partial still holds the 3-iteration factor
    set, not a half-swept one."""
    tensor = random_coo((12, 11, 10), 350, default_rng(2))
    kwargs = dict(tol=0.0, rng=3, backend="serial")
    ref = cp_als(tensor, 4, n_iters=3, **kwargs)
    plan = MttkrpPlan(tensor, format="hb-csf", backend="serial")
    factors = make_factors(tensor.shape, 4)
    passes = []
    for mode in plan.modes:
        before = counters_snapshot()
        plan.mttkrp(factors, mode)
        passes.append(counters_delta(before)["kernel.passes"])
    hit = 3 * sum(passes) + passes[0] + 1  # first pass of iteration 4, mode 1
    with inject(f"kernel.slab:stall@seconds=0.25,hit={hit}") as faults:
        with pytest.raises(DeadlineExceeded) as err:
            cp_als(tensor, 4, n_iters=6, deadline=0.2, **kwargs)
    assert err.value.where == "kernel.slab"
    assert faults.hits("kernel.slab") == hit
    assert_bit_equal_solves(err.value.partial, ref)


def test_bench_cell_timeout_records_status_and_continues():
    spec = {"generator": "uniform", "shape": [30, 20, 10], "nnz": 2000,
            "seed": 1}
    config = BenchConfig(repeats=2, warmup=0, rank=8,
                         cell_timeout_seconds=1e-9)
    lines: list[str] = []
    run = run_benchmarks(["kernel.csf", "kernel.coo", "build.coo"],
                         [("t", spec)], config, name="tmo",
                         progress=lines.append)
    by_target = {m.target: m for m in run.measurements}
    # every kernel polls the ambient deadline at pass boundaries
    assert by_target["kernel.coo"].status == "timeout"
    timed_out = by_target["kernel.csf"]
    assert timed_out.status == "timeout" and not timed_out.ok
    assert timed_out.stats["repeats"] == 0
    assert timed_out.stats["laps"] == []
    assert timed_out.stats["median"] > 0.0
    assert timed_out.metrics["timeout_seconds"] == 1e-9
    # ...and the matrix continued: the COO build (no deadline poll)
    # completed normally
    assert by_target["build.coo"].ok
    assert any("TIMEOUT" in line for line in lines)
    assert run.config["cell_timeout_seconds"] == 1e-9


def test_bench_config_rejects_bad_timeout():
    with pytest.raises(ValidationError):
        BenchConfig(cell_timeout_seconds=0.0)


def test_timeout_cells_round_trip_and_never_gate():
    from repro.bench.schema import BenchRun

    spec = {"generator": "uniform", "shape": [30, 20, 10], "nnz": 2000,
            "seed": 1}
    slow = run_benchmarks(
        ["kernel.csf"], [("t", spec)],
        BenchConfig(repeats=2, warmup=0, rank=8, cell_timeout_seconds=1e-9),
        name="slow")
    # schema round trip preserves the status
    back = BenchRun.from_dict(slow.to_dict())
    assert back.measurements[0].status == "timeout"
