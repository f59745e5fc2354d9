"""Autotuner x execution backend: the format x backend probe grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mttkrp import mttkrp
from repro.tune.tuner import (
    DEFAULT_BUDGET,
    _decision_key,
    decide,
    enumerate_candidates,
)

from tests.conftest import make_factors
from tests.tune.conftest import fixed_measure


def test_serial_grid_has_no_threads_candidates(medium3d):
    labels = [c.label for c in enumerate_candidates(medium3d, 0)]
    assert labels and not any("+threads" in lbl for lbl in labels)


def test_threads_grid_doubles_sharded_formats(medium3d):
    serial = enumerate_candidates(medium3d, 0)
    both = enumerate_candidates(medium3d, 0, backends=("serial", "threads"))
    # every sharded format gains a +threads twin; on medium3d every serial
    # candidate's format has a sharder
    assert len(both) == 2 * len(serial)
    threaded = [c for c in both if c.backend == "threads"]
    assert threaded and all(c.label.endswith("+threads") for c in threaded)
    # serial-first within each format: the tie-break favours serial
    for fmt in {c.format for c in both}:
        entries = [c for c in both if c.format == fmt]
        assert entries[0].backend == "serial"


def test_decision_key_distinguishes_backend_grid(medium3d):
    serial = _decision_key(medium3d, 0, 32, None, None, DEFAULT_BUDGET)
    threads2 = _decision_key(medium3d, 0, 32, None, None, DEFAULT_BUDGET,
                             backend_token="threads@2")
    threads4 = _decision_key(medium3d, 0, 32, None, None, DEFAULT_BUDGET,
                             backend_token="threads@4")
    assert len({serial, threads2, threads4}) == 3


def test_decide_elects_threads_winner(medium3d):
    grid = enumerate_candidates(medium3d, 0, backends=("serial", "threads"))
    table = {c.label: (0.1 if c.label == "b-csf+threads" else 1.0)
             for c in grid}
    decision = decide(medium3d, 0, 16, backend="threads", num_workers=2,
                      measure=fixed_measure(table))
    assert decision.format == "b-csf"
    assert decision.backend == "threads"
    assert decision.num_workers == 2
    assert decision.label == "b-csf+threads"


def test_decide_keeps_serial_winner_unpinned_to_threads(medium3d):
    grid = enumerate_candidates(medium3d, 0, backends=("serial", "threads"))
    table = {c.label: (0.1 if c.label == "csf" else 1.0) for c in grid}
    decision = decide(medium3d, 0, 16, backend="threads", num_workers=2,
                      measure=fixed_measure(table))
    assert decision.format == "csf"
    assert decision.backend == "serial"
    assert decision.num_workers is None


def test_decide_serial_backend_skips_threads_probes(medium3d):
    serial_grid = enumerate_candidates(medium3d, 0)
    table = {c.label: 1.0 for c in serial_grid}
    # fixed_measure raises if decide probes more candidates than the
    # serial grid holds
    decision = decide(medium3d, 0, 16, backend="serial", num_workers=4,
                      measure=fixed_measure(table))
    assert decision.backend == "serial"


def test_workers_one_keeps_serial_grid(medium3d):
    serial_grid = enumerate_candidates(medium3d, 0)
    table = {c.label: 1.0 for c in serial_grid}
    decision = decide(medium3d, 0, 16, backend="threads", num_workers=1,
                      measure=fixed_measure(table))
    assert decision.backend == "serial"


def test_threads_decision_timings_cover_both_backends(medium3d):
    grid = enumerate_candidates(medium3d, 0, backends=("serial", "threads"))
    table = {c.label: 1.0 for c in grid}
    decision = decide(medium3d, 0, 16, backend="threads", num_workers=2,
                      measure=fixed_measure(table))
    probed = set(decision.probe_seconds())
    assert {c.label for c in grid} == probed


def test_plan_per_call_backend_overrides_pinned_decision(medium3d):
    """An explicit per-call backend beats a decision's pinned threads."""
    from repro.core.mttkrp import MttkrpPlan
    from repro.telemetry import counters_snapshot

    grid = enumerate_candidates(medium3d, 0, backends=("serial", "threads"))
    table = {c.label: (0.1 if c.label == "b-csf+threads" else 1.0)
             for c in grid}
    decide(medium3d, 0, 8, backend="threads", num_workers=2,
           measure=fixed_measure(table))
    plan = MttkrpPlan(medium3d, format="auto", rank=8, modes=(0,),
                      backend="threads", num_workers=2)
    assert plan.decisions[0].backend == "threads"

    factors = make_factors(medium3d.shape, 8, seed=11)

    def dispatches():
        return counters_snapshot().get("parallel.dispatches", 0)

    before = dispatches()
    pinned = plan.mttkrp(factors, 0)
    assert dispatches() > before, (
        "the pinned threads decision should execute by default")
    before = dispatches()
    overridden = plan.mttkrp(factors, 0, backend="serial")
    assert dispatches() == before, (
        "backend='serial' per call must bypass the pin")
    assert np.array_equal(pinned, overridden)


def test_auto_dispatch_executes_pinned_threads_decision(medium3d):
    """format="auto" with a threads election still matches serial bits."""
    grid = enumerate_candidates(medium3d, 0, backends=("serial", "threads"))
    table = {c.label: (0.1 if c.label == "hb-csf+threads" else 1.0)
             for c in grid}
    decide(medium3d, 0, 8, backend="threads", num_workers=2,
           measure=fixed_measure(table))
    factors = make_factors(medium3d.shape, 8, seed=77)
    auto = mttkrp(medium3d, factors, 0, format="auto", backend="threads",
                  num_workers=2)
    serial = mttkrp(medium3d, factors, 0, format="hb-csf", backend="serial")
    assert np.array_equal(auto, serial)
