"""One dispatch path: every CPU MTTKRP execution goes through
:meth:`FormatSpec.mttkrp`, exactly once per execution."""

from __future__ import annotations

import pytest

import repro
from repro.core.mttkrp import MttkrpPlan
from repro.formats import build_plan, get_format
from repro.formats.plan_cache import plan_cache
from repro.formats.registry import FormatSpec
from repro.tensor.random_gen import random_coo
from repro.tune import decide, decision_cache_stats, enumerate_candidates
from repro.util.prng import default_rng

from tests.conftest import make_factors


@pytest.fixture
def tensor():
    return random_coo((30, 25, 20), 1_200, default_rng(3))


@pytest.fixture
def calls(monkeypatch):
    """Count the :meth:`FormatSpec.mttkrp` calls (the wrapped method still
    runs, so results are unchanged)."""
    seen: list[str] = []
    original = FormatSpec.mttkrp

    def counting(self, *args, **kwargs):
        seen.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FormatSpec, "mttkrp", counting)
    return seen


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_public_mttkrp_reaches_spec_once(tensor, calls, backend):
    factors = make_factors(tensor.shape, 4)
    repro.mttkrp(tensor, factors, 1, format="hb-csf", backend=backend,
                 num_workers=2)
    assert calls == ["hb-csf"]


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_plan_mttkrp_reaches_spec_once(tensor, calls, backend):
    factors = make_factors(tensor.shape, 4)
    plan = MttkrpPlan(tensor, format="coo", backend=backend, num_workers=2)
    for mode in range(tensor.order):
        plan.mttkrp(factors, mode)
    assert calls == ["coo"] * tensor.order


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_every_probe_reaches_spec_once(tensor, calls, backend):
    grid = ("serial", "threads") if backend == "threads" else ("serial",)
    candidates = enumerate_candidates(tensor, 0, backends=grid)
    probes = decision_cache_stats()["probes"]

    def measure(fn):
        fn()
        return 1.0

    decide(tensor, 0, 8, backend=backend, num_workers=2, measure=measure,
           use_cache=False)
    assert calls == [c.format for c in candidates]
    assert calls.count("coo") == len(grid)   # no per-accumulator variants
    assert decision_cache_stats()["probes"] - probes == len(candidates)


def test_plan_key_addresses_the_shard_plan(tensor):
    built = build_plan(tensor, "hb-csf", 0)
    factors = make_factors(tensor.shape, 4)
    get_format("hb-csf").mttkrp(built.rep, factors, 0, backend="threads",
                                num_workers=2, plan_key=built.key)
    entry = plan_cache().get(built.key + ("shards", 2))
    assert entry is not None and entry.rep.num_workers == 2
