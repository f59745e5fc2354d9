"""The benchmark's own tests: smoke runs at 0.2% of the nonzeros, the
metric contract of ``BENCHMARK.json``, the correctness oracle, and seeding.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import endtoend  # noqa: E402
from perfbench.harness import Harness  # noqa: E402
from perfbench.workloads import RANK, WORKLOADS  # noqa: E402

SCALE = 0.002
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _release_library_state():
    """Leave no cached plans or worker threads to the tests that follow."""
    yield
    from repro.formats import clear_plan_cache
    from repro.parallel.pool import shutdown_pool

    clear_plan_cache()
    shutdown_pool()


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert np.isfinite(m["value"]), name
    assert "error_rate" in proc.stdout


def test_workload_names_match_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


def _small_plan(workload="community", seed=0):
    from repro.cpd import init_factors
    from repro.scenarios import materialize

    wl = WORKLOADS[workload]
    tensor = materialize(wl.scenario(seed, SCALE))
    harness = Harness(run_id="test", tracing=False)
    plan, _ = endtoend.setup_plan(harness, wl, tensor)
    factors = init_factors(tensor, RANK, "random", rng=seed)
    return wl, tensor, harness, plan, factors


@pytest.mark.parametrize("workload", ["community", "skewed-par2"])
def test_oracle_passes_true_outputs(workload):
    wl, tensor, h, plan, factors = _small_plan(workload)
    outs, ops, _ = endtoend.sweep(h, plan, factors)
    endtoend.check_outputs(h, wl, plan, tensor, factors, outs, ops)
    assert h.failed == 0


def test_corrupted_mttkrp_output_makes_error_rate_nonzero():
    wl, tensor, h, plan, factors = _small_plan()
    outs, ops, _ = endtoend.sweep(h, plan, factors)
    outs[1].flat[np.argmax(np.abs(outs[1]))] *= 1.0 + 1e-6
    endtoend.check_outputs(h, wl, plan, tensor, factors, outs, ops)
    assert h.failed == 1 and ops[1] in h.failures
    assert h.failed / h.attempted > 0


def test_seed_changes_the_tensor():
    from repro.scenarios import materialize

    for wl in WORKLOADS.values():
        a = materialize(wl.scenario(0, SCALE))
        again = materialize(wl.scenario(0, SCALE))
        b = materialize(wl.scenario(1, SCALE))
        assert np.array_equal(a.indices, again.indices)
        assert not (a.indices.shape == b.indices.shape
                    and np.array_equal(a.indices, b.indices))


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "community", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
