"""Runner + CLI smoke tests on a tiny scenario (fast, no suites)."""

from __future__ import annotations

import json

import pytest

from repro.bench.cli import main
from repro.bench.runner import BUDGETS, BenchConfig, run_benchmarks
from repro.bench.schema import load_run, validate_run_dict
from repro.util.errors import ValidationError

TINY = {"generator": "uniform", "shape": [10, 8, 12], "nnz": 200, "seed": 3}
TINY_JSON = json.dumps(TINY)


class TestBenchConfig:
    def test_defaults_valid(self):
        config = BenchConfig()
        assert config.repeats >= 1

    def test_budget_presets(self):
        for budget in BUDGETS:
            config = BenchConfig.from_budget(budget)
            assert config.budget == budget
            assert config.scale == BUDGETS[budget][0]

    def test_unknown_budget(self):
        with pytest.raises(ValidationError):
            BenchConfig.from_budget("galactic")

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            BenchConfig(repeats=0)
        with pytest.raises(ValidationError):
            BenchConfig(scale=0.0)


class TestRunner:
    def test_run_benchmarks_shape(self):
        run = run_benchmarks(
            ["kernel.coo", "kernel.csf"],
            [("tiny", TINY)],
            BenchConfig(repeats=2, warmup=0, rank=4),
            name="unit",
        )
        assert run.name == "unit"
        assert len(run.measurements) == 2
        validate_run_dict(run.to_dict())
        m = run.measurement("kernel.coo", "tiny")
        assert m.nnz > 0 and m.rank == 4
        assert m.stats["repeats"] == 2
        assert len(m.stats["laps"]) == 2

    def test_probe_metrics_recorded(self):
        run = run_benchmarks(["sim.coo"], [("tiny", TINY)],
                             BenchConfig(repeats=1, warmup=0, rank=4))
        (m,) = run.measurements
        assert m.metrics["simulated_seconds"] > 0

    def test_duplicate_scenarios_deduped_and_disambiguated(self):
        other = dict(TINY, seed=4)
        run = run_benchmarks(
            ["kernel.coo"],
            [("tiny", TINY), ("tiny", TINY), ("tiny", other)],
            BenchConfig(repeats=1, warmup=0, rank=4),
        )
        # exact duplicate dropped; name collision over different content
        # keeps its own cell under a hash-qualified name
        assert len(run.measurements) == 2
        scenarios = [m.scenario for m in run.measurements]
        assert scenarios[0] == "tiny"
        assert scenarios[1].startswith("tiny@")
        assert len(set(run.keys())) == len(run.keys())

    def test_empty_selection_rejected(self):
        with pytest.raises(ValidationError):
            run_benchmarks([], [("tiny", TINY)])
        with pytest.raises(ValidationError):
            run_benchmarks(["kernel.coo"], [])


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "kernel.coo" in out and "sim.hb-csf" in out
        assert "paper12" in out and "tiny" in out

    def test_list_formats(self, capsys):
        assert main(["list", "--formats"]) == 0
        out = capsys.readouterr().out
        # the whole registry, own formats and baselines alike
        for name in ("coo", "csf", "b-csf", "hb-csf", "csl",
                     "splatt", "splatt-tiled", "hicoo", "parti", "f-coo"):
            assert name in out, name
        assert "singleton-fibers" in out   # capability flags rendered
        assert "allmode-build" in out

    def test_run_writes_schema_valid_artifact(self, tmp_path, capsys):
        code = main(["run", "--target", "kernel.coo",
                     "--scenario", TINY_JSON,
                     "--repeats", "2", "--warmup", "0", "--rank", "4",
                     "--name", "smoke", "--out-dir", str(tmp_path)])
        assert code == 0
        artifact = tmp_path / "BENCH_smoke.json"
        assert artifact.exists()
        run = load_run(artifact)
        assert run.name == "smoke"
        assert run.config["repeats"] == 2

    def test_run_no_history(self, tmp_path):
        main(["run", "-t", "kernel.coo", "-s", TINY_JSON,
              "--repeats", "1", "--warmup", "0", "--rank", "4",
              "--quiet", "--out-dir", str(tmp_path)])
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_run.json"]

    def test_run_without_scenarios_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--target", "kernel.coo"])

    def test_unknown_target_is_error_exit(self, tmp_path, capsys):
        code = main(["run", "-t", "kernel.nope", "-s", TINY_JSON,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "matches nothing" in capsys.readouterr().err

    def test_matrix_default_name_and_suite(self, tmp_path, monkeypatch):
        # a 1-entry suite keeps the smoke test fast while exercising the
        # matrix path end-to-end
        from repro.scenarios.suites import register_suite

        try:
            register_suite("bench-unit", description="unit suite")(
                lambda: [("cell", TINY)])
        except ValidationError:
            pass
        code = main(["matrix", "--suite", "bench-unit",
                     "-t", "kernel.coo", "-t", "kernel.csf",
                     "--repeats", "1", "--warmup", "0", "--rank", "4",
                     "--quiet", "--out-dir", str(tmp_path)])
        assert code == 0
        run = load_run(tmp_path / "BENCH_kernels.json")
        assert {m.target for m in run.measurements} == {"kernel.coo",
                                                        "kernel.csf"}
