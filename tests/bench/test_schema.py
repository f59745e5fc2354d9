"""JSON schema round-trip and validation tests for repro.bench.schema."""

from __future__ import annotations

import pytest

from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchRun,
    Measurement,
    bench_artifact_path,
    load_run,
    save_run,
    stats_from_timer,
    validate_run_dict,
)
from repro.util.errors import ValidationError
from repro.util.timing import Timer


def make_stats(base: float = 0.001) -> dict:
    timer = Timer()
    timer.laps = [base, base * 2, base * 3]
    timer.elapsed = sum(timer.laps)
    return stats_from_timer(timer, warmup=1)


def make_run(name: str = "unit", scale: float = 1.0) -> BenchRun:
    return BenchRun(
        name=name,
        created_at="2026-07-28T00:00:00+00:00",
        env={"python": "3.11", "numpy": "2.0", "git_sha": None},
        config={"repeats": 3, "warmup": 1, "rank": 8, "scale": 1.0},
        measurements=[
            Measurement(target="kernel.coo", scenario="s1", spec_hash="ab",
                        shape=(4, 5, 6), nnz=10, rank=8,
                        stats=make_stats(0.001 * scale)),
            Measurement(target="kernel.csf", scenario="s1", spec_hash="ab",
                        shape=(4, 5, 6), nnz=10, rank=8,
                        stats=make_stats(0.002 * scale),
                        metrics={"simulated_seconds": 0.1}),
        ],
    )


class TestStats:
    def test_stats_from_timer(self):
        stats = make_stats(0.001)
        assert stats["repeats"] == 3
        assert stats["min"] == pytest.approx(0.001)
        assert stats["median"] == pytest.approx(0.002)
        assert stats["p95"] == pytest.approx(0.0029, rel=0.05)
        assert stats["total"] == pytest.approx(0.006)
        assert stats["stddev"] > 0

    def test_empty_timer_rejected(self):
        with pytest.raises(ValidationError):
            stats_from_timer(Timer(), warmup=0)


class TestRoundTrip:
    def test_dict_round_trip(self):
        run = make_run()
        back = BenchRun.from_dict(run.to_dict())
        assert back.to_dict() == run.to_dict()
        assert back.schema_version == SCHEMA_VERSION
        assert back.measurement("kernel.csf", "s1").metrics == {
            "simulated_seconds": 0.1}

    def test_json_round_trip(self):
        run = make_run()
        back = BenchRun.from_json(run.to_json())
        assert back.to_dict() == run.to_dict()

    def test_file_round_trip(self, tmp_path):
        run = make_run()
        path = save_run(run, tmp_path / "BENCH_unit.json")
        back = load_run(path)
        assert back.to_dict() == run.to_dict()

    def test_roundtrip_preserves_peak_rss_metric(self):
        run = make_run()
        run.measurements[0].metrics["peak_rss_bytes"] = 42.0 * 1024 * 1024
        back = BenchRun.from_json(run.to_json())
        assert back.measurements[0].metrics["peak_rss_bytes"] == pytest.approx(
            42.0 * 1024 * 1024)

    def test_measurement_lookup(self):
        run = make_run()
        assert run.measurement("kernel.coo", "s1").target == "kernel.coo"
        assert run.measurement("kernel.coo", "nope") is None
        assert run.keys() == [("kernel.coo", "s1"), ("kernel.csf", "s1")]


class TestValidation:
    def test_not_a_dict(self):
        with pytest.raises(ValidationError):
            validate_run_dict([1, 2])

    def test_missing_schema_version(self):
        data = make_run().to_dict()
        del data["schema_version"]
        with pytest.raises(ValidationError):
            validate_run_dict(data)

    def test_future_schema_version_rejected(self):
        data = make_run().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValidationError):
            validate_run_dict(data)

    def test_measurement_missing_stat(self):
        data = make_run().to_dict()
        del data["measurements"][0]["stats"]["median"]
        with pytest.raises(ValidationError):
            validate_run_dict(data)

    def test_invalid_json_text(self):
        with pytest.raises(ValidationError):
            BenchRun.from_json("{nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_run(tmp_path / "absent.json")


class TestArtifacts:
    def test_artifact_path_convention(self, tmp_path):
        path = bench_artifact_path("kernels", tmp_path)
        assert path.name == "BENCH_kernels.json"

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            bench_artifact_path("  ")
