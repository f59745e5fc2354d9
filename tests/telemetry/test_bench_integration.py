"""Bench integration: counter deltas, peak RSS and Timer.stats()."""

from __future__ import annotations

import sys
import time

import pytest

from repro.bench.env import capture_environment, peak_rss_bytes
from repro.bench.runner import BenchConfig, run_benchmarks
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchRun,
    Measurement,
    stats_from_timer,
)
from repro.util.errors import ValidationError
from repro.util.timing import Timer, repeat


class TestTimerStats:
    def test_stats_keys_and_values(self):
        timer = Timer(laps=[0.4, 0.1, 0.2, 0.3])
        stats = timer.stats()
        assert stats["count"] == 4
        assert stats["best"] == pytest.approx(0.1)
        assert stats["median"] == pytest.approx(0.25)
        assert stats["max"] == pytest.approx(0.4)
        assert stats["total"] == pytest.approx(1.0)
        assert stats["p95"] >= stats["median"]
        assert stats["laps"] == [0.4, 0.1, 0.2, 0.3]

    def test_empty_timer_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="no laps"):
            Timer().stats()

    def test_stats_from_timer_builds_on_stats(self):
        _, timer = repeat(lambda: time.sleep(0), n=3, warmup=1)
        stats = stats_from_timer(timer, warmup=1)
        assert stats["repeats"] == 3
        assert stats["warmup"] == 1
        assert stats["min"] == timer.stats()["best"]
        assert stats["max"] == timer.stats()["max"]

    def test_stats_from_timer_rejects_empty(self):
        with pytest.raises(ValidationError):
            stats_from_timer(Timer(), warmup=0)


class TestPeakRss:
    def test_positive_on_platforms_with_resource(self):
        rss = peak_rss_bytes()
        if sys.platform.startswith(("linux", "darwin")):
            assert rss is not None
            # a running CPython interpreter holds at least a few MB
            assert rss > 4 * 1024 * 1024
        elif rss is not None:
            assert rss > 0

    def test_captured_in_environment(self):
        env = capture_environment()
        assert "peak_rss_bytes" in env
        rss = peak_rss_bytes()
        if rss is None:
            assert env["peak_rss_bytes"] is None
        else:
            assert env["peak_rss_bytes"] > 0


class TestBenchCounters:
    def test_measurements_carry_counters_and_rss(self):
        config = BenchConfig(repeats=2, warmup=1, rank=4)
        run = run_benchmarks(
            ["kernel.b-csf"],
            [("cell", {"generator": "uniform", "shape": [12, 10, 8],
                       "nnz": 200, "seed": 1})],
            config,
            name="telemetry-int",
        )
        assert run.schema_version == SCHEMA_VERSION
        measurement, = run.measurements
        assert measurement.counters["kernel.count"] >= config.repeats
        assert measurement.counters["kernel.seconds"] > 0
        if peak_rss_bytes() is not None:
            assert measurement.metrics["peak_rss_bytes"] > 0

        # counters survive the JSON round-trip
        data = run.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        restored = BenchRun.from_dict(data)
        assert restored.measurements[0].counters == measurement.counters

    def test_v1_measurements_still_load(self):
        """Pre-telemetry artifacts (schema 1, no counters field) must keep
        loading."""
        legacy = {
            "target": "kernel.coo",
            "scenario": "old",
            "spec_hash": "x",
            "shape": [2, 2, 2],
            "nnz": 4,
            "rank": 2,
            "stats": {"repeats": 1, "warmup": 0, "min": 1.0, "median": 1.0,
                      "p95": 1.0, "max": 1.0, "mean": 1.0, "stddev": 0.0,
                      "laps": [1.0]},
            "metrics": {},
        }
        measurement = Measurement.from_dict(legacy)
        assert measurement.counters == {}
