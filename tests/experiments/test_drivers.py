"""Tests for the per-figure experiment drivers.

Structural checks run at a small scale (fast); the paper's qualitative
claims are asserted at the default scale in ``test_paper_claims.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15,
    fig16, table2, table3,
)
from repro.experiments.fig10 import iterations_to_amortise
from repro.tensor.datasets import ALL_DATASETS, THREE_D_DATASETS

SMALL = dict(scale=0.15)


class TestTableDrivers:
    def test_table2_rows_and_columns(self):
        r = table2.run(**SMALL)
        assert len(r.rows) == len(THREE_D_DATASETS)
        for row in r.rows:
            assert row["gflops"] > 0
            assert 0 <= row["achv occp %"] <= 100
            assert row["paper gflops"] is not None

    def test_table3_matches_registry(self):
        r = table3.run(**SMALL)
        assert [row["tensor"] for row in r.rows] == list(ALL_DATASETS)
        orders = {row["tensor"]: row["order"] for row in r.rows}
        assert orders["uber"] == 4 and orders["deli"] == 3


class TestFigureDrivers:
    def test_fig5_structure(self):
        r = fig5.run(**SMALL)
        for row in r.rows:
            assert row["fbr+slc-split (GFLOPs)"] >= row["no split (GFLOPs)"] * 0.9
            assert row["speedup from splitting"] >= 0.9

    def test_fig6_stdev_decreases_with_threshold(self):
        r = fig6.run(scale=0.3, datasets=("fr_m",))
        stdevs = [row["stdev nnz/fbr"] for row in r.rows]
        assert stdevs == sorted(stdevs, reverse=True)

    def test_fig7_covers_short_and_long_modes(self):
        r = fig7.run(scale=0.2, datasets=("fr_m", "darpa"))
        kinds = {(row["tensor"], row["mode kind"]) for row in r.rows}
        assert ("fr_m", "shortest") in kinds and ("darpa", "longest") in kinds

    def test_fig8_structure(self):
        r = fig8.run(**SMALL, datasets=("nell2", "fr_m"))
        assert {row["tensor"] for row in r.rows} == {"nell2", "fr_m"}
        assert "coo_beats_bcsf_somewhere" in r.summary

    def test_fig9_ratios_positive(self):
        r = fig9.run(scale=0.1, datasets=("deli", "uber"))
        for row in r.rows:
            assert row["b-csf / splatt-nt"] > 0
            assert row["splatt-tiled / splatt-nt"] > 1.0

    def test_fig10_amortisation_helper(self):
        assert iterations_to_amortise(10.0, 1.0, 0.0, 2.0) == 10
        assert iterations_to_amortise(0.0, 1.0, 5.0, 2.0) == 1.0
        assert math.isinf(iterations_to_amortise(0.0, 3.0, 0.0, 2.0))

    def test_fig10_structure(self):
        r = fig10.run(scale=0.1, datasets=("nell2", "uber"))
        for row in r.rows:
            assert row["b-csf iters"] >= 1

    def test_fig11_speedup_table(self):
        r = fig11.run(scale=0.1, datasets=("nell2", "uber"))
        assert r.summary["paper_average_speedup"] == 35
        assert all(isinstance(row["speedup"], (int, float)) for row in r.rows)

    @pytest.mark.parametrize("driver, paper_average",
                             [(fig12, 9), (fig13, 17), (fig15, 4)],
                             ids=["fig12", "fig13", "fig15"])
    def test_speedup_driver_smoke(self, driver, paper_average):
        r = driver.run(scale=0.1, datasets=("nell2", "deli"))
        assert [row["tensor"] for row in r.rows] == ["nell2", "deli"]
        assert all(row["speedup"] > 0 for row in r.rows)
        assert r.summary["paper_average_speedup"] == paper_average

    def test_fig14_skips_4d(self):
        r = fig14.run(scale=0.1, datasets=("nell2", "uber"))
        by_name = {row["tensor"]: row for row in r.rows}
        assert isinstance(by_name["nell2"]["speedup"], float)
        assert "n/a" in str(by_name["uber"]["speedup"])

    def test_fig16_structure(self):
        r = fig16.run(scale=0.1, datasets=("deli", "nips"))
        by_name = {row["tensor"]: row for row in r.rows}
        for row in r.rows:
            assert row["hbcsf_words_per_nnz"] <= row["csf_words_per_nnz"] + 1e-9
        # COO stores one index word per mode per nonzero
        assert by_name["deli"]["coo_words_per_nnz"] == pytest.approx(3.0)
        assert by_name["nips"]["coo_words_per_nnz"] == pytest.approx(4.0)


class TestBenchScaleDrivers:
    """Every driver regenerates rows at dataset scale 0.5 and R = 32."""

    @pytest.mark.parametrize(
        "driver",
        [table2, table3, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig14,
         fig16],
        ids=lambda m: m.__name__.rsplit(".", 1)[-1])
    def test_rows_at_bench_scale(self, driver):
        assert driver.run(scale=0.5, rank=32).rows
