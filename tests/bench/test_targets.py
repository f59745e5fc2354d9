"""Target-registry tests: deterministic listing, expansion, execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.targets import (
    DEFAULT_MATRIX_GROUP,
    bench_factors,
    expand_targets,
    get_target,
    register_target,
    target_groups,
    target_names,
)
from repro.scenarios.cache import materialize
from repro.tensor.datasets import load_dataset
from repro.util.errors import ValidationError

TINY = {"generator": "uniform", "shape": [12, 10, 14], "nnz": 300, "seed": 9}

#: the four MTTKRP kernel formats of the paper.
FOUR_KERNELS = ["kernel.b-csf", "kernel.coo", "kernel.csf", "kernel.hb-csf"]


class TestListing:
    def test_listing_is_sorted_and_stable(self):
        names = target_names()
        assert names == sorted(names)
        assert names == target_names()  # deterministic across calls

    def test_groups(self):
        assert set(target_groups()) == {"kernel", "kernel.par", "kernel.ooc",
                                        "build", "build.ooc", "sim", "cpd"}
        assert DEFAULT_MATRIX_GROUP in target_groups()

    def test_four_mttkrp_kernels_registered(self):
        for name in FOUR_KERNELS:
            assert name in target_names("kernel")

    def test_registry_formats_generate_targets(self):
        """Targets are generated from repro.formats — every own format with
        a CPU kernel gets a kernel.* entry, every own format a build.*."""
        from repro.formats import format_names

        kernels = target_names("kernel")
        builds = target_names("build")
        for fmt in format_names(kind="own", cpu=True):
            assert f"kernel.{fmt}" in kernels, fmt
        for fmt in format_names(kind="own"):
            assert f"build.{fmt}" in builds, fmt
        assert "kernel.csl" in kernels
        assert "kernel.plan_reuse" in kernels

    def test_sim_targets_follow_registry(self):
        from repro.formats import format_names, get_format

        expected = sorted(
            f"sim.{fmt}" for fmt in format_names(gpusim=True)
            if get_format(fmt).sim_in_bench)
        assert target_names("sim") == expected

    def test_unknown_target(self):
        with pytest.raises(ValidationError):
            get_target("kernel.nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError):
            register_target("kernel.coo", group="kernel",
                            description="dup")(lambda t, r: lambda: None)


class TestExpansion:
    def test_exact_name(self):
        assert expand_targets(["kernel.coo"]) == ["kernel.coo"]

    def test_group_name(self):
        assert expand_targets(["build"]) == target_names("build")

    def test_glob(self):
        assert expand_targets(["kernel.coo*"]) == [
            "kernel.coo", "kernel.coo-scatter", "kernel.coo-sorted"]

    def test_group_equals_glob(self):
        assert expand_targets(["sim"]) == expand_targets(["sim.*"])

    def test_dedup_and_sort(self):
        got = expand_targets(["kernel.csf", "kernel.coo", "kernel.csf"])
        assert got == ["kernel.coo", "kernel.csf"]

    def test_unknown_pattern(self):
        with pytest.raises(ValidationError):
            expand_targets(["nope.*"])


class TestExecution:
    @pytest.fixture(scope="class")
    def tiny(self):
        return materialize(TINY)

    def test_kernel_targets_agree(self, tiny):
        outs = {}
        for name in FOUR_KERNELS:
            fn = get_target(name).setup(tiny, 6)
            outs[name] = fn()
        base = outs["kernel.coo"]
        for name, out in outs.items():
            np.testing.assert_allclose(out, base, rtol=1e-9, atol=1e-9,
                                       err_msg=name)

    def test_build_target_runs(self, tiny):
        csf = get_target("build.csf").setup(tiny, 6)()
        assert csf.nnz == tiny.nnz

    def test_sim_target_probe(self, tiny):
        target = get_target("sim.hb-csf")
        result = target.setup(tiny, 6)()
        assert result.time_seconds > 0
        metrics = target.probe(result)
        assert metrics["simulated_seconds"] == pytest.approx(
            result.time_seconds)
        assert "simulated_gflops" in metrics

    def test_cpd_target_deterministic_across_laps(self, tiny):
        fn = get_target("cpd.als").setup(tiny, 4)
        a, b = fn(), fn()
        np.testing.assert_array_equal(a.factors[0], b.factors[0])

    def test_dispatch_target_matches_kernels(self, tiny):
        got = get_target("kernel.dispatch").setup(tiny, 6)()
        want = get_target("kernel.coo").setup(tiny, 6)()
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_csl_kernel_target_runs_on_eligible_subset(self, tiny):
        """kernel.csl measures the CSL kernel over the CSL-eligible slices
        (the same ones HB-CSF routes to CSL), so it runs on any tensor."""
        out = get_target("kernel.csl").setup(tiny, 6)()
        assert out.shape == (tiny.shape[0], 6)
        assert np.all(np.isfinite(out))
        built = get_target("build.csl").setup(tiny, 6)()
        assert built.nnz <= tiny.nnz

    def test_plan_reuse_amortises_on_second_invocation(self, tiny):
        from repro.parallel import resolve_backend, resolve_workers

        target = get_target("kernel.plan_reuse")
        fn = target.setup(tiny, 6)
        first = fn()
        # on the threaded backend each mode's first execution also misses
        # (then populates) the content-addressed shard-plan cache entry
        threaded = (resolve_backend(None) == "threads"
                    and resolve_workers(None) > 1)
        expected = tiny.order * (2 if threaded else 1)
        assert first["plan_cache_misses"] == expected
        assert first["preprocessing_seconds"] > 0.0
        second = fn()
        assert second["plan_cache_misses"] == 0
        assert second["plan_cache_hits"] == tiny.order
        # the recorded (amortised) build cost stays the honest original
        assert second["preprocessing_seconds"] == pytest.approx(
            first["preprocessing_seconds"])
        assert target.probe(second) == second

    def test_factors_deterministic(self):
        a = bench_factors((5, 6, 7), 4)
        b = bench_factors((5, 6, 7), 4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestBenchScaleTargets:
    """Build and kernel targets on the paper datasets at scale 0.5, R = 32."""

    @pytest.fixture(scope="class")
    def datasets(self):
        return {name: load_dataset(name, scale=0.5)
                for name in ("deli", "darpa", "nell2", "fr_m")}

    def run(self, target, tensor):
        return get_target(target).setup(tensor, 32)()

    def test_build_csf(self, datasets):
        assert self.run("build.csf", datasets["deli"]).nnz == datasets["deli"].nnz

    def test_build_bcsf(self, datasets):
        bcsf = self.run("build.b-csf", datasets["darpa"])
        assert bcsf.max_nnz_per_fiber() <= 128

    def test_build_hbcsf(self, datasets):
        assert self.run("build.hb-csf", datasets["fr_m"]).nnz == datasets["fr_m"].nnz

    @pytest.mark.parametrize("target", ["kernel.coo", "kernel.coo-scatter",
                                        "kernel.coo-sorted", "kernel.csf"])
    def test_deli_kernel(self, datasets, target):
        out = self.run(target, datasets["deli"])
        assert out.shape[0] == datasets["deli"].shape[0]
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("target, dataset",
                             [("kernel.b-csf", "darpa"),
                              ("kernel.hb-csf", "nell2"),
                              ("kernel.dispatch", "darpa")])
    def test_kernel(self, datasets, target, dataset):
        out = self.run(target, datasets[dataset])
        assert out.shape[0] == datasets[dataset].shape[0]
        assert np.isfinite(out).all()
