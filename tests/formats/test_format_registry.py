"""Registry tests: lookup, aliases, the shared normaliser, registration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mttkrp import FORMATS, mttkrp
from repro.formats import (
    DEFAULT_FORMAT,
    FormatSpec,
    canonical_format,
    format_names,
    get_format,
    register_format,
    unregister_format,
)
from repro.tensor.dense import einsum_mttkrp
from repro.util.errors import ValidationError
from tests.conftest import make_factors


class TestLookup:
    def test_paper_formats_registered_in_order(self):
        assert format_names(kind="own") == ("coo", "csf", "b-csf", "hb-csf",
                                            "csl")

    def test_baselines_registered(self):
        assert format_names(kind="baseline") == (
            "splatt", "splatt-tiled", "hicoo", "parti", "f-coo")

    def test_default_format_exists(self):
        assert canonical_format(DEFAULT_FORMAT) == "hb-csf"

    def test_every_format_has_cpu_kernel_and_builder(self):
        for name in format_names():
            spec = get_format(name)
            assert spec.builder is not None, name
            assert spec.runs_on_cpu, name

    def test_legacy_formats_tuple_is_registry_view(self):
        # backwards-compatible FORMATS: the unrestricted own formats
        assert FORMATS == ("coo", "csf", "b-csf", "hb-csf")
        assert FORMATS == format_names(kind="own", cpu=True, universal=True)

    def test_unknown_format(self):
        with pytest.raises(ValidationError, match="unknown format"):
            get_format("csr")

    def test_non_string_rejected(self):
        with pytest.raises(ValidationError):
            canonical_format(3)

    def test_invalid_kind_filter_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            format_names(kind="baselines")  # plural typo must not return ()


class TestNormaliser:
    @pytest.mark.parametrize("spelling,expected", [
        ("HB_CSF", "hb-csf"),
        ("hybrid", "hb-csf"),
        ("  bcsf ", "b-csf"),
        ("balanced csf", "b-csf"),
        ("CS-L", "csl"),
        ("cs_l", "csl"),
        ("csl", "csl"),
        ("gpu-csf", "csf"),
        ("splatt-nontiled", "splatt"),
        ("parti-gpu", "parti"),
        ("fcoo-gpu", "f-coo"),
        ("FCOO", "f-coo"),
        ("hicoo-cpu", "hicoo"),
    ])
    def test_aliases_fold_to_canonical(self, spelling, expected):
        assert canonical_format(spelling) == expected

    def test_alias_and_name_reach_same_spec(self):
        assert get_format("hybrid") is get_format("hb-csf")


class TestCapabilityFlags:
    def test_split_config_flags(self):
        assert get_format("b-csf").needs_split_config
        assert get_format("hb-csf").needs_split_config
        assert not get_format("csf").needs_split_config

    def test_csl_restriction_flag(self):
        spec = get_format("csl")
        assert spec.requires_singleton_fibers
        assert not spec.universal

    def test_order3_baselines(self):
        assert get_format("parti").cpu_supported_orders == (3,)
        assert get_format("f-coo").cpu_supported_orders == (3,)
        assert get_format("splatt").cpu_supported_orders is None

    def test_allmode_baselines_build_once(self):
        for name in format_names(kind="baseline"):
            assert not get_format(name).per_mode_build, name
        for name in format_names(kind="own"):
            assert get_format(name).per_mode_build, name


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_format(FormatSpec(name="coo", kind="own",
                                       description="dup"))

    def test_alias_collision_rejected(self):
        with pytest.raises(ValidationError):
            register_format(FormatSpec(name="my-fmt", kind="own",
                                       description="x", aliases=("hybrid",)))
        with pytest.raises(ValidationError):
            canonical_format("my-fmt")  # nothing was registered

    def test_unnormalised_name_rejected(self):
        with pytest.raises(ValidationError, match="not normalised"):
            register_format(FormatSpec(name="My_Fmt", kind="own",
                                       description="x"))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            FormatSpec(name="x", kind="other", description="x")

    def test_one_registration_makes_format_dispatchable(self, small3d):
        """The PR's promise: a new format is one registration away from the
        public mttkrp() API, with aliases and cache handling for free."""
        def builder(tensor, mode, config):
            order = [mode] + [m for m in range(tensor.order) if m != mode]
            return tensor.sorted_by_modes(tuple(order))

        def kernel(rep, factors, mode, out):
            from repro.kernels.coo_mttkrp import coo_mttkrp

            return coo_mttkrp(rep, factors, mode, out=out)

        register_format(FormatSpec(
            name="toy-coo", kind="own", description="test-only format",
            aliases=("toycoo",), builder=builder, cpu_kernel=kernel))
        try:
            factors = make_factors(small3d.shape, 5, seed=11)
            got = mttkrp(small3d, factors, 0, format="ToY_CoO")
            want = einsum_mttkrp(small3d, factors, 0)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
            assert "toy-coo" in format_names(kind="own", cpu=True)
        finally:
            unregister_format("toy-coo")
        with pytest.raises(ValidationError):
            canonical_format("toycoo")

    def test_unregister_unknown(self):
        with pytest.raises(ValidationError):
            unregister_format("never-was")

    def test_overwrite_invalidates_cached_plans(self, small3d):
        """Re-registering a format must not serve representations built by
        the replaced builder."""
        from repro.formats import build_plan

        def make_spec(tag):
            return FormatSpec(
                name="toy-tagged", kind="own", description="test-only",
                builder=lambda tensor, mode, config: (tag, tensor),
                cpu_kernel=lambda rep, factors, mode, out: None)

        register_format(make_spec("old"))
        try:
            assert build_plan(small3d, "toy-tagged", 0).rep[0] == "old"
            register_format(make_spec("new"), overwrite=True)
            fresh = build_plan(small3d, "toy-tagged", 0)
            assert not fresh.cache_hit
            assert fresh.rep[0] == "new"
        finally:
            unregister_format("toy-tagged")

    def test_overwrite_purges_dropped_aliases(self):
        register_format(FormatSpec(name="toy-aliased", kind="own",
                                   description="x", aliases=("toy-y",)))
        try:
            register_format(FormatSpec(name="toy-aliased", kind="own",
                                       description="x", aliases=()),
                            overwrite=True)
            with pytest.raises(ValidationError):
                canonical_format("toy-y")
        finally:
            unregister_format("toy-aliased")

    def test_unregister_drops_cached_plans(self, small3d):
        from repro.formats import build_plan, plan_cache_stats

        register_format(FormatSpec(
            name="toy-cached", kind="own", description="test-only",
            builder=lambda tensor, mode, config: tensor,
            cpu_kernel=lambda rep, factors, mode, out: None))
        build_plan(small3d, "toy-cached", 0)
        before = plan_cache_stats()["entries"]
        unregister_format("toy-cached")
        assert plan_cache_stats()["entries"] == before - 1
