"""Shared fixtures: small deterministic tensors and factor matrices."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.tensor.coo import CooTensor
from repro.tensor.random_gen import random_coo, power_law_tensor, PowerLawSpec
from repro.util.prng import default_rng

# Hypothesis profiles, picked by HYPOTHESIS_PROFILE.  "default" keeps
# hypothesis's own example count; "ci-long" is the long schedule CI runs
# with a pinned --hypothesis-seed.  A test's own @settings still wins.
settings.register_profile("default", max_examples=100)
settings.register_profile("ci-long", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> np.random.Generator:
    return default_rng(1234)


@pytest.fixture
def small3d(rng) -> CooTensor:
    """A small random 3-order tensor with duplicates merged."""
    return random_coo((7, 9, 11), 120, rng)


@pytest.fixture
def small4d(rng) -> CooTensor:
    """A small random 4-order tensor."""
    return random_coo((5, 6, 7, 4), 150, rng)


@pytest.fixture
def skewed3d() -> CooTensor:
    """A tensor with one very heavy slice and one very heavy fiber."""
    spec = PowerLawSpec(
        shape=(40, 50, 60),
        nnz=2_000,
        fiber_alpha=1.4,
        max_fiber_nnz=50,
        slice_alpha=1.2,
        num_heavy_slices=2,
        heavy_slice_fraction=0.4,
        seed=7,
    )
    return power_law_tensor(spec)


def make_factors(shape, rank, seed=0):
    rng = default_rng(seed)
    return [rng.standard_normal((s, rank)) for s in shape]


@pytest.fixture
def factors3d(small3d):
    return make_factors(small3d.shape, 8, seed=11)


@pytest.fixture
def factors4d(small4d):
    return make_factors(small4d.shape, 6, seed=12)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos_sensitive: asserts exact cache accounting (hit/miss counts, "
        "entry presence) that an ambient fault schedule intentionally "
        "violates; skipped when REPRO_FAULTS is active")


def pytest_collection_modifyitems(config, items):
    from repro.faults import active_plan

    if active_plan() is None:
        return
    skip = pytest.mark.skip(
        reason="exact cache accounting is undefined under the ambient "
               "REPRO_FAULTS schedule")
    for item in items:
        if item.get_closest_marker("chaos_sensitive"):
            item.add_marker(skip)
