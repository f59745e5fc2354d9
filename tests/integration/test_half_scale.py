"""Format builds and MTTKRP kernels on four paper datasets at scale 0.5,
R = 32: larger than the end-to-end tests' scale 0.05, so B-CSF splits and
every HB-CSF group hold real work."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bcsf import build_bcsf
from repro.core.hybrid import build_hbcsf
from repro.core.mttkrp import mttkrp
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.kernels.csf_mttkrp import csf_mttkrp, rank_major
from repro.tensor.csf import build_csf
from repro.tensor.datasets import load_dataset

from tests.conftest import make_factors

RANK = 32

KERNELS = {
    "coo": lambda t, f: coo_mttkrp(t, f, 0),
    "coo-scatter": lambda t, f: coo_mttkrp(t, f, 0, method="add_at"),
    "coo-sorted": lambda t, f: coo_mttkrp(t, f, 0, method="sort"),
    "csf": lambda t, f: csf_mttkrp(build_csf(t, 0), f),
    "b-csf": lambda t, f: build_bcsf(t, 0).mttkrp(f),
    "hb-csf": lambda t, f: build_hbcsf(t, 0).mttkrp(f),
    "dispatch": lambda t, f: mttkrp(t, f, 0, "hb-csf"),
}


@pytest.fixture(scope="module")
def datasets():
    return {name: load_dataset(name, scale=0.5)
            for name in ("deli", "darpa", "nell2", "fr_m")}


def run_kernel(kernel, tensor):
    factors = rank_major(make_factors(tensor.shape, RANK, seed=5))
    return KERNELS[kernel](tensor, factors)


class TestHalfScaleDatasets:
    def test_build_csf(self, datasets):
        assert build_csf(datasets["deli"], 0).nnz == datasets["deli"].nnz

    def test_build_bcsf(self, datasets):
        assert build_bcsf(datasets["darpa"], 0).max_nnz_per_fiber() <= 128

    def test_build_hbcsf(self, datasets):
        assert build_hbcsf(datasets["fr_m"], 0).nnz == datasets["fr_m"].nnz

    @pytest.mark.parametrize("kernel", ["coo", "coo-scatter", "coo-sorted",
                                        "csf"])
    def test_deli_kernel(self, datasets, kernel):
        out = run_kernel(kernel, datasets["deli"])
        assert out.shape[0] == datasets["deli"].shape[0]
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("kernel, dataset", [("b-csf", "darpa"),
                                                 ("hb-csf", "nell2"),
                                                 ("dispatch", "darpa")])
    def test_kernel(self, datasets, kernel, dataset):
        out = run_kernel(kernel, datasets[dataset])
        assert out.shape[0] == datasets[dataset].shape[0]
        assert np.isfinite(out).all()
