"""End-to-end integration tests across the whole stack.

For every synthetic dataset recipe: generate → build every own format →
exact MTTKRP agreement with the COO reference → GPU simulation → baselines
→ CPD-ALS.  These tests exercise the
same code paths the experiment drivers and examples use, on every dataset,
at a small scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.splatt import SplattMttkrp
from repro.core.hybrid import partition_slices
from repro.core.mttkrp import MttkrpPlan
from repro.cpd.als import cp_als
from repro.cpd.init import init_factors
from repro.formats import format_names, get_format
from repro.gpusim.api import simulate_mttkrp
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.tensor.coo import CooTensor
from repro.tensor.csf import build_csf
from repro.tensor.datasets import ALL_DATASETS, load_dataset
from repro.tensor.io import dumps_tns, loads_tns

SCALE = 0.05
RANK = 8


@pytest.fixture(scope="module", params=ALL_DATASETS)
def dataset(request):
    return request.param, load_dataset(request.param, scale=SCALE)


def csl_eligible(tensor: CooTensor) -> CooTensor:
    """The nonzeros of the mode-0 slices whose fibers are all singletons:
    the slices CSL can hold (HB-CSF's CSL and COO groups)."""
    csf = build_csf(tensor, 0)
    partition = partition_slices(csf)
    rows = csf.fids[0][partition.coo_mask | partition.csl_mask]
    keep = np.isin(tensor.indices[:, 0], rows)
    return CooTensor(tensor.indices[keep], tensor.values[keep], tensor.shape)


class TestEndToEnd:
    @pytest.mark.parametrize("fmt", format_names(kind="own", cpu=True))
    def test_formats_agree_and_simulate(self, dataset, fmt):
        name, tensor = dataset
        if get_format(fmt).requires_singleton_fibers:
            tensor = csl_eligible(tensor)
        factors = init_factors(tensor, RANK, rng=42)
        reference = coo_mttkrp(tensor, factors, 0)

        plan = MttkrpPlan(tensor, format=fmt, modes=(0,))
        got = plan.mttkrp(factors, 0)
        np.testing.assert_allclose(got, reference, rtol=1e-8, atol=1e-8)

        sim = simulate_mttkrp(plan.representation(0), 0, 32, fmt)
        assert sim.time_seconds > 0
        assert sim.flops > 0

    def test_splatt_baseline_agrees(self, dataset):
        name, tensor = dataset
        factors = init_factors(tensor, RANK, rng=7)
        splatt = SplattMttkrp(tensor, modes=(0,))
        np.testing.assert_allclose(splatt.mttkrp(factors, 0),
                                   coo_mttkrp(tensor, factors, 0),
                                   rtol=1e-8, atol=1e-8)
        assert splatt.simulate(0, RANK).time_seconds > 0

    def test_io_roundtrip(self, dataset):
        name, tensor = dataset
        assert loads_tns(dumps_tns(tensor), tensor.shape) == tensor

    def test_cpd_runs(self, dataset):
        name, tensor = dataset
        result = cp_als(tensor, rank=4, n_iters=2, tol=0.0, format="hb-csf",
                        rng=1)
        assert result.iterations == 2
        assert np.isfinite(result.final_fit)
        assert all(np.isfinite(f).all() for f in result.factors)
