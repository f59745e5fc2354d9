"""Memory guard: the CSF-family builds stay a small multiple of their input.

``build_hbcsf`` scans the sorted nonzeros once and routes them straight
into its three groups, so it never holds the full CSF tree or a re-sorted
copy of the B-CSF remainder.  The guard measures the tracemalloc peak of
an in-memory build as a multiple of the input's index + value bytes, at
2x10^5 nonzeros on the three benchmark workload shapes (a B-CSF-heavy
power law, a CSL/B-CSF community mix, a hypersparse CSL/COO tensor).

Measured on numpy 2.4 (peak / input bytes, per shape):

* ``build_hbcsf``: 1.86 / 2.13 / 2.96 (routing 2^14-row blocks, CSL
  slices in length order); a construction that builds the full CSF and
  carves groups out of it peaks at 3.80 / 4.21 / 4.69.
* ``build_csf``: 2.25 / 2.43 / 2.74; the deduplicate + sort it starts with
  alone reaches 2.25.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.hybrid import build_hbcsf
from repro.scenarios import materialize
from repro.tensor.csf import build_csf

SHAPES = {
    "power-law": {"generator": "power_law", "shape": [8944, 3578, 13416],
                  "nnz": 200_000, "seed": 2003,
                  "params": {"fiber_alpha": 1.9, "max_fiber_nnz": 500,
                             "slice_alpha": 0.7, "num_heavy_slices": 3,
                             "heavy_slice_fraction": 0.45}},
    "community": {"generator": "block_community",
                  "shape": [17889, 13416, 22361], "nnz": 200_000,
                  "seed": 9000,
                  "params": {"num_blocks": 12, "within_fraction": 0.8,
                             "block_alpha": 1.2}},
    "hypersparse": {"generator": "uniform", "shape": [89443, 67082, 111803],
                    "nnz": 200_000, "seed": 0},
}

#: bounds on peak / input bytes, with headroom over the figures above
HBCSF_BOUND = 3.4
CSF_BOUND = 3.0


@pytest.fixture(scope="module", params=sorted(SHAPES))
def tensor(request):
    return materialize(SHAPES[request.param])


def peak_multiple(build, tensor) -> float:
    tracemalloc.start()
    try:
        build(tensor, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (tensor.indices.nbytes + tensor.values.nbytes)


def test_hbcsf_build_never_holds_the_full_csf(tensor):
    assert peak_multiple(build_hbcsf, tensor) < HBCSF_BOUND


def test_csf_build_peak(tensor):
    assert peak_multiple(build_csf, tensor) < CSF_BOUND
