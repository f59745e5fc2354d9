"""Units longer than one pass: exact bits and a bounded scratch.

A CSL slice and a COO ``"sort"`` run are indivisible: each is reduced by
one ``np.add.reduceat`` call, however many nonzeros it holds.  Here one
slice (and one run) holds more than ``DEFAULT_SLAB_ELEMS // R`` nonzeros,
so its full-rank products do not fit the pass budget.  The outputs must
keep the digests recorded before the kernels moved to row-major passes,
on both backends and in float32 and float64, and the kernel's traced
allocations must stay within two budget-sized arrays plus the factor row
tables and index copies it makes.

Re-record only when a change of floating-point results is intended::

    PYTHONPATH=src python tests/kernels/test_long_units.py --record
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core.hybrid import build_hbcsf
from repro.kernels.coo_mttkrp import auto_method, coo_mttkrp
from repro.tensor.coo import CooTensor
from repro.util.prng import default_rng

# the package re-exports the kernel function under the module's name
kern = importlib.import_module("repro.kernels.csf_mttkrp")

RANK = 32
LONG_NNZ = 200_000
DTYPES = ("float32", "float64")
BACKENDS = ("serial", "threads")

#: sha256 of every output, recorded on the rank-major kernels.  Both
#: formats reduce slice 0 in the same sorted order, so CSL and COO agree.
DIGESTS = {
    "csl/float32/serial":
        "825250278a4b8d1884a34c266469ba7e1156272df1af8b05936611bc89da454b",
    "csl/float32/threads":
        "825250278a4b8d1884a34c266469ba7e1156272df1af8b05936611bc89da454b",
    "csl/float64/serial":
        "5915ef62e9d974504797db069726a11fabd2d9c190a8f7299b27d77d815cdd6b",
    "csl/float64/threads":
        "5915ef62e9d974504797db069726a11fabd2d9c190a8f7299b27d77d815cdd6b",
    "coo/float32/serial":
        "825250278a4b8d1884a34c266469ba7e1156272df1af8b05936611bc89da454b",
    "coo/float32/threads":
        "825250278a4b8d1884a34c266469ba7e1156272df1af8b05936611bc89da454b",
    "coo/float64/serial":
        "5915ef62e9d974504797db069726a11fabd2d9c190a8f7299b27d77d815cdd6b",
    "coo/float64/threads":
        "5915ef62e9d974504797db069726a11fabd2d9c190a8f7299b27d77d815cdd6b",
}


def long_unit_tensor() -> CooTensor:
    """Order 4, shape ``(3, 500, 500, 40)``.  Slice 0 holds ``LONG_NNZ``
    nonzeros on distinct ``(j, k)`` fibers, so it is one CSL slice and,
    for mode 0, one COO run; slice 1 holds one nonzero (the COO group) and
    slice 2 a few singleton fibers (a short CSL slice)."""
    rng = default_rng(41)
    pairs = rng.choice(500 * 500, size=LONG_NNZ, replace=False)
    long = np.stack([np.zeros(LONG_NNZ, dtype=np.int64), pairs // 500,
                     pairs % 500, rng.integers(0, 40, LONG_NNZ)], axis=1)
    short = np.array([[1, 7, 9, 3],
                      [2, 0, 1, 5], [2, 4, 2, 6], [2, 9, 3, 7]])
    idx = np.concatenate([long, short])
    vals = rng.standard_normal(idx.shape[0]) * 10.0 ** rng.uniform(
        -3, 3, idx.shape[0])
    return CooTensor(idx, vals, (3, 500, 500, 40))


@pytest.fixture(scope="module")
def tensor() -> CooTensor:
    t = long_unit_tensor()
    assert LONG_NNZ > kern.DEFAULT_SLAB_ELEMS // RANK
    return t


def factors_for(shape) -> list[np.ndarray]:
    rng = default_rng(43)
    return [np.asfortranarray(rng.standard_normal((s, RANK))) for s in shape]


def digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_case(tensor, kind, dtype, backend) -> np.ndarray:
    # COO's "auto" accumulator is "sort" at this nnz on both backends
    assert auto_method(tensor.nnz) == "sort"
    return repro.mttkrp(tensor, factors_for(tensor.shape), 0,
                        format="hb-csf" if kind == "csl" else "coo",
                        dtype=dtype, backend=backend, num_workers=2)


CASES = [(k, d, b) for k in ("csl", "coo") for d in DTYPES for b in BACKENDS]


@pytest.mark.parametrize("kind,dtype,backend", CASES,
                         ids=["-".join(c) for c in CASES])
def test_long_unit_keeps_its_bits(tensor, kind, dtype, backend):
    got = digest(run_case(tensor, kind, dtype, backend))
    assert got == DIGESTS[f"{kind}/{dtype}/{backend}"]


@pytest.mark.parametrize("kind", ["csl", "coo"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_long_unit_scratch_within_budget(tensor, kind, dtype):
    """The traced peak of one serial kernel call.  A single full-rank pass
    over the long unit would hold two ``(LONG_NNZ, R)`` arrays, ~1.5x the
    limit."""
    factors = [f.astype(dtype) for f in factors_for(tensor.shape)]
    out = np.zeros((tensor.shape[0], RANK), dtype=dtype, order="F")
    if kind == "csl":
        group = build_hbcsf(tensor, 0).csl_group
        call = lambda: group.mttkrp(factors, out, validate=False)  # noqa: E731
    else:
        call = lambda: coo_mttkrp(tensor, factors, 0, out=out,  # noqa: E731
                                  method="sort")
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    itemsize = np.dtype(dtype).itemsize
    tables = sum(f.nbytes for f in factors[1:])
    copies = 2 * (tensor.indices.nbytes + tensor.values.nbytes)
    limit = 2 * kern.DEFAULT_SLAB_ELEMS * itemsize + tables + copies
    assert peak <= limit, (
        f"{kind}/{dtype}: {peak / 2**20:.1f} MB > {limit / 2**20:.1f} MB")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    t = long_unit_tensor()
    for case in CASES:
        print(f'    "{"/".join(case)}": "{digest(run_case(t, *case))}",')
