"""Golden bits: every MTTKRP output pinned to a recorded sha256 digest.

The other bit-identity tests compare a kernel with itself (slabs against
one pass, threads against serial), so a change of summation order inside
the kernels passes them all.  This one does not: ``golden_mttkrp.json``
holds the digest of every output over formats x modes x float32/float64 x
serial/2-thread backends x slab budgets (default, 7 nonzeros, single rank
row) on three seeded tensors (order 3 with fibers longer than the 128-nonzero
split threshold, order 4, and a small order 3 below ``SORT_MIN_NNZ``), plus
the CSL-only format on an all-singleton-fiber tensor.

Re-record only when a change of floating-point results is intended::

    PYTHONPATH=src python tests/kernels/test_golden_mttkrp.py --record
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.formats import build_plan
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.tensor.coo import CooTensor
from repro.tensor.random_gen import random_coo
from repro.util.prng import default_rng

# the package re-exports the kernel function under the module's name
csf_kernels = importlib.import_module("repro.kernels.csf_mttkrp")

GOLDEN = Path(__file__).with_name("golden_mttkrp.json")
RANK = 6
DTYPES = ("float32", "float64")
BACKENDS = ("serial", "threads")
#: ``DEFAULT_SLAB_ELEMS`` budgets: the default, 7 nonzeros at full rank, and
#: one element, under which every kernel pass is a single rank row.
SLABS = {"default": None, "7": 7 * RANK, "row": 1}
#: formats run through ``repro.mttkrp``; ``coo-<method>`` calls the serial
#: COO kernel with one accumulator pinned (threads always replay ``"auto"``).
FORMATS = ("coo", "coo-add_at", "coo-sort", "csf", "b-csf", "hb-csf",
           "splatt", "splatt-tiled", "hicoo", "parti", "f-coo")


def long_fiber_tensor() -> CooTensor:
    """Order 3 with planted dense fibers longer than 128 nonzeros along
    mode 2 (the CSF leaf for roots 0 and 1) and mode 1 (the leaf for root
    2), over a uniform background."""
    rng = default_rng(2024)
    shape = (40, 150, 200)
    base = random_coo(shape, 3000, rng)
    k, j = np.arange(shape[2]), np.arange(shape[1])
    planted = [np.stack([np.full(k.size, a), np.full(k.size, b), k], axis=1)
               for a, b in [(0, 0), (0, 1), (3, 7)]]
    planted += [np.stack([np.full(j.size, a), j, np.full(j.size, c)], axis=1)
                for a, c in [(5, 9), (6, 11)]]
    extra = np.concatenate(planted)
    idx = np.concatenate([base.indices, extra])
    vals = np.concatenate([base.values, rng.uniform(-1, 1, extra.shape[0])])
    return CooTensor(idx, vals, shape, sum_duplicates=True)


def order4_tensor() -> CooTensor:
    return random_coo((12, 10, 9, 8), 2500, default_rng(4))


def small_tensor() -> CooTensor:
    """Order 3 below ``SORT_MIN_NNZ``, so COO's ``"auto"`` takes the
    ``add_at`` scatter path on both backends."""
    return random_coo((30, 40, 50), 1500, default_rng(15))


def singleton_fiber_tensor() -> CooTensor:
    """Order 3, CSL-eligible for every root mode, with ~14 nonzeros per
    slice: ``k = (i + 3 j) mod 31``, so any two coordinates fix the third
    and every fiber holds one nonzero."""
    rng = default_rng(7)
    p = 31
    pairs = rng.choice(p * p, size=450, replace=False)
    i, j = pairs // p, pairs % p
    idx = np.stack([i, j, (i + 3 * j) % p], axis=1)
    return CooTensor(idx, rng.standard_normal(len(pairs)), (p, p, p))


TENSORS = {
    "order3-long": (long_fiber_tensor, FORMATS),
    "order4": (order4_tensor,
               tuple(f for f in FORMATS if f not in ("parti", "f-coo"))),
    "order3-small": (small_tensor, ("coo", "csf", "b-csf", "hb-csf")),
    "order3-singleton": (singleton_fiber_tensor, ("csl",)),
}


def factors_for(shape) -> list[np.ndarray]:
    rng = default_rng(11)
    return [rng.standard_normal((s, RANK)) for s in shape]


def digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def backends_for(fmt: str) -> tuple[str, ...]:
    return ("serial",) if fmt.startswith("coo-") else BACKENDS


def run_case(tensor, factors, fmt, mode, dtype, backend) -> np.ndarray:
    if not fmt.startswith("coo-"):
        return repro.mttkrp(tensor, factors, mode, format=fmt, dtype=dtype,
                            backend=backend, num_workers=2)
    method = fmt.split("-", 1)[1]
    rep = build_plan(tensor, "coo", mode).rep
    return coo_mttkrp(rep, factors, mode, method=method, dtype=dtype)


def digests_for(name: str, fmt: str) -> dict[str, str]:
    """``{"<tensor>/<format>/m<mode>/<dtype>/<backend>/slab-<s>": sha256}``."""
    make, _ = TENSORS[name]
    tensor = make()
    factors = factors_for(tensor.shape)
    out = {}
    default_elems = csf_kernels.DEFAULT_SLAB_ELEMS
    try:
        for slab in SLABS:
            csf_kernels.DEFAULT_SLAB_ELEMS = SLABS[slab] or default_elems
            for mode in range(tensor.order):
                for dtype in DTYPES:
                    for backend in backends_for(fmt):
                        key = f"{name}/{fmt}/m{mode}/{dtype}/{backend}/slab-{slab}"
                        out[key] = digest(run_case(tensor, factors, fmt, mode,
                                                   dtype, backend))
    finally:
        csf_kernels.DEFAULT_SLAB_ELEMS = default_elems
    return out


CASES = [(name, fmt) for name, (_, fmts) in TENSORS.items() for fmt in fmts]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_outputs_match_golden_digests(golden, name, fmt):
    got = digests_for(name, fmt)
    want = {k: v for k, v in golden.items()
            if k.startswith(f"{name}/{fmt}/")}
    assert set(got) == set(want), "case list drifted from the fixture"
    changed = sorted(k for k in got if got[k] != want[k])
    assert not changed, f"{len(changed)} outputs changed bits: {changed[:5]}"


def test_fixture_covers_every_case(golden):
    expected = sum(
        make().order * len(SLABS) * len(DTYPES) * len(backends_for(fmt))
        for name, (make, fmts) in TENSORS.items() for fmt in fmts)
    assert len(golden) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record = {}
    for name, fmt in CASES:
        record.update(digests_for(name, fmt))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} digests to {GOLDEN}")
