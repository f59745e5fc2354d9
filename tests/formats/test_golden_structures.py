"""Golden structures: every CSF-family array pinned to a recorded digest.

The chunk-invariance tests compare the CSF-family builders with themselves
(one chunk against many), so a change that alters a representation the
same way on both paths passes them all.  This one does not:
``golden_structures.json`` holds the sha256 (dtype and shape included) of
every array of the csf, b-csf, hb-csf (each group plus the partition
masks) and csl representations, for every root mode of each fixture below.
Every digest must be reproduced by the in-memory build and by builds
streamed from shard manifests of several shard sizes.

Re-record only when a change of representation is intended::

    PYTHONPATH=src python tests/formats/test_golden_structures.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.bcsf import build_bcsf
from repro.core.csl import build_csl_group
from repro.core.hybrid import build_hbcsf, partition_slices
from repro.tensor.coo import CooTensor, INDEX_DTYPE, VALUE_DTYPE
from repro.tensor.csf import build_csf
from repro.tensor.random_gen import random_coo
from repro.tensor.shards import save_sharded
from repro.util import safe_io
from repro.util.errors import ValidationError
from repro.util.prng import default_rng

GOLDEN = Path(__file__).with_name("golden_structures.json")
SHARD_NNZ = (1, 7, 53)


def duplicates() -> CooTensor:
    """Order 3 with most coordinates drawn more than once, left unsummed."""
    rng = default_rng(23)
    shape, nnz = (5, 4, 6), 90
    idx = np.stack([rng.integers(0, s, size=nnz) for s in shape], axis=1)
    return CooTensor(idx.astype(INDEX_DTYPE),
                     rng.standard_normal(nnz).astype(VALUE_DTYPE), shape)


def mixed_groups() -> CooTensor:
    """Order 3 with all three HB-CSF groups for every root mode: 1-nnz
    slices, all-singleton-fiber slices, and slices with a fiber longer
    than the 128-nonzero split threshold."""
    rng = default_rng(5)
    shape = (30, 40, 200)
    long_fiber = np.stack([np.full(130, 2), np.full(130, 3),
                           np.arange(130)], axis=1)
    singletons = np.stack([np.full(8, 7), np.arange(8),
                           rng.integers(0, shape[2], 8)], axis=1)
    scattered = np.stack([np.arange(10, 18), rng.integers(0, shape[1], 8),
                          rng.integers(0, shape[2], 8)], axis=1)
    idx = np.concatenate([long_fiber, singletons, scattered])
    return CooTensor(idx, rng.standard_normal(idx.shape[0]), shape,
                     sum_duplicates=True)


def csl_eligible() -> CooTensor:
    """Order 3, CSL-eligible for every root mode: ``k = (i + 3 j) mod 17``,
    so any two coordinates fix the third and every fiber holds one
    nonzero, with ~2-3 nonzeros per slice."""
    rng = default_rng(7)
    p = 17
    pairs = rng.choice(p * p, size=40, replace=False)
    i, j = pairs // p, pairs % p
    idx = np.stack([i, j, (i + 3 * j) % p], axis=1)
    return CooTensor(idx, rng.standard_normal(len(pairs)), (p, p, p))


FIXTURES = {
    "order2": lambda: random_coo((23, 31), 40, default_rng(1)),
    "order3": lambda: random_coo((19, 14, 23), 60, default_rng(21)),
    "order4": lambda: random_coo((9, 8, 11, 7), 50, default_rng(22)),
    "order5": lambda: random_coo((5, 6, 4, 7, 5), 40, default_rng(3)),
    "duplicates": duplicates,
    "empty": lambda: CooTensor.empty((4, 5, 6)),
    "one-nnz": lambda: CooTensor([[2, 0, 3]], [1.5], (4, 5, 6)),
    "size1-mode": lambda: random_coo((12, 1, 15), 30, default_rng(9)),
    "mixed-groups": mixed_groups,
    "csl-eligible": csl_eligible,
}


def digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def csf_arrays(csf) -> dict[str, np.ndarray]:
    out = {f"fptr{l}": p for l, p in enumerate(csf.fptr)}
    out.update({f"fids{l}": f for l, f in enumerate(csf.fids)})
    out["values"] = csf.values
    out["mode_order"] = np.asarray(csf.mode_order)
    return out


def bcsf_arrays(rep) -> dict[str, np.ndarray]:
    out = csf_arrays(rep.csf)
    out["segment_of_fiber"] = rep.segment_of_fiber
    out["blocks_per_slice"] = rep.blocks_per_slice
    out["original_num_fibers"] = np.asarray(rep.original_num_fibers)
    return out


def csl_arrays(group) -> dict[str, np.ndarray]:
    return {"slice_ptr": group.slice_ptr, "slice_inds": group.slice_inds,
            "rest_indices": group.rest_indices, "values": group.values,
            "mode_order": np.asarray(group.mode_order)}


def partition_arrays(partition) -> dict[str, np.ndarray]:
    return {"coo_mask": partition.coo_mask, "csl_mask": partition.csl_mask,
            "csf_mask": partition.csf_mask}


def hbcsf_arrays(rep) -> dict[str, np.ndarray]:
    out = partition_arrays(rep.partition)
    out["coo.indices"] = rep.coo_group.indices
    out["coo.values"] = rep.coo_group.values
    out.update({f"csl.{k}": v for k, v in csl_arrays(rep.csl_group).items()})
    if rep.bcsf_group is None:
        out["bcsf"] = np.asarray("none")
    else:
        out.update({f"bcsf.{k}": v
                    for k, v in bcsf_arrays(rep.bcsf_group).items()})
    return out


def csl_or_ineligible(csf) -> dict[str, np.ndarray]:
    try:
        return csl_arrays(build_csl_group(csf))
    except ValidationError:
        return {"ineligible": np.asarray("ineligible")}


def structures(tensor, mode: int) -> dict[str, dict[str, np.ndarray]]:
    """``{format: {array name: array}}`` for one root mode of ``tensor``
    (a :class:`CooTensor` or a sharded one)."""
    csf = build_csf(tensor, mode)
    return {
        "csf": csf_arrays(csf),
        "b-csf": bcsf_arrays(build_bcsf(tensor, mode)),
        "hb-csf": hbcsf_arrays(build_hbcsf(tensor, mode)),
        "csl": csl_or_ineligible(csf),
    }


def digests_of(name: str, tensor) -> dict[str, str]:
    """``{"<fixture>/<format>/m<mode>/<array>": sha256}``."""
    out = {}
    for mode in range(tensor.order):
        for fmt, arrays in structures(tensor, mode).items():
            for array, value in arrays.items():
                out[f"{name}/{fmt}/m{mode}/{array}"] = digest(value)
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def assert_matches(got: dict[str, str], golden: dict[str, str],
                   name: str) -> None:
    want = {k: v for k, v in golden.items() if k.startswith(f"{name}/")}
    assert set(got) == set(want), "array list drifted from the fixture"
    changed = sorted(k for k in got if got[k] != want[k])
    assert not changed, f"{len(changed)} arrays changed bits: {changed[:5]}"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_in_memory_builds_match_golden(golden, name):
    assert_matches(digests_of(name, FIXTURES[name]()), golden, name)


@pytest.mark.parametrize("shard_nnz", SHARD_NNZ)
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sharded_builds_match_golden(golden, tmp_path, monkeypatch, name,
                                     shard_nnz):
    # durability is not under test here, and one fsync per 1-nonzero
    # shard file dominates the run time
    monkeypatch.setattr(safe_io, "_fsync_path", lambda path: None)
    sharded = save_sharded(FIXTURES[name](), tmp_path / name,
                           shard_nnz=shard_nnz)
    assert_matches(digests_of(name, sharded), golden, name)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_csf_inputs_match_golden(golden, name):
    """``partition_slices(csf)`` and ``build_hbcsf(csf)`` reproduce the
    partition and groups built straight from the tensor."""
    tensor = FIXTURES[name]()
    for mode in range(tensor.order):
        csf = build_csf(tensor, mode)
        key = f"{name}/hb-csf/m{mode}/"
        for array, value in partition_arrays(partition_slices(csf)).items():
            assert digest(value) == golden[key + array], key + array
        for array, value in hbcsf_arrays(build_hbcsf(csf, mode)).items():
            assert digest(value) == golden[key + array], key + array


def test_fixture_covers_every_case(golden):
    names = {k.split("/", 1)[0] for k in golden}
    assert names == set(FIXTURES)
    for name, make in FIXTURES.items():
        modes = {k.split("/")[2] for k in golden if k.startswith(f"{name}/")}
        assert modes == {f"m{m}" for m in range(make().order)}


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record = {}
    for name, make in FIXTURES.items():
        record.update(digests_of(name, make()))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} digests to {GOLDEN}")
