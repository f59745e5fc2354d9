"""Golden bits: every CP-ALS solve pinned to a recorded sha256 digest.

The other ALS tests compare solves with each other (formats, resume
against an uninterrupted run) or check a fit tolerance, so a change of
floating-point results inside the solver passes them all.  This one does
not: ``golden_als.json`` holds the digest of the factors, weights and fit
trajectory of every solve over hb-csf/coo x float32/float64 x serial/2-thread
backends x random/randn init x deadline on/off x checkpoint on/off, on two
seeded tensors.  Every solve runs 3 iterations, so both the first-iteration
2-norm and the later max-abs column normalisation are covered.  The
``tall`` tensor's mode 0 has more rows than the init copy block (and is not
a multiple of it), and in float64 its output is above the solver's
workspace cap, so that mode takes the fresh-output path.  ``init_factors`` is
pinned on its own as well.

With ``checkpoint`` on, a 2-iteration solve commits a checkpoint and a
3-iteration solve resumes from it, so the digest covers restored factors.
With ``deadline`` on, the generous budget never fires but turns on the
solver's committed-iteration snapshots.

Re-record only when a change of floating-point results is intended::

    PYTHONPATH=src python tests/cpd/test_golden_als.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.cpd.als import cp_als
from repro.cpd.init import init_factors
from repro.telemetry import counters_snapshot
from repro.tensor.coo import CooTensor
from repro.tensor.random_gen import random_coo
from repro.util.prng import default_rng

GOLDEN = Path(__file__).with_name("golden_als.json")
RANK = 8
N_ITERS = 3
FORMATS = ("hb-csf", "coo")
DTYPES = ("float32", "float64")
BACKENDS = ("serial", "threads")
INITS = ("random", "randn")
SWITCHES = ("off", "on")

#: name -> (shape, nnz, seed)
TENSORS = {
    "small": ((30, 40, 50), 1500, 15),
    "tall": ((70_001, 37, 23), 4000, 16),
}
#: extra shapes for the ``init_factors`` digests: block multiples and
#: ragged tails of the init copy
INIT_SHAPES = {
    "blocks": (4096, 8192, 12_289),
}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def make_tensor(name: str):
    shape, nnz, seed = TENSORS[name]
    return random_coo(shape, nnz, default_rng(seed))


def solve(tensor, fmt, dtype, backend, init, deadline, ckpt_path):
    kwargs = dict(format=fmt, dtype=dtype, backend=backend, num_workers=2,
                  init=init, tol=0.0,
                  deadline=600.0 if deadline == "on" else None)
    if ckpt_path is None:
        return cp_als(tensor, RANK, n_iters=N_ITERS, rng=default_rng(5),
                      **kwargs)
    cp_als(tensor, RANK, n_iters=N_ITERS - 1, rng=default_rng(5),
           checkpoint=ckpt_path, **kwargs)
    resumes = counters_snapshot().get("als.resumes", 0)
    result = cp_als(tensor, RANK, n_iters=N_ITERS, rng=default_rng(5),
                    checkpoint=ckpt_path, **kwargs)
    assert counters_snapshot().get("als.resumes", 0) == resumes + 1
    assert result.iterations == N_ITERS
    return result


def als_digests_for(name: str, fmt: str, dtype: str) -> dict[str, str]:
    """``{"<tensor>/<format>/<dtype>/<backend>/<init>/dl-<s>/ckpt-<s>": sha}``."""
    tensor = make_tensor(name)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for backend in BACKENDS:
            for init in INITS:
                for dl in SWITCHES:
                    for ck in SWITCHES:
                        key = (f"{name}/{fmt}/{dtype}/{backend}/{init}/"
                               f"dl-{dl}/ckpt-{ck}")
                        path = (Path(tmp) / f"{len(out)}.npz"
                                if ck == "on" else None)
                        res = solve(tensor, fmt, dtype, backend, init, dl,
                                    path)
                        out[key] = digest([*res.factors, res.weights,
                                           np.asarray(res.fits)])
    return out


def init_digests() -> dict[str, str]:
    """``{"init/<shape name>/<method>": sha}``."""
    shapes = {name: spec[0] for name, spec in TENSORS.items()}
    shapes.update(INIT_SHAPES)
    out = {}
    for name, shape in shapes.items():
        for method in INITS:
            out[f"init/{name}/{method}"] = digest(init_factors(
                CooTensor.empty(shape), RANK, method, rng=default_rng(9)))
    return out


CASES = [(n, f, d) for n in TENSORS for f in FORMATS for d in DTYPES]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,fmt,dtype", CASES,
                         ids=[f"{n}-{f}-{d}" for n, f, d in CASES])
def test_solves_match_golden_digests(golden, name, fmt, dtype):
    got = als_digests_for(name, fmt, dtype)
    want = {k: v for k, v in golden.items()
            if k.startswith(f"{name}/{fmt}/{dtype}/")}
    assert set(got) == set(want), "case list drifted from the fixture"
    changed = sorted(k for k in got if got[k] != want[k])
    assert not changed, f"{len(changed)} solves changed bits: {changed[:5]}"


def test_init_factors_match_golden_digests(golden):
    got = init_digests()
    want = {k: v for k, v in golden.items() if k.startswith("init/")}
    assert got == want


def test_fixture_covers_every_case(golden):
    solves = len(CASES) * len(BACKENDS) * len(INITS) * len(SWITCHES) ** 2
    inits = (len(TENSORS) + len(INIT_SHAPES)) * len(INITS)
    assert len(golden) == solves + inits


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record = init_digests()
    for name, fmt, dtype in CASES:
        record.update(als_digests_for(name, fmt, dtype))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} digests to {GOLDEN}")
