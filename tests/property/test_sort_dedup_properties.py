"""Property: the packed-key sort and sort-and-dedup pass of
:class:`CooTensor` give exactly the bits of the construction they replaced.

The reference below is that construction, kept here verbatim in spirit:
duplicates summed by ``np.unique(return_inverse=True)`` plus one
``np.bincount`` (rows of the first occurrence), then a stable
``np.lexsort`` by the requested mode order.  Its packed key cannot hold a
shape of ``2**63`` cells or more; for those the reference takes
``np.unique`` over whole rows instead, which sums each group in the same
order.

Tensors are drawn with order 2-5, empty tensors, size-1 modes, many
duplicate coordinates, ``-0.0`` values, values whose sum depends on the
order of addition, and shapes too large to pack (the ``np.lexsort``
fallback).  The example count comes from the hypothesis profile
(``HYPOTHESIS_PROFILE``, see ``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.telemetry import counters_delta, counters_snapshot
from repro.tensor.coo import CooTensor

#: values whose sums expose any change of summation order or sign of zero
VALUE_POOL = np.array([-0.0, 0.0, 1.0, -1.0, 0.1, 0.2, 0.3, -2.5, 1e16,
                       -1e16, 3.0e-17])

#: a mode this long makes any shape with two of them unpackable
HUGE_DIM = 2**32


def fits_int64(shape) -> bool:
    total = 1
    for s in shape:
        total *= int(s)
    return total < 2**63


def reference_dedup(indices, values, shape):
    """Duplicates summed in appearance order, rows in natural key order."""
    if fits_int64(shape):
        key = np.zeros(indices.shape[0], dtype=np.int64)
        scale = 1
        for m in range(len(shape) - 1, -1, -1):
            key += indices[:, m] * scale
            scale *= int(shape[m])
        uniq, inverse = np.unique(key, return_inverse=True)
    else:
        uniq, inverse = np.unique(indices, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.bincount(inverse, weights=values, minlength=uniq.shape[0])
    first = np.zeros(uniq.shape[0], dtype=np.int64)
    first[inverse[::-1]] = np.arange(indices.shape[0] - 1, -1, -1)
    return indices[first], sums.astype(np.float64)


def reference_lexsort(indices, mode_order):
    return np.lexsort(tuple(indices[:, m] for m in reversed(mode_order)))


def reference_sorted_unique(indices, values, shape, mode_order):
    idx, vals = reference_dedup(indices, values, shape)
    perm = reference_lexsort(idx, mode_order)
    return idx[perm], vals[perm]


@st.composite
def raw_tensors(draw):
    """``(tensor, mode_order)`` with unsummed duplicate coordinates."""
    order = draw(st.integers(2, 5))
    huge = draw(st.booleans()) and draw(st.booleans())
    shape = [draw(st.integers(1, 5)) for _ in range(order)]
    if huge:
        for m in draw(st.lists(st.integers(0, order - 1), min_size=2,
                               max_size=order, unique=True)):
            shape[m] = HUGE_DIM
    shape = tuple(shape)
    nnz = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for s in shape:
        if s == HUGE_DIM:
            # few distinct coordinates, some far apart: keeps duplicates
            # and the coordinates an overflowing packed key would alias
            cols.append(rng.choice([0, 1, 2**30, 2**31, s - 1], size=nnz))
        else:
            cols.append(rng.integers(0, s, size=nnz))
    indices = np.stack(cols, axis=1).reshape(nnz, order).astype(np.int64)
    if nnz and draw(st.booleans()):
        # repeat a block of rows so long duplicate runs appear
        reps = rng.integers(0, nnz, size=draw(st.integers(1, 20)))
        indices = np.concatenate([indices, indices[reps]], axis=0)
    values = rng.choice(VALUE_POOL, size=indices.shape[0])
    mode_order = tuple(int(m) for m in rng.permutation(order))
    return CooTensor(indices, values, shape), mode_order


def assert_same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(deadline=None)
@given(raw_tensors())
def test_sorted_unique_matches_unique_then_lexsort(case):
    tensor, mode_order = case
    before = counters_snapshot()
    got = tensor.sorted_unique(mode_order)
    fallbacks = counters_delta(before).get("tensor.sort.fallback", 0)
    if tensor.nnz == 0:
        assert got.nnz == 0
        return
    idx, vals = reference_sorted_unique(tensor.indices, tensor.values,
                                        tensor.shape, mode_order)
    assert_same_bytes(got.indices, idx)
    assert_same_bytes(got.values, vals)
    assert fallbacks == (0 if fits_int64(tensor.shape) else 1)

    natural = tuple(range(tensor.order))
    idx, vals = reference_sorted_unique(tensor.indices, tensor.values,
                                        tensor.shape, natural)
    for summed in (tensor.deduplicated(),
                   CooTensor(tensor.indices, tensor.values, tensor.shape,
                             sum_duplicates=True)):
        assert_same_bytes(summed.indices, idx)
        assert_same_bytes(summed.values, vals)


@settings(deadline=None)
@given(raw_tensors())
def test_sorted_by_modes_is_the_lexsort_permutation(case):
    tensor, mode_order = case
    got = tensor.sorted_by_modes(mode_order)
    if tensor.nnz == 0:
        assert got.nnz == 0
        return
    perm = reference_lexsort(tensor.indices, mode_order)
    assert_same_bytes(got.indices, tensor.indices[perm])
    # duplicate rows mostly carry different values: this pins their order
    assert_same_bytes(got.values, tensor.values[perm])
