"""Property: a :class:`LevelSum` gives exactly the bits of
``np.add.reduceat(buf, ptr[:-1], axis=-1)`` on a CSF tree level.

Levels are drawn all-singleton, without singletons, as runs of lengths
around the chained-sum and pairwise-block boundaries (1/2/8/9,
128/129/1000, so long segments sit next to each other), ragged, with
1-30 singletons interleaved between the drawn segments (30 put every level
above :data:`TREESUM_MIN_SINGLETONS`, so it takes the split path under
the rule), and with a long segment last.  Each level is summed under the
rule and with the split path forced (a negative
:data:`TREESUM_MIN_SINGLETONS` splits every level), over 1-32 rank rows
in float32 and float64.  Values span sixteen decades,
so any other association changes the rounding, and a drawn share of them
is replaced by ``+-0.0``, ``+-inf`` or NaN.  Every non-NaN result must
match bit for bit (the sign of zero and of infinity included); NaNs must
appear at the same positions.  The example count comes from the
hypothesis profile (``HYPOTHESIS_PROFILE``, see ``tests/conftest.py``).
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.kernels.csf_mttkrp import LevelSum

KERNEL = importlib.import_module("repro.kernels.csf_mttkrp")

BOUNDARY_LENGTHS = (1, 2, 8, 9, 128, 129, 1000)
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])

all_singletons = st.integers(1, 300).map(lambda k: [1] * k)
no_singletons = st.lists(st.integers(2, 200), min_size=1, max_size=20)
runs = st.lists(
    st.tuples(st.sampled_from(BOUNDARY_LENGTHS), st.integers(1, 3)),
    min_size=1, max_size=6,
).map(lambda pairs: [length for length, k in pairs for _ in range(k)])
ragged = st.lists(st.integers(1, 140), min_size=1, max_size=30)
shapes = st.one_of(all_singletons, no_singletons, runs, ragged)


def _with_singletons(drawn: tuple[list[int], int]) -> list[int]:
    """``lengths`` with ``between`` singletons before each segment."""
    lengths, between = drawn
    return [n for length in lengths for n in [1] * between + [length]]


levels = st.one_of(
    shapes,
    st.tuples(shapes, st.sampled_from([1, 2, 4, 30])).map(_with_singletons),
    st.tuples(shapes, st.sampled_from([9, 129, 1000])).map(
        lambda drawn: drawn[0] + [drawn[1]]),
)


@given(lengths=levels,
       dtype=st.sampled_from([np.float32, np.float64]),
       rows=st.integers(1, 32),
       special_share=st.sampled_from([0.0, 0.01, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_reduceat_bit_for_bit(lengths, dtype, rows, special_share,
                                      seed):
    rng = np.random.default_rng(seed)
    ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    n = int(ptr[-1])
    buf = (rng.standard_normal((rows, n))
           * 10.0 ** rng.uniform(-8, 8, (rows, n))).astype(dtype)
    special = rng.random((rows, n)) < special_share
    buf[special] = rng.choice(SPECIALS, int(special.sum())).astype(dtype)
    before = buf.copy()

    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf, overflow
        want = np.add.reduceat(buf, ptr[:-1], axis=-1)
        for share in (KERNEL.TREESUM_MIN_SINGLETONS, -1.0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(KERNEL, "TREESUM_MIN_SINGLETONS", share)
                got = LevelSum(ptr)(buf)

            assert got.shape == want.shape and got.dtype == want.dtype
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes(), share
    np.testing.assert_array_equal(buf.view(np.uint8), before.view(np.uint8))
