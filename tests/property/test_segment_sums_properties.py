"""Property: :func:`segment_sums` gives exactly the bits of
``np.add.reduceat(acc, offsets, axis=0)``.

Segments are drawn uniform (one length repeated), ragged (independent
lengths 1-300) or as runs of equal lengths around the chained-sum and
pairwise-block boundaries (7/8/9/10, 127/128/129/130), so passes mix
chained runs, ``reduceat`` runs and the whole-pass fallback.  Values span
sixteen decades, so any other association changes the rounding, and a
drawn share of them is replaced by ``+-0.0``, ``+-inf`` or NaN.  Every
non-NaN result must match bit for bit (the sign of zero and of infinity
included); NaNs must appear at the same positions.  The example count
comes from the hypothesis profile (``HYPOTHESIS_PROFILE``, see
``tests/conftest.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st

from repro.kernels.csf_mttkrp import segment_sums

BOUNDARY_LENGTHS = (1, 2, 7, 8, 9, 10, 127, 128, 129, 130)
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])

uniform = st.tuples(st.integers(1, 300), st.integers(1, 12)).map(
    lambda lk: [lk[0]] * lk[1])
ragged = st.lists(st.integers(1, 300), min_size=1, max_size=30)
runs = st.lists(
    st.tuples(st.sampled_from(BOUNDARY_LENGTHS), st.integers(1, 6)),
    min_size=1, max_size=8,
).map(lambda pairs: [length for length, k in pairs for _ in range(k)])


@given(lengths=st.one_of(uniform, ragged, runs),
       dtype=st.sampled_from([np.float32, np.float64]),
       rank=st.integers(1, 5),
       special_share=st.sampled_from([0.0, 0.01, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_matches_reduceat_bit_for_bit(lengths, dtype, rank, special_share,
                                      seed):
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    acc = (rng.standard_normal((n, rank))
           * 10.0 ** rng.uniform(-8, 8, (n, rank))).astype(dtype)
    special = rng.random((n, rank)) < special_share
    acc[special] = rng.choice(SPECIALS, int(special.sum())).astype(dtype)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    before = acc.copy()

    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf, overflow
        want = np.add.reduceat(acc, offsets, axis=0)
        got = segment_sums(acc, offsets)

    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(acc.view(np.uint8), before.view(np.uint8))
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
