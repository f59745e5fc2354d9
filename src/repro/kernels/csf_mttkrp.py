"""CSF MTTKRP (Algorithm 3 of the paper), generalized to any order.

The kernel walks the CSF tree bottom-up.  For a third-order tensor rooted at
the target mode it is exactly Equation (8) / Algorithm 3:

* every nonzero contributes ``val * C[k, :]``,
* contributions are reduced within each fiber (the ``tmp[]`` array),
* the fiber result is scaled by ``B[j, :]`` and reduced within the slice,
* the slice result is written to the output row of the slice index.

Factoring the reductions this way is what saves the ``R (J - 1)``
multiplications per fiber relative to COO (Section II-C).

Kernel layout.  The CSF tree kernel (CSF, B-CSF, the HB-CSF B-CSF group)
is *rank-major*: its per-nonzero scratch is a C-contiguous ``(rows, n)``
array of rank rows by nonzeros, gathered with ``np.take(F.T[r0:r1], idx,
axis=1)`` from the ``(R, I)`` view of an F-contiguous ``(I, R)`` factor (see
:func:`rank_major`).  Each tree level's segments are summed along the
last axis by a :class:`LevelSum`, and each root's row is written into
``out.T[r0:r1]`` once, with a plain indexed add wherever the target rows
are unique.  The CSL and COO kernels are *row-major*, like the paper's
CSL kernel, whose warps read each nonzero's factor rows whole: they
gather whole rows with ``np.take(T, idx, axis=0)`` from C-contiguous
``(I, R)`` row tables (see :func:`row_major`) into an ``(n, R)`` scratch,
sum slices or runs with :func:`segment_sums` and add each summed row into
``out`` once.
``np.add.reduceat`` associates a segment's sum as ``x0 + P(x1 ...)``
along either axis, with ``P`` numpy's pairwise sum, and
:func:`segment_sums` reproduces that association exactly: a run of
equal-length segments of at most :data:`CHAIN_MAX_LEN` nonzeros (where
``P`` is a plain left-to-right sum) is summed by chained vectorised adds
over a ``(k, L, R)`` view, and longer segments keep ``reduceat``.  CSL
groups bin their slices of at most :data:`CHAIN_MAX_LEN` nonzeros by
length -- the paper's slice binning (Section IV-A) -- and store the longer
ones after them in root order (:func:`repro.core.csl.length_order`), so a
pass holds one or two runs.

The tree kernel's level sums rest on the same association.  Most B-CSF
leaf fibers hold one nonzero (97.6-97.9% on the perfbench ``community``
workload), and ``reduceat`` pays its per-segment cost for each of them.
A level whose segments are almost all singletons (more than
:data:`TREESUM_MIN_SINGLETONS`, where this pays in one thread) is
therefore summed in three parts, planned once per nonzero range and
reused by every rank block: one ``take`` of the segment heads, which is
the whole sum of a singleton; chained adds ``x0 + (((x1 + x2) + x3) ...)``
for segments of at most :data:`CHAIN_MAX_LEN`; and one ``reduceat`` over
the longer segments' own ``[start, end)`` offsets.  Each part sums its
segments exactly as ``reduceat`` would, so the result is bit-identical
to one ``reduceat`` over the level; other levels keep that one call.
Nothing is stored in the tree, so the plan costs no index memory.

The output bits therefore depend neither on the layout nor on the slice
or level-sum order (``tests/kernels/golden_mttkrp.json`` pins them and
``TestReduceatSummationOrder`` in ``tests/kernels/test_csf_mttkrp.py``
numpy's association).

Every kernel runs as a sequence of *passes* (:func:`kernel_passes`): a
block of rank rows ``[r0, r1)`` times a nonzero range that splits only
where the kernel's reduction allows (root entries, slices, runs of one
target index).  For the tree kernel the nonzero range is as long as
:data:`DEFAULT_SLAB_ELEMS` allows and the rank rows fill the rest of the
budget, so a gathered factor row is streamed once per pass over up to
``DEFAULT_SLAB_ELEMS // min(R, PASS_ROWS)`` nonzeros while the scratch
stays within the budget.  The row kernels take every rank row over
:func:`row_pass_nnz` nonzeros, so one pass's ``(n, R)`` arrays stay in
L2.  A slice or run longer than that is still reduced by one
``np.add.reduceat`` call (its pairwise sum cannot be split across passes);
where its full rank would exceed the budget it falls back to rank blocks
(:meth:`Scratch.hadamard`).  Each rank row's arithmetic is independent of
the others, and each output row receives its partial sums in the same
order, so the bits do not depend on the pass shape.
"""

from __future__ import annotations

import numpy as np

from repro.faults.deadline import check_deadline
from repro.faults.hooks import fault_point
from repro.telemetry.counters import counter_add
from repro.tensor.csf import CsfTensor
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError, TensorFormatError

__all__ = ["csf_mttkrp", "segment_sums", "rank_major",
           "row_major", "DEFAULT_SLAB_ELEMS", "PASS_ROWS", "ROW_PASS_NNZ",
           "CHAIN_MAX_LEN", "SEGSUM_MAX_RUNS", "TREESUM_MIN_SINGLETONS",
           "slab_nnz_for", "row_pass_nnz", "pass_rows", "kernel_passes",
           "Scratch", "LevelSum", "check_rows", "check_tree"]

#: element budget of one kernel pass: the ``(rows, n)`` or ``(n, R)``
#: scratch arrays the CSF, CSL and COO kernels materialise hold at most
#: this many elements each (2^22 float64 elements = 32 MB) unless a single
#: rank row over one indivisible nonzero range is larger.  It bounds peak
#: scratch no matter how far the out-of-core ladder scales nnz.
DEFAULT_SLAB_ELEMS = 1 << 22

#: rank rows of a tree-kernel pass whose nonzero range fills the budget:
#: the range is capped at ``DEFAULT_SLAB_ELEMS // min(R, PASS_ROWS)``
#: nonzeros (2^20 at R = 32).  That is long enough to stream a gathered
#: factor row once per ~10^6 nonzeros, and keeps the per-range index
#: copies (8 B per nonzero and gathered mode) at a fraction of the scratch
#: budget.
PASS_ROWS = 4

#: nonzeros of one row-major pass of the CSL and COO kernels: each of its
#: two ``(n, R)`` scratch arrays is 256 KB at R = 32 in float64, so a
#: pass's gathers, products and column-wise ``reduceat`` stay within a
#: 2 MB L2 cache.  On the perfbench ``hypersparse`` and ``community`` CSL
#: groups, 2^9 to 2^12 measured within noise of each other (CHANGES.md),
#: and 2^10 sits inside that range with an eighth of L2 per array.
ROW_PASS_NNZ = 1 << 10

#: longest segment :func:`segment_sums` sums with chained adds.  numpy's
#: pairwise sum adds fewer than 8 elements left to right from ``-0.0``, so
#: for a segment of at most 8 ``reduceat``'s ``x0 + P(x1 ...)`` is
#: ``x0 + (((x1 + x2) + x3) ...)`` (``-0.0 + x1 == x1`` bit for bit); from
#: 9 on ``P`` is pairwise.  ``TestReduceatSummationOrder`` pins the boundary.
CHAIN_MAX_LEN = 8

#: runs per pass above which :func:`segment_sums` sums the whole pass with
#: one ``reduceat``.  A run costs a few numpy calls (~10 us), so a pass
#: whose segment lengths keep changing (a CSL group stored in root order,
#: a COO ``sort`` pass over a general tensor) is cheaper as one call; a
#: length-ordered CSL pass holds one to three runs.
SEGSUM_MAX_RUNS = 4

#: share of a CSF tree level's segments that must be singletons before
#: :class:`LevelSum` splits the level's sum instead of making one
#: ``np.add.reduceat`` call: the serial break-even.  A split level costs
#: one ``take`` of the segment heads (~8 ns per segment over 4 rank rows,
#: against ~35 ns per ``reduceat`` segment) plus scattered gathers and a
#: scattered write for every longer segment.  Timed in one thread on
#: synthetic levels of a full pass (4 rows x 2^20 nonzeros, and 32 x
#: 2^17), non-singleton lengths drawn from the perfbench ``skewed-par2``
#: mode-2 leaf level, split / plain reads 1.31/1.29 at 86% singletons,
#: 1.12/1.16 at 90%, 0.95/1.08 at 93%, 0.74/0.68 at 96% and 0.59/0.49 at
#: 98%.  So ``community``'s leaf levels (97.6-97.9%) split and sum in
#: 0.31-0.34 of the plain time, while ``skewed-par2``'s mode-2 leaf level
#: (85.8%, 1.05-1.29 split) and its mode-0/1 leaf levels and every shard
#: range of them (26-52%) stay plain.  The chained sums earn their path:
#: summing every non-singleton segment of ``community``'s leaf levels by
#: the interleaved ``reduceat`` instead takes 0.45-0.52 of the plain time,
#: and its hb-csf calls 0.87-0.93 of plain against 0.81-0.92 chained.
TREESUM_MIN_SINGLETONS = 0.95


def slab_nnz_for(rank: int, slab_nnz: int | None = None) -> int:
    """Nonzeros per pass: explicit override or the element budget."""
    if slab_nnz is not None:
        if slab_nnz < 1:
            raise TensorFormatError(
                f"slab_nnz must be >= 1, got {slab_nnz}")
        return slab_nnz
    return max(1, DEFAULT_SLAB_ELEMS // min(max(rank, 1), PASS_ROWS))


def row_pass_nnz(rank: int, slab_nnz: int | None = None) -> int:
    """Nonzeros per row-major pass: explicit override, else
    :data:`ROW_PASS_NNZ` capped so the full rank fits the element budget."""
    if slab_nnz is not None:
        return slab_nnz_for(rank, slab_nnz)
    return max(1, min(ROW_PASS_NNZ, DEFAULT_SLAB_ELEMS // max(rank, 1)))


def pass_rows(rank: int, nnz: int) -> int:
    """Rank rows per pass over ``nnz`` nonzeros: as many as the element
    budget allows (at least one), spread evenly over the row blocks."""
    rank = max(rank, 1)
    rows = min(max(DEFAULT_SLAB_ELEMS // max(nnz, 1), 1), rank)
    blocks = -(-rank // rows)
    return -(-rank // blocks)


def kernel_passes(bounds, rank: int, slab_nnz: int | None = None):
    """Yield ``(start, stop, r0, r1)`` for every pass of one kernel call.

    ``bounds`` is the nonzero offset of every point where the kernel may
    split its nonzeros, from 0 to nnz (root entries of a CSF tree, slices
    of a CSL group, runs of a sorted target index, or every nonzero).  A
    pass covers the units ``[start, stop)`` — as many as fit in
    :func:`slab_nnz_for` nonzeros, at least one — and the rank rows
    ``[r0, r1)`` (:func:`pass_rows`).  The passes over one nonzero range
    are consecutive and the first has ``r0 == 0``, so a kernel prepares
    range-wide arrays once per range.

    Pass boundaries are the kernels' fault point and cooperative watchdog:
    each pass fires ``kernel.slab``, polls the ambient
    :func:`~repro.faults.deadline.deadline` so a long kernel can be
    interrupted between passes, and counts one ``kernel.passes``.
    """
    slab = slab_nnz_for(rank, slab_nnz)
    units = bounds.shape[0] - 1
    start = 0
    while start < units:
        stop = int(np.searchsorted(bounds, bounds[start] + slab,
                                   side="right")) - 1
        stop = min(max(stop, start + 1), units)
        rows = pass_rows(rank, int(bounds[stop] - bounds[start]))
        for r0 in range(0, rank, rows):
            fault_point("kernel.slab")
            check_deadline("kernel.slab")
            counter_add("kernel.passes")
            yield start, stop, r0, min(r0 + rows, rank)
        start = stop


class Scratch:
    """Flat buffers the passes of one kernel call carve their scratch
    arrays from, so a pass reuses the previous pass's pages instead of
    faulting in fresh ones."""

    def __init__(self, dtype) -> None:
        self.dtype = dtype
        self._bufs: dict[int, np.ndarray] = {}

    def _buf(self, slot: int, shape: tuple[int, int]) -> np.ndarray:
        size = shape[0] * shape[1]
        buf = self._bufs.get(slot)
        if buf is None or buf.shape[0] < size:
            buf = self._bufs[slot] = np.empty(size, dtype=self.dtype)
        return buf[:size].reshape(shape)

    # ``idx`` must lie in ``[0, I)`` for both gathers (validated structures
    # guarantee it; :func:`check_rows` checks raw ones), so the ``clip``
    # mode, which writes straight into the buffer without a bounds check,
    # never clips.
    def gather(self, slot: int, table: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
        """``table[:, idx]`` of a ``(rows, I)`` table, into buffer ``slot``."""
        out = self._buf(slot, (table.shape[0], idx.shape[0]))
        return table.take(idx, axis=1, mode="clip", out=out)

    def gather_rows(self, slot: int, table: np.ndarray,
                    idx: np.ndarray) -> np.ndarray:
        """``table[idx]`` of an ``(I, R)`` row table, into buffer ``slot``."""
        out = self._buf(slot, (idx.shape[0], table.shape[1]))
        return table.take(idx, axis=0, mode="clip", out=out)

    def _row_product(self, tables: list[np.ndarray], cols: list[np.ndarray],
                     vals: np.ndarray) -> np.ndarray:
        """``vals * prod_k tables[k][cols[k]]`` as an ``(n, R)`` array.

        The first gather is scaled by the values in place and the others
        are multiplied into it, so at most two scratch arrays are live and
        no all-ones matrix is materialised; elementwise multiplication is
        commutative bit-for-bit.
        """
        acc = None
        for k, (table, idx) in enumerate(zip(tables, cols)):
            gathered = self.gather_rows(min(k, 1), table, idx)
            if acc is None:
                gathered *= vals[:, None]
                acc = gathered
            else:
                acc *= gathered
        return acc

    def hadamard(self, tables: list[np.ndarray], cols: list[np.ndarray],
                 vals: np.ndarray, r0: int, r1: int) -> np.ndarray:
        """Rank columns ``[r0, r1)`` of ``vals * prod_k tables[k][cols[k]]``
        as an ``(n, r1 - r0)`` array, from ``(I, R)`` row tables.

        Over the full rank this is one ``(n, R)`` row-major product.  A
        rank block (a unit too long for its full rank to fit the element
        budget) is assembled from full-row products of
        :func:`row_pass_nnz` nonzeros at a time into a ``(r1 - r0, n)``
        buffer, and returned as its transpose, so a ``reduceat`` along
        axis 0 runs over contiguous segments.  With no tables (an order-1
        tensor) the result is the values repeated over the rank columns.
        """
        if not tables:
            return np.repeat(vals[:, None], r1 - r0, axis=1)
        rank = tables[0].shape[1]
        if r1 - r0 == rank:
            return self._row_product(tables, cols, vals)
        n = vals.shape[0]
        block = self._buf(2, (r1 - r0, n))
        step = row_pass_nnz(rank)
        for j in range(0, n, step):
            part = self._row_product(tables, [c[j:j + step] for c in cols],
                                     vals[j:j + step])
            block[:, j:j + step] = part[:, r0:r1].T
        return block.T


def check_rows(idx: np.ndarray, rows: int, what: str) -> None:
    """Raise unless every entry of ``idx`` addresses one of ``rows`` factor
    rows: the :class:`Scratch` gathers do not bounds-check."""
    if idx.shape[0] and (int(idx.min()) < 0 or int(idx.max()) >= rows):
        raise DimensionError(f"{what} indexes outside [0, {rows})")


def check_tree(csf: CsfTensor) -> None:
    """Raise unless every non-root level of ``csf`` indexes its mode's
    factor rows and every tree segment is non-empty: the structure the
    unchecked tree kernel (``validate=False``) trusts."""
    for level in range(1, csf.order):
        check_rows(csf.fids[level], csf.shape[csf.mode_order[level]],
                   f"CSF level {level}")
    for ptr in csf.fptr:
        if ptr.shape[0] > 1 and int(np.diff(ptr).min()) <= 0:
            raise TensorFormatError(
                "segment sums require non-empty, monotone segments")


def _converted(factors: list[np.ndarray], convert, dtype,
               skip: int | None) -> list[np.ndarray]:
    """``convert(f, dtype=dtype)`` of every factor but ``factors[skip]``,
    counting each one that is a new array in ``kernel.layout_copies``."""
    tables = []
    for m, f in enumerate(factors):
        table = f if m == skip else convert(f, dtype=dtype)
        if table is not f:
            counter_add("kernel.layout_copies")
        tables.append(table)
    return tables


def rank_major(factors: list[np.ndarray], dtype=None,
               skip: int | None = None) -> list[np.ndarray]:
    """``factors`` as F-contiguous ``(I, R)`` arrays (in ``dtype`` if given).

    ``f.T`` of each result is the C-contiguous ``(R, I)`` view the CSF
    tree kernel gathers from.  Factors already in that layout and dtype
    pass through without a copy, so converting once per dispatch makes
    every tree kernel, B-CSF group, shard and pass below it copy-free.
    ``factors[skip]`` (the target mode, which no kernel reads) is passed
    through untouched.  Every factor copied adds one to the counter
    ``kernel.layout_copies``.
    """
    return _converted(factors, np.asfortranarray, dtype, skip)


def row_major(factors: list[np.ndarray], dtype=None,
              skip: int | None = None) -> list[np.ndarray]:
    """``factors`` as C-contiguous ``(I, R)`` row tables (in ``dtype`` if
    given), the layout the CSL and COO kernels gather whole rows from.

    Like :func:`rank_major`, tables already in that layout and dtype pass
    through without a copy, ``factors[skip]`` is passed through untouched
    and every copy counts in ``kernel.layout_copies``.
    """
    return _converted(factors, np.ascontiguousarray, dtype, skip)


def segment_sums(acc: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sums of the row segments of an ``(n, R)`` pass that start at
    ``offsets`` (``offsets[0] == 0``, strictly increasing, each segment
    running to the next start or to ``n``), bit-identical to
    ``np.add.reduceat(acc, offsets, axis=0)``.

    The segments are split into runs: maximal stretches of one length ``L
    <= CHAIN_MAX_LEN``, or of segments all longer than that.  A short run
    of ``k`` segments is summed on its ``(k, L, R)`` view as ``x0 + (((x1 +
    x2) + x3) ...)``, ``reduceat``'s own association at these lengths (see
    :data:`CHAIN_MAX_LEN`); a length-1 run is a copy.  A long run keeps one
    ``reduceat`` over its offsets, and a pass of more than
    :data:`SEGSUM_MAX_RUNS` runs is one ``reduceat`` over the whole pass.
    Each call adds the segments it summed each way to the counters
    ``kernel.segsum.chained`` and ``kernel.segsum.reduceat``.
    """
    k, n = offsets.shape[0], acc.shape[0]
    # lengths clipped at CHAIN_MAX_LEN + 1, so long segments form one run
    lengths = np.empty(k, dtype=offsets.dtype)
    np.subtract(offsets[1:], offsets[:-1], out=lengths[:-1])
    lengths[-1] = n - offsets[-1]
    np.minimum(lengths, CHAIN_MAX_LEN + 1, out=lengths)
    cuts = (lengths[1:] != lengths[:-1]).nonzero()[0] + 1
    if cuts.shape[0] >= SEGSUM_MAX_RUNS:
        counter_add("kernel.segsum.reduceat", k)
        return np.add.reduceat(acc, offsets, axis=0)
    sums = np.empty((k, acc.shape[1]), dtype=acc.dtype)
    chained = 0
    runs = [0, *cuts.tolist(), k]
    for s0, s1 in zip(runs[:-1], runs[1:]):
        lo = int(offsets[s0])
        hi = int(offsets[s1]) if s1 < k else n
        length, out = int(lengths[s0]), sums[s0:s1]
        if length > CHAIN_MAX_LEN:
            np.add.reduceat(acc[lo:hi], offsets[s0:s1] - lo, axis=0, out=out)
            continue
        chained += s1 - s0
        block = acc[lo:hi].reshape(s1 - s0, length, acc.shape[1])
        if length == 1:
            out[...] = block[:, 0]
            continue
        if length == 2:
            np.add(block[:, 0], block[:, 1], out=out)
            continue
        np.add(block[:, 1], block[:, 2], out=out)
        for j in range(3, length):
            out += block[:, j]
        np.add(block[:, 0], out, out=out)
    if chained:
        counter_add("kernel.segsum.chained", chained)
    if chained < k:
        counter_add("kernel.segsum.reduceat", k - chained)
    return sums


class LevelSum:
    """Segment sums of one CSF tree level over one nonzero range,
    bit-identical to ``np.add.reduceat(buf, ptr[:-1], axis=-1)`` for the
    ``(rows, n)`` scratch of every rank block of the range.

    ``ptr`` is the level's pointer array rebased to 0 (non-empty segments
    covering ``[0, n)``).  Unless the level's share of length-1 segments
    exceeds :data:`TREESUM_MIN_SINGLETONS`, a call is one plain
    ``reduceat``.  Otherwise the segments are summed three ways, planned
    here once for every rank block:

    * one ``take`` of every segment's first column: the whole sum of a
      singleton and ``x0`` of every other segment;
    * segments of 2 to :data:`CHAIN_MAX_LEN` nonzeros, ordered longest
      first so that step ``j`` adds column ``j`` of a prefix of them, are
      ``x0 + (((x1 + x2) + x3) ...)``, ``reduceat``'s association at these
      lengths (see :data:`CHAIN_MAX_LEN`);
    * longer segments are summed by one ``reduceat`` over their
      interleaved ``[start, end)`` offsets, every other output kept: the
      same contiguous segments summed by the same call.

    Constructing a plan adds the segments it sums each way to the
    counters ``kernel.treesum.copied``, ``kernel.treesum.chained`` and
    ``kernel.treesum.reduceat``.  ``validate`` checks that every segment
    is non-empty.
    """

    def __init__(self, ptr: np.ndarray, validate: bool = True) -> None:
        if ptr.shape[0] == 0:
            raise TensorFormatError("pointer array must have at least one entry")
        self.n = int(ptr[-1])
        self.k = k = ptr.shape[0] - 1
        lengths = np.diff(ptr)
        if validate and k and int(lengths.min()) <= 0:
            raise TensorFormatError("segment sums require non-empty, monotone segments")
        singles = int(np.count_nonzero(lengths == 1))
        self.split = singles > TREESUM_MIN_SINGLETONS * k
        self.starts = ptr[:-1].astype(np.intp, copy=False)
        self.steps: list[np.ndarray] = []
        self.chain_ids = self.long_ids = self.bounds = None
        if not self.split:
            if k:
                counter_add("kernel.treesum.reduceat", k)
            return
        multi = (lengths != 1).nonzero()[0]
        short = lengths[multi] <= CHAIN_MAX_LEN
        chain, longs = multi[short], multi[~short]
        if chain.shape[0]:
            # longest first (an 8-bit key, so the stable sort is a radix sort)
            clen = lengths[chain]
            order = np.argsort((CHAIN_MAX_LEN - clen).astype(np.uint8),
                               kind="stable")
            self.chain_ids, clen = chain[order], clen[order]
            heads = self.starts[self.chain_ids]
            for j in range(1, int(clen[0])):
                self.steps.append(heads[:int(np.count_nonzero(clen > j))] + j)
        if longs.shape[0]:
            self.long_ids = longs
            bounds = np.empty(2 * longs.shape[0], dtype=np.intp)
            bounds[0::2] = ptr[longs]
            bounds[1::2] = ptr[longs + 1]
            # reduceat offsets must lie below n: a last segment ending at n
            # runs to the end without its end offset
            self.bounds = bounds[:-1] if bounds[-1] == self.n else bounds
        for name, count in (("copied", singles), ("chained", chain.shape[0]),
                            ("reduceat", longs.shape[0])):
            if count:
                counter_add(f"kernel.treesum.{name}", count)

    def __call__(self, buf: np.ndarray) -> np.ndarray:
        """The ``(rows, k)`` segment sums of ``buf``, in a new array.

        A level's sums and temporaries are freed with it, not kept at
        their largest size for the whole kernel call: held in scratch
        buffers, they lifted the 10^7-nonzero out-of-core MTTKRP's peak
        RSS by ~50 MB.  Every index below lies in ``[0, n)``, so the
        gathers take the unchecked ``clip`` mode."""
        if buf.shape[-1] != self.n:
            raise TensorFormatError(
                f"pointer array covers {self.n} entries but data has {buf.shape[-1]}")
        if not self.k:
            return np.empty((buf.shape[0], 0), dtype=buf.dtype)
        if not self.split:
            return np.add.reduceat(buf, self.starts, axis=-1)
        out = buf.take(self.starts, axis=1, mode="clip")
        if self.steps:
            acc = buf.take(self.steps[0], axis=1, mode="clip")
            for idx in self.steps[1:]:
                acc[:, :idx.shape[0]] += buf.take(idx, axis=1, mode="clip")
            np.add(out.take(self.chain_ids, axis=1, mode="clip"), acc,
                   out=acc)
            out[:, self.chain_ids] = acc
        if self.bounds is not None:
            out[:, self.long_ids] = np.add.reduceat(buf, self.bounds,
                                                    axis=-1)[:, ::2]
        return out


def csf_mttkrp(
    csf: CsfTensor,
    factors: list[np.ndarray],
    mode: int | None = None,
    out: np.ndarray | None = None,
    dtype=None,
    validate: bool = True,
    slab_nnz: int | None = None,
) -> np.ndarray:
    """MTTKRP for the root mode of a CSF tensor.

    Parameters
    ----------
    csf:
        CSF representation.  Its root mode must be the target mode (the
        paper follows SPLATT's ALLMODE configuration: one CSF per mode).
    factors:
        One factor matrix per mode (original mode order).
    mode:
        Target mode; defaults to ``csf.root_mode`` and must equal it.
    out:
        Optional pre-allocated ``(shape[mode], R)`` output, accumulated into.
        Its dtype determines the compute dtype.
    dtype:
        Compute dtype when ``out`` is not supplied (``float32`` /
        ``float64``; default float64).
    validate:
        Skip the factor-shape checks and the segment-monotonicity scans
        when ``False`` — for trusted internal re-invocations on
        builder-produced trees.
    slab_nnz:
        Nonzeros per pass (``None`` derives it from
        :data:`DEFAULT_SLAB_ELEMS` and the rank; the rank rows per pass
        follow from the budget).  Passes split only at root-entry
        boundaries, so every output row is produced by one nonzero range
        and the result is bit-identical to the single-pass evaluation
        regardless of the pass shape; a single root entry larger than
        ``slab_nnz`` is one range.
    """
    if mode is None:
        mode = csf.root_mode
    if mode != csf.root_mode:
        raise DimensionError(
            f"CSF is rooted at mode {csf.root_mode}; cannot compute mode-{mode} "
            "MTTKRP without re-rooting (build a CSF per mode, as SPLATT ALLMODE does)"
        )
    if validate:
        rank = _check_factors(csf.shape, factors, mode)
        check_tree(csf)
    else:
        rank = factors[mode].shape[1]
    rows = csf.shape[mode]
    if out is None:
        out = np.zeros((rows, rank), dtype=resolve_dtype(dtype), order="F")
    elif out.shape != (rows, rank):
        raise DimensionError(f"out has shape {out.shape}, expected {(rows, rank)}")
    if csf.nnz == 0:
        return out

    compute_dtype = out.dtype
    factors = rank_major(factors, compute_dtype, skip=mode)
    values = csf.values.astype(compute_dtype, copy=False)

    # Leaf offset of every root-entry boundary: chain the pointer levels.
    off = csf.fptr[0]
    for ptr in csf.fptr[1:]:
        off = ptr[off]
    scratch = Scratch(compute_dtype)
    for start, stop, r0, r1 in kernel_passes(off, rank, slab_nnz):
        if r0 == 0:
            # Restrict every level to the [start, stop) root entries:
            # pointer views are rebased to the range; index arrays are made
            # contiguous intp (np.take's index form) once for every row
            # block's gathers.
            lo, hi = start, stop
            fids, sums = [], []
            for ptr in csf.fptr:
                fids.append(np.ascontiguousarray(csf.fids[len(sums)][lo:hi],
                                                 dtype=np.intp))
                seg = ptr[lo:hi + 1]
                sums.append(LevelSum(seg - seg[0], validate=False))
                lo, hi = int(ptr[lo]), int(ptr[hi])
            fids.append(np.ascontiguousarray(csf.fids[-1][lo:hi],
                                             dtype=np.intp))
            vals = values[lo:hi]
        tables = [None if m == mode else f.T[r0:r1]
                  for m, f in enumerate(factors)]
        _tree_reduce(vals, fids, sums, csf.mode_order, tables,
                     out.T[r0:r1], scratch)
    return out


def _tree_reduce(values: np.ndarray, fids: list, sums: list,
                 mode_order: tuple, tables: list, out_t: np.ndarray,
                 scratch: Scratch) -> None:
    """Bottom-up CSF tree reduction of one pass, accumulated into the
    ``(rows, I)`` output rows ``out_t``.  ``sums`` holds one
    :class:`LevelSum` per pointer level of the pass's nonzero range, and
    ``values``/``fids`` are sliced to that range; ``tables`` are the
    pass's ``(rows, I)`` factor rows by mode."""
    order = len(mode_order)
    # Leaf level: val * A_leafmode[leaf index, :], gathered as a (rows, nnz)
    # array and scaled in place (multiplication is commutative bit-for-bit).
    buf = scratch.gather(0, tables[mode_order[-1]], fids[-1])
    buf *= values

    # Reduce up the tree, scaling by the factor of each internal level except
    # the root.  Each level sum is a new array, so slot 0 is free for the
    # gathers once the leaf level is summed.
    for level in range(order - 2, 0, -1):
        buf = sums[level](buf)
        buf *= scratch.gather(0, tables[mode_order[level]], fids[level])

    # Root level: reduce fibers (or sub-trees) into slices and write each
    # slice's row once.  Roots are unique except in an order-2 tree, whose
    # root level is the fiber level fbr-split may repeat.
    slice_vals = sums[0](buf)
    if order == 2:
        np.add.at(out_t.T, fids[0], slice_vals.T)
    else:
        out_t[:, fids[0]] += slice_vals
