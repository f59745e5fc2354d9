"""B-CSF: the Balanced CSF format (Section IV of the paper).

A :class:`BcsfTensor` is a CSF tree whose fibers have been length-limited by
fbr-split, plus the slc-split binning information (how many thread blocks
each slice is assigned).  Numerically it computes exactly the same MTTKRP as
plain CSF; the difference is entirely in how evenly the work can be handed
to warps and thread blocks, which is what :mod:`repro.gpusim` measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.splitting import SplitConfig, slice_block_bins, split_long_fibers
from repro.kernels.csf_mttkrp import csf_mttkrp
from repro.tensor.coo import CooTensor
from repro.tensor.csf import CsfTensor, build_csf
from repro.tensor.dense import _check_factors
from repro.util.errors import DimensionError

__all__ = ["BcsfTensor", "build_bcsf"]


@dataclass(frozen=True)
class BcsfTensor:
    """Balanced CSF representation for one root mode.

    Attributes
    ----------
    csf:
        The fiber-split CSF tree (fiber-segments appear as ordinary fibers,
        repeated indices included).
    config:
        The :class:`SplitConfig` used to build it.
    segment_of_fiber:
        Maps each fiber-segment of ``csf`` to the original fiber id.
    blocks_per_slice:
        slc-split binning: number of thread blocks assigned to each slice
        (all ones when slc-split is disabled).
    original_num_fibers:
        Fiber count before fbr-split (for storage accounting — the index
        arrays that must be materialised are the *split* ones).
    """

    csf: CsfTensor
    config: SplitConfig
    segment_of_fiber: np.ndarray
    blocks_per_slice: np.ndarray
    original_num_fibers: int

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.csf.shape

    @property
    def order(self) -> int:
        return self.csf.order

    @property
    def root_mode(self) -> int:
        return self.csf.root_mode

    @property
    def nnz(self) -> int:
        return self.csf.nnz

    @property
    def num_slices(self) -> int:
        return self.csf.num_slices

    @property
    def num_fiber_segments(self) -> int:
        return self.csf.num_fibers

    @property
    def num_blocks(self) -> int:
        """Total thread blocks launched for this tensor (after slc-split)."""
        return int(self.blocks_per_slice.sum()) if self.blocks_per_slice.size else 0

    # ------------------------------------------------------------------ #
    # computation / accounting
    # ------------------------------------------------------------------ #
    def mttkrp(self, factors: list[np.ndarray],
               out: np.ndarray | None = None,
               dtype=None, validate: bool = True) -> np.ndarray:
        """Exact MTTKRP for the root mode (same result as plain CSF).

        The split tree was produced by :func:`build_bcsf` and satisfies the
        CSF invariants by construction, so the per-level monotonicity scans
        are skipped regardless of ``validate``; ``validate=False``
        additionally skips the factor-shape checks for trusted
        re-invocations (ALS inner loops).
        """
        if validate:
            _check_factors(self.shape, factors, self.root_mode)
        return csf_mttkrp(self.csf, factors, out=out, dtype=dtype,
                          validate=False)

    def index_storage_words(self) -> int:
        """32-bit index words of the materialised (split) structure."""
        return self.csf.index_storage_words()

    def max_nnz_per_fiber(self) -> int:
        fiber_nnz = self.csf.nnz_per_fiber()
        return int(fiber_nnz.max()) if fiber_nnz.size else 0

    def to_coo(self) -> CooTensor:
        return self.csf.to_coo()

    def describe(self) -> dict[str, int]:
        """Summary used by the experiment drivers."""
        return {
            "nnz": self.nnz,
            "slices": self.num_slices,
            "fiber_segments": self.num_fiber_segments,
            "original_fibers": self.original_num_fibers,
            "thread_blocks": self.num_blocks,
            "max_nnz_per_fiber": self.max_nnz_per_fiber(),
        }


def build_bcsf(
    tensor: CooTensor | CsfTensor,
    mode: int = 0,
    config: SplitConfig | None = None,
) -> BcsfTensor:
    """Build a B-CSF representation rooted at ``mode``.

    Parameters
    ----------
    tensor:
        COO tensor or sharded tensor (a CSF is built first, streaming a
        sharded one shard at a time) or an existing CSF whose root mode
        must equal ``mode``.
    mode:
        Root mode of the representation.
    config:
        Splitting configuration; defaults to the paper's settings (fiber
        threshold 128, block capacity 512).
    """
    config = config or SplitConfig()
    if isinstance(tensor, CsfTensor):
        if tensor.root_mode != mode:
            raise DimensionError(
                f"CSF is rooted at mode {tensor.root_mode}, requested mode {mode}"
            )
        csf = tensor
    else:
        csf = build_csf(tensor, mode)

    original_fibers = csf.num_fibers
    split_csf, segment_of_fiber = split_long_fibers(csf, config.fiber_threshold)
    blocks = slice_block_bins(split_csf.nnz_per_slice(), config.block_nnz)
    return BcsfTensor(
        csf=split_csf,
        config=config,
        segment_of_fiber=segment_of_fiber,
        blocks_per_slice=blocks,
        original_num_fibers=original_fibers,
    )
