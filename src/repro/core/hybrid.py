"""HB-CSF: the Hybrid Balanced-CSF format (Section V / Algorithm 5).

Slices of a CSF tree are partitioned into three groups and each group is
stored in the representation that wastes the least space and work on it:

1. slices holding a **single nonzero**            → COO;
2. slices whose fibers are **all singletons**     → CSL;
3. everything else                                → B-CSF (with fbr-/slc-split).

One MTTKRP call executes the three group kernels and accumulates into the
same output matrix, exactly as lines 18-20 of Algorithm 5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bcsf import BcsfTensor, build_bcsf
from repro.core.csl import CslGroup, build_csl_group, empty_csl_group
from repro.core.splitting import SplitConfig
from repro.kernels.coo_mttkrp import coo_mttkrp
from repro.kernels.csf_mttkrp import rank_major
from repro.tensor.coo import CooTensor, INDEX_DTYPE
from repro.tensor.csf import CsfTensor, build_csf
from repro.tensor.dense import _check_factors
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DimensionError

__all__ = ["SlicePartition", "HbcsfTensor", "partition_slices", "build_hbcsf"]


@dataclass(frozen=True)
class SlicePartition:
    """Boolean masks assigning every CSF slice to exactly one group."""

    coo_mask: np.ndarray
    csl_mask: np.ndarray
    csf_mask: np.ndarray

    def counts(self) -> dict[str, int]:
        return {
            "coo": int(self.coo_mask.sum()),
            "csl": int(self.csl_mask.sum()),
            "csf": int(self.csf_mask.sum()),
        }

    def validate(self) -> None:
        total = (self.coo_mask.astype(int) + self.csl_mask.astype(int)
                 + self.csf_mask.astype(int))
        if np.any(total != 1):
            raise DimensionError("slice partition is not an exact 3-way partition")


def partition_slices(csf: CsfTensor) -> SlicePartition:
    """Classify each slice per the rules of Algorithm 5 (lines 10-16)."""
    num_slices = csf.num_slices
    if num_slices == 0:
        empty = np.zeros(0, dtype=bool)
        return SlicePartition(empty, empty.copy(), empty.copy())

    nnz_per_slice = csf.nnz_per_slice()
    fiber_nnz = csf.nnz_per_fiber()
    slice_of_fiber = csf.slice_of_fiber()

    # A slice is "all singleton fibers" iff its maximum fiber length is 1.
    max_fiber_len = np.zeros(num_slices, dtype=np.int64)
    np.maximum.at(max_fiber_len, slice_of_fiber, fiber_nnz)

    coo_mask = nnz_per_slice == 1
    csl_mask = (~coo_mask) & (max_fiber_len == 1)
    csf_mask = ~(coo_mask | csl_mask)
    partition = SlicePartition(coo_mask, csl_mask, csf_mask)
    partition.validate()
    return partition


@dataclass(frozen=True)
class HbcsfTensor:
    """Hybrid B-CSF representation for one root mode."""

    shape: tuple[int, ...]
    mode_order: tuple[int, ...]
    partition: SlicePartition
    coo_group: CooTensor
    csl_group: CslGroup
    bcsf_group: BcsfTensor | None
    config: SplitConfig

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def root_mode(self) -> int:
        return self.mode_order[0]

    @property
    def nnz(self) -> int:
        return (self.coo_group.nnz + self.csl_group.nnz
                + (self.bcsf_group.nnz if self.bcsf_group is not None else 0))

    def group_nnz(self) -> dict[str, int]:
        return {
            "coo": self.coo_group.nnz,
            "csl": self.csl_group.nnz,
            "csf": self.bcsf_group.nnz if self.bcsf_group is not None else 0,
        }

    def group_slices(self) -> dict[str, int]:
        return self.partition.counts()

    # ------------------------------------------------------------------ #
    # computation / accounting
    # ------------------------------------------------------------------ #
    def mttkrp(self, factors: list[np.ndarray],
               out: np.ndarray | None = None,
               dtype=None, validate: bool = True) -> np.ndarray:
        """Execute the three group kernels (Algorithm 5, lines 18-20).

        The factor shapes are checked once here; the three group kernels
        run with ``validate=False`` — their structures were validated at
        build time and re-scanning the pointers on every call would undo
        the fast path.  ``validate=False`` skips the shape check too.  The
        factors are converted to the kernels' rank-major layout once here,
        not once per group.
        """
        if validate:
            rank = _check_factors(self.shape, factors, self.root_mode)
        else:
            rank = factors[self.root_mode].shape[1]
        rows = self.shape[self.root_mode]
        if out is None:
            out = np.zeros((rows, rank), dtype=resolve_dtype(dtype), order="F")
        elif out.shape != (rows, rank):
            raise DimensionError(f"out has shape {out.shape}, expected {(rows, rank)}")
        factors = rank_major(factors, out.dtype, skip=self.root_mode)
        if self.coo_group.nnz:
            coo_mttkrp(self.coo_group, factors, self.root_mode, out=out,
                       validate=False)
        if self.csl_group.nnz:
            self.csl_group.mttkrp(factors, out, validate=False)
        if self.bcsf_group is not None and self.bcsf_group.nnz:
            self.bcsf_group.mttkrp(factors, out=out, validate=False)
        return out

    def index_storage_words(self) -> int:
        """Total 32-bit index words across the three groups (Section V-B)."""
        words = self.order * self.coo_group.nnz          # full COO tuples
        words += self.csl_group.index_storage_words()
        if self.bcsf_group is not None:
            words += self.bcsf_group.index_storage_words()
        return int(words)

    def to_coo(self) -> CooTensor:
        """Reassemble the full tensor (testing / round-trip checks)."""
        parts: list[CooTensor] = []
        if self.coo_group.nnz:
            parts.append(self.coo_group)
        if self.csl_group.nnz:
            parts.append(self.csl_group.to_coo())
        if self.bcsf_group is not None and self.bcsf_group.nnz:
            parts.append(self.bcsf_group.to_coo())
        if not parts:
            return CooTensor.empty(self.shape)
        indices = np.concatenate([p.indices for p in parts], axis=0)
        values = np.concatenate([p.values for p in parts])
        return CooTensor(indices, values, self.shape, validate=False)

    def describe(self) -> dict[str, object]:
        return {
            "root_mode": self.root_mode,
            "nnz": self.nnz,
            "slices": self.group_slices(),
            "group_nnz": self.group_nnz(),
            "index_words": self.index_storage_words(),
        }


def build_hbcsf(
    tensor: CooTensor | CsfTensor,
    mode: int = 0,
    config: SplitConfig | None = None,
) -> HbcsfTensor:
    """Build the HB-CSF representation rooted at ``mode`` (Algorithm 5)."""
    config = config or SplitConfig()
    if isinstance(tensor, CsfTensor):
        if tensor.root_mode != mode:
            raise DimensionError(
                f"CSF is rooted at mode {tensor.root_mode}, requested mode {mode}"
            )
        csf = tensor
    else:
        csf = build_csf(tensor, mode)

    partition = partition_slices(csf)

    # --- COO group: slices with a single nonzero ------------------------ #
    coo_group = _extract_coo_group(csf, partition.coo_mask)

    # --- CSL group: slices with only singleton fibers ------------------- #
    if partition.csl_mask.any():
        csl_group = build_csl_group(csf, partition.csl_mask)
    else:
        csl_group = empty_csl_group(csf.shape, csf.mode_order)

    # --- B-CSF group: the rest ------------------------------------------ #
    bcsf_group: BcsfTensor | None = None
    if partition.csf_mask.any():
        remaining = _extract_subtensor(csf, partition.csf_mask)
        bcsf_group = build_bcsf(remaining, mode, config)

    return HbcsfTensor(
        shape=csf.shape,
        mode_order=csf.mode_order,
        partition=partition,
        coo_group=coo_group,
        csl_group=csl_group,
        bcsf_group=bcsf_group,
        config=config,
    )


def _extract_coo_group(csf: CsfTensor, mask: np.ndarray) -> CooTensor:
    """COO tensor holding the nonzeros of the masked slices."""
    if not mask.any() or csf.nnz == 0:
        return CooTensor.empty(csf.shape)
    coo = _extract_subtensor(csf, mask)
    return coo


def _extract_subtensor(csf: CsfTensor, mask: np.ndarray) -> CooTensor:
    """COO tensor restricted to the slices selected by ``mask``."""
    leaf_slice = csf.node_index_of_leaf(0)
    keep = np.asarray(mask, dtype=bool)[leaf_slice]
    full = csf.to_coo()
    return CooTensor(full.indices[keep], full.values[keep], csf.shape,
                     validate=False)
