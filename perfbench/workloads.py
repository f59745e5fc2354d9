"""The benchmark's three fixed workloads.

Each workload is one scenario spec at 10^6 nonzeros (third order, the
paper's rank R = 32, float64, ``format="hb-csf"``) plus the execution
backend its MTTKRP sweeps and ALS solves run on.  The spec's seed is
``base_seed + --seed``, so ``--seed 0`` reproduces the named suite entry
the workload was taken from and every other seed is a fresh draw of the
same distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: the paper's decomposition rank.
RANK = 32

#: nonzero budget of every workload (the paper's scale).
NNZ = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    shape: tuple[int, int, int]
    base_seed: int
    backend: str = "serial"
    num_workers: int = 1
    params: dict = field(default_factory=dict)

    def scenario(self, seed: int, scale: float = 1.0) -> dict:
        """The scenario spec for ``seed``.

        ``scale`` < 1 shrinks the nonzero budget by ``scale`` and every
        mode by ``sqrt(scale)`` (density stays within the generators'
        ranges); it exists for fast smoke tests, never for measurement.
        """
        dim_scale = math.sqrt(scale)
        return {
            "generator": self.generator,
            "shape": [max(16, round(d * dim_scale)) for d in self.shape],
            "nnz": max(1_000, round(NNZ * scale)),
            "seed": self.base_seed + int(seed),
            "params": dict(self.params),
        }


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # The imbalance_sweep "heavy-45pct" structure at 10^6 nnz: nearly every
    # nonzero lands in the B-CSF group (fiber splitting + tree reduce).
    Workload(
        name="skewed-par2",
        generator="power_law",
        shape=(20_000, 8_000, 30_000),
        base_seed=2_003,
        backend="threads",
        num_workers=2,
        params={"fiber_alpha": 1.9, "max_fiber_nnz": 500,
                "slice_alpha": 0.7, "num_heavy_slices": 3,
                "heavy_slice_fraction": 0.45},
    ),
    # scale_ladder_xl "xl-1m", generated in memory: a CSL / B-CSF mix.
    Workload(
        name="community",
        generator="block_community",
        shape=(40_000, 30_000, 50_000),
        base_seed=9_000,
        params={"num_blocks": 12, "within_fraction": 0.8,
                "block_alpha": 1.2},
    ),
    # Uniform over a huge grid: almost every nonzero is a singleton fiber,
    # so the CSL / COO groups carry the work and the tree reduce is idle.
    Workload(
        name="hypersparse",
        generator="uniform",
        shape=(200_000, 150_000, 250_000),
        base_seed=0,
    ),
)}
