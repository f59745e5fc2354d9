"""Simulation results and derived metrics.

``achieved_occupancy`` and ``sm_efficiency`` follow the nvprof definitions
the paper uses (Section IV):

* *achieved occupancy* — ratio of the average number of active warps per
  active cycle to the maximum number of warps supported on an SM;
* *sm_efficiency* — percentage of time at least one warp is active on an SM,
  averaged over all SMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.counters import counter_add

__all__ = ["KernelResult", "fold_into_counters"]


@dataclass(frozen=True)
class KernelResult:
    """Outcome of simulating one kernel (or a short sequence of kernels).

    Attributes
    ----------
    name:
        Kernel / format name.
    time_seconds:
        Simulated execution time (compute/memory maximum plus launch
        overhead).
    compute_seconds / memory_seconds:
        The two roofline components.
    flops:
        Useful floating-point operations (format-specific count).
    gflops:
        ``flops / time_seconds / 1e9`` — the metric Figures 5-8 report.
    achieved_occupancy:
        0-1; nvprof's ``achieved_occupancy``.
    sm_efficiency:
        0-1; nvprof's ``sm_efficiency``.
    l2_hit_rate:
        0-1; proxy for nvprof's L2 hit rate.
    num_blocks:
        Thread blocks launched.
    num_kernels:
        Number of kernel launches folded into this result (HB-CSF runs up
        to three).
    dram_bytes:
        Estimated DRAM traffic.
    details:
        Free-form extras for reports (per-group breakdown, etc.).
    """

    name: str
    time_seconds: float
    compute_seconds: float
    memory_seconds: float
    flops: float
    achieved_occupancy: float
    sm_efficiency: float
    l2_hit_rate: float
    num_blocks: int
    num_kernels: int = 1
    dram_bytes: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        if self.time_seconds <= 0:
            return 0.0
        return self.flops / self.time_seconds / 1e9

    @property
    def time_ms(self) -> float:
        return self.time_seconds * 1e3

    def speedup_over(self, other: "KernelResult | float") -> float:
        """Speedup of *this* result relative to ``other`` (time ratio)."""
        other_time = other.time_seconds if isinstance(other, KernelResult) else float(other)
        if self.time_seconds <= 0:
            return float("inf")
        return other_time / self.time_seconds

    def as_row(self) -> dict[str, float | int | str]:
        """Flat dict used by the experiment report tables."""
        return {
            "kernel": self.name,
            "time_ms": round(self.time_ms, 4),
            "gflops": round(self.gflops, 2),
            "occupancy_pct": round(100 * self.achieved_occupancy, 1),
            "sm_efficiency_pct": round(100 * self.sm_efficiency, 1),
            "l2_hit_pct": round(100 * self.l2_hit_rate, 1),
            "blocks": self.num_blocks,
        }


def fold_into_counters(result: KernelResult) -> KernelResult:
    """Accumulate one simulation's metrics into the telemetry registry.

    Called by the simulator executor for every top-level simulation, so
    counter deltas and traces see simulated work (``gpusim.*`` counters) with
    the same delta accounting as the exact-kernel counters.  Returns the
    result unchanged for call-through convenience.
    """
    counter_add("gpusim.simulations")
    counter_add("gpusim.sim_time_seconds", result.time_seconds)
    counter_add("gpusim.flops", result.flops)
    counter_add("gpusim.blocks", result.num_blocks)
    counter_add("gpusim.launches", result.num_kernels)
    counter_add("gpusim.dram_bytes", result.dram_bytes)
    return result


def combine_sequential(name: str, results: list[KernelResult]) -> KernelResult:
    """Combine kernels executed back-to-back into one aggregate result.

    Times add; occupancy / efficiency / hit-rate are time-weighted averages;
    flops and traffic add.  Used for HB-CSF's three-group execution.
    """
    results = [r for r in results if r is not None]
    if not results:
        raise ValueError("combine_sequential needs at least one result")
    total_time = sum(r.time_seconds for r in results)
    weight = [r.time_seconds / total_time if total_time > 0 else 1 / len(results)
              for r in results]
    return KernelResult(
        name=name,
        time_seconds=total_time,
        compute_seconds=sum(r.compute_seconds for r in results),
        memory_seconds=sum(r.memory_seconds for r in results),
        flops=sum(r.flops for r in results),
        achieved_occupancy=sum(w * r.achieved_occupancy for w, r in zip(weight, results)),
        sm_efficiency=sum(w * r.sm_efficiency for w, r in zip(weight, results)),
        l2_hit_rate=sum(w * r.l2_hit_rate for w, r in zip(weight, results)),
        num_blocks=sum(r.num_blocks for r in results),
        num_kernels=sum(r.num_kernels for r in results),
        dram_bytes=sum(r.dram_bytes for r in results),
        details={"parts": [r.as_row() for r in results]},
    )
