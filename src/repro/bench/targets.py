"""Benchmark-target registry.

A *target* is any timeable operation of the library: an exact MTTKRP
kernel, a format build, a gpusim-simulated kernel, a full CPD-ALS solve.
Each target declares a ``setup(tensor, rank)`` callable that does all
untimed preparation (format construction, factor generation) and returns a
zero-argument closure — the closure is what the runner times.  ``build.*``
targets invert that: construction *is* the timed operation.

Targets are registered declaratively (the same pattern as
:mod:`repro.scenarios.registry`), so the ``repro-bench`` CLI, the tests
and the examples iterate one shared list instead of duplicating timing
glue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Callable, Iterable

import numpy as np

from repro.tensor.coo import CooTensor
from repro.util.errors import ValidationError
from repro.util.prng import default_rng

__all__ = [
    "BenchTarget",
    "register_target",
    "get_target",
    "target_names",
    "target_groups",
    "expand_targets",
    "DEFAULT_MATRIX_GROUP",
    "PAR_WORKER_COUNTS",
]

#: target group the ``matrix`` subcommand sweeps by default.
DEFAULT_MATRIX_GROUP = "kernel"

#: seed used for benchmark factor matrices (fixed: factors must not vary
#: between the runs a comparison wants to line up).
_FACTOR_SEED = 20190520


@dataclass(frozen=True)
class BenchTarget:
    """One registered timeable operation.

    ``setup(tensor, rank)`` returns the closure the runner times;
    ``probe(result)`` (optional) receives the closure's final return value
    and extracts extra JSON-safe metrics recorded alongside the timings
    (e.g. the simulated GPU seconds for ``sim.*`` targets, where
    wall-clock measures the *simulator*).  ``materialize`` selects how the
    runner materialises each scenario for this target: ``"coo"`` (one
    in-RAM :class:`CooTensor`, the default) or ``"sharded"`` (an on-disk
    :class:`~repro.tensor.shards.ShardedCooTensor` manifest, for the
    out-of-core ``*.ooc.*`` targets whose whole point is never holding the
    tensor in memory).
    """

    name: str
    group: str
    description: str
    setup: Callable[[CooTensor, int], Callable[[], object]]
    probe: Callable[[object], dict] | None = field(default=None)
    materialize: str = "coo"


_TARGETS: dict[str, BenchTarget] = {}


def register_target(name: str, *, group: str, description: str,
                    probe: Callable[[object], dict] | None = None,
                    materialize: str = "coo",
                    overwrite: bool = False):
    """Decorator registering a ``setup`` callable as benchmark target ``name``."""
    if materialize not in ("coo", "sharded"):
        raise ValidationError(
            f"materialize must be 'coo' or 'sharded', got {materialize!r}")

    def decorator(setup: Callable[[CooTensor, int], Callable[[], object]]):
        if name in _TARGETS and not overwrite:
            raise ValidationError(f"bench target {name!r} is already registered")
        _TARGETS[name] = BenchTarget(name=name, group=group,
                                     description=description, setup=setup,
                                     probe=probe, materialize=materialize)
        return setup

    return decorator


def get_target(name: str) -> BenchTarget:
    try:
        return _TARGETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown bench target {name!r}; available: "
            f"{', '.join(sorted(_TARGETS)) or '(none)'}"
        ) from None


def target_names(group: str | None = None) -> list[str]:
    """Sorted target names (deterministic listing), optionally one group."""
    return sorted(n for n, t in _TARGETS.items()
                  if group is None or t.group == group)


def target_groups() -> list[str]:
    return sorted({t.group for t in _TARGETS.values()})


def expand_targets(patterns: Iterable[str]) -> list[str]:
    """Resolve names / group names / glob patterns to sorted target names.

    ``"kernel"`` (a group) and ``"kernel.*"`` (a glob) are equivalent; an
    exact name passes through.  Unknown patterns raise.
    """
    selected: set[str] = set()
    for pattern in patterns:
        pattern = pattern.strip()
        if not pattern:
            continue
        if pattern in _TARGETS:
            selected.add(pattern)
            continue
        if pattern in target_groups():
            selected.update(target_names(pattern))
            continue
        matches = [n for n in _TARGETS if fnmatchcase(n, pattern)]
        if not matches:
            raise ValidationError(
                f"target pattern {pattern!r} matches nothing; targets: "
                f"{', '.join(sorted(_TARGETS))}")
        selected.update(matches)
    return sorted(selected)


def bench_factors(shape: tuple[int, ...], rank: int,
                  dtype=None) -> list[np.ndarray]:
    """Deterministic factor matrices shared by every kernel target.

    ``dtype`` applies the compute-dtype policy (:mod:`repro.util.dtypes`);
    the float32 factors are the float64 draws cast down, so both dtypes
    measure the same problem.  The factors are F-contiguous, the CSF tree
    kernel's rank-major layout, so a tree-kernel cell times the kernel and
    not a layout copy.  The row-major CSL and COO kernels (and the HB-CSF
    groups that run them) convert the gathered modes to row tables once
    per call, and a cell's time includes that copy, as an ALS sweep's does.
    """
    from repro.kernels.csf_mttkrp import rank_major
    from repro.util.dtypes import resolve_dtype

    rng = default_rng(_FACTOR_SEED)
    return rank_major([rng.standard_normal((s, rank)) for s in shape],
                      resolve_dtype(dtype))


# --------------------------------------------------------------------- #
# kernel.* — exact MTTKRP kernels (mode 0, the paper's reporting mode),
# one target per registry entry of the paper's format family.  No format
# names are written out here: the registry is the single enumeration.
# --------------------------------------------------------------------- #
def _csl_eligible_inputs(tensor: CooTensor):
    """Mode-0 CSF tree plus the mask of CSL-*representable* slices.

    Representable means every fiber of the slice is a singleton; that is
    the partitioner's csl group plus the single-nonzero slices (which
    HB-CSF routes to its COO kernel, but which CSL can store just as well).
    Shared by ``kernel.csl`` and ``build.csl`` so both measure the same
    slice subset.
    """
    from repro.core.hybrid import partition_slices
    from repro.tensor.csf import build_csf

    csf = build_csf(tensor, 0)
    partition = partition_slices(csf)
    return csf, partition.coo_mask | partition.csl_mask


def _bench_representation(spec, tensor: CooTensor, dtype=None):
    """Mode-0 representation for benchmarking; formats restricted to
    all-singleton-fiber slices (CSL) get the eligible subset.

    Value arrays are downcast at build time (like the registered
    builders), so the timed laps never pay a per-call dtype conversion."""
    if spec.requires_singleton_fibers:
        from repro.core.csl import build_csl_group
        from repro.util.dtypes import cast_values

        return cast_values(build_csl_group(*_csl_eligible_inputs(tensor)),
                           dtype)
    return spec.build(tensor, 0, None, dtype)


def _register_format_kernel(name: str) -> None:
    from repro.formats import get_format

    spec = get_format(name)
    suffix = (" over the CSL-eligible slices" if spec.requires_singleton_fibers
              else "")
    @register_target(f"kernel.{name}", group="kernel",
                     description=f"{name} MTTKRP{suffix}; build untimed")
    def _kernel(tensor: CooTensor, rank: int, dtype=None, backend=None,
                num_workers=None,
                _name: str = name) -> Callable[[], object]:
        from repro.formats import get_format

        fmt = get_format(_name)
        rep = _bench_representation(fmt, tensor, dtype)
        factors = bench_factors(tensor.shape, rank, dtype)
        return lambda: fmt.mttkrp(rep, factors, 0, dtype=dtype,
                                  backend=backend, num_workers=num_workers)


#: worker counts each ``kernel.par.<format>.wN`` cell is registered for.
PAR_WORKER_COUNTS = (2, 4)


def _par_probe(result: object) -> dict:
    return dict(result)


def _register_par_kernel(name: str, workers: int) -> None:
    @register_target(f"kernel.par.{name}.w{workers}", group="kernel.par",
                     description=f"{name} MTTKRP on the threaded backend "
                                 f"({workers} workers); build + shard plan "
                                 "untimed; the probe records the serial "
                                 "reference seconds so speedup-vs-workers "
                                 "is derivable from one run",
                     probe=_par_probe)
    def _kernel(tensor: CooTensor, rank: int, dtype=None,
                _name: str = name,
                _workers: int = workers) -> Callable[[], object]:
        from repro.formats import get_format
        from repro.util.timing import repeat as time_repeat

        fmt = get_format(_name)
        rep = _bench_representation(fmt, tensor, dtype)
        factors = bench_factors(tensor.shape, rank, dtype)

        def serial() -> object:
            return fmt.mttkrp(rep, factors, 0, dtype=dtype, backend="serial")

        def threaded() -> object:
            return fmt.mttkrp(rep, factors, 0, dtype=dtype,
                              backend="threads", num_workers=_workers)

        # untimed: the serial reference for the probe, and one threaded
        # call to populate the shard-plan memo so the timed laps measure
        # execution, not partitioning
        _, serial_timer = time_repeat(serial, n=3, warmup=2)
        threaded()
        metrics = {"serial_seconds": serial_timer.best, "workers": _workers}

        def run() -> dict:
            threaded()
            return metrics

        return run


def _register_registry_targets() -> None:
    from repro.formats import format_names, get_format

    for fmt_name in format_names(kind="own", cpu=True):
        _register_format_kernel(fmt_name)

    # kernel.par.* — threaded-backend cells, one per sharded format x
    # worker count.  Kept out of the default "kernel" matrix group: each
    # cell times extra serial reference laps, and on single-core runners
    # the numbers answer a different question (overhead, not speedup).
    for fmt_name in format_names(kind="own", cpu=True):
        if not get_format(fmt_name).supports_threads:
            continue
        for workers in PAR_WORKER_COUNTS:
            _register_par_kernel(fmt_name, workers)

    # build.* — format construction (the paper's pre-processing axis).
    for fmt_name in format_names(kind="own"):
        spec = get_format(fmt_name)
        if spec.requires_singleton_fibers:
            _register_csl_build(fmt_name)
            continue
        _register_format_build(fmt_name)

    # sim.* — analytical GPU simulations of the format kernels.
    for fmt_name in format_names(gpusim=True):
        if get_format(fmt_name).sim_in_bench:
            _register_sim(fmt_name)


def _register_coo_variant(suffix: str, method: str) -> None:
    @register_target(f"kernel.coo-{suffix}", group="kernel",
                     description=f"COO MTTKRP forced onto the {method!r} "
                                 "accumulation path")
    def _kernel(tensor: CooTensor, rank: int, dtype=None,
                _method: str = method) -> Callable[[], object]:
        from repro.kernels.coo_mttkrp import coo_mttkrp

        factors = bench_factors(tensor.shape, rank, dtype)
        return lambda: coo_mttkrp(tensor, factors, 0, method=_method,
                                  dtype=dtype)


for _suffix, _method in (("scatter", "add_at"), ("sorted", "sort")):
    _register_coo_variant(_suffix, _method)


@register_target("kernel.dispatch", group="kernel",
                 description="public mttkrp() registry dispatch, hb-csf "
                             "(format construction served by the plan cache)")
def _kernel_dispatch(tensor: CooTensor, rank: int,
                     dtype=None) -> Callable[[], object]:
    from repro.core.mttkrp import mttkrp

    factors = bench_factors(tensor.shape, rank, dtype)
    return lambda: mttkrp(tensor, factors, 0, "hb-csf", dtype=dtype)


def _auto_probe(result: object) -> dict:
    return dict(result)


@register_target("kernel.auto", group="kernel",
                 description="autotuned mttkrp(format='auto') dispatch; the "
                             "probe and the winning format's build run "
                             "untimed, so this measures steady-state tuned "
                             "dispatch",
                 probe=_auto_probe)
def _kernel_auto(tensor: CooTensor, rank: int,
                 dtype=None) -> Callable[[], object]:
    from repro.core.mttkrp import mttkrp
    from repro.tune import decide

    factors = bench_factors(tensor.shape, rank, dtype)
    # Untimed: make the decision (and build the winner's representation)
    # now, so the timed closure exercises the decision-cache hit path that
    # production ALS sweeps see.
    decision = decide(tensor, 0, rank, dtype=dtype)
    elected = {"elected": decision.label}

    def run() -> dict:
        mttkrp(tensor, factors, 0, format="auto", dtype=dtype)
        return elected

    return run


def _plan_reuse_probe(result: object) -> dict:
    return dict(result)


@register_target("kernel.plan_reuse", group="kernel",
                 description="MttkrpPlan (all modes) + one ALLMODE MTTKRP "
                             "sweep through the build-plan cache: the first "
                             "invocation builds, later ones reuse",
                 probe=_plan_reuse_probe)
def _kernel_plan_reuse(tensor: CooTensor, rank: int) -> Callable[[], object]:
    from repro.core.mttkrp import MttkrpPlan
    from repro.formats import plan_cache, plan_cache_stats, tensor_fingerprint

    factors = bench_factors(tensor.shape, rank)
    # Self-contained measurement: evict only this tensor's hb-csf entries
    # so the first lap pays the builds and every later lap demonstrates the
    # amortisation — without wiping unrelated cached representations.
    plan_cache().discard(format="hb-csf",
                         fingerprint=tensor_fingerprint(tensor))

    def run() -> dict:
        before = plan_cache_stats()
        plan = MttkrpPlan(tensor, format="hb-csf")
        for m in range(tensor.order):
            plan.mttkrp(factors, m)
        after = plan_cache_stats()
        return {
            "plan_cache_hits": after["hits"] - before["hits"],
            "plan_cache_misses": after["misses"] - before["misses"],
            "preprocessing_seconds": plan.preprocessing_seconds,
        }

    return run


# --------------------------------------------------------------------- #
# build.* — format construction (the paper's pre-processing axis)
# --------------------------------------------------------------------- #
def _register_format_build(name: str) -> None:
    @register_target(f"build.{name}", group="build",
                     description=f"{name} construction from COO "
                                 "(mode-0 root)")
    def _build(tensor: CooTensor, rank: int, dtype=None,
               _name: str = name) -> Callable[[], object]:
        from repro.formats import get_format

        fmt = get_format(_name)
        return lambda: fmt.build(tensor, 0, None, dtype)


def _register_csl_build(name: str) -> None:
    @register_target(f"build.{name}", group="build",
                     description=f"{name} group construction over the "
                                 "CSL-eligible slices (CSF build untimed)")
    def _build(tensor: CooTensor, rank: int,
               _name: str = name) -> Callable[[], object]:
        from repro.core.csl import build_csl_group

        csf, mask = _csl_eligible_inputs(tensor)
        return lambda: build_csl_group(csf, mask)


# --------------------------------------------------------------------- #
# *.ooc.* — the same operations fed from an on-disk shard manifest
# (materialize="sharded"): the runner hands these targets a
# ShardedCooTensor and the format builders stream it chunk by chunk, so
# the cell's peak RSS is bounded by shards, not by nnz.  The probe's
# metrics record the manifest geometry the memory gate divides by.
# --------------------------------------------------------------------- #
def _ooc_probe(result: object) -> dict:
    return dict(result)


def _ooc_manifest_metrics(tensor) -> dict:
    return {
        "num_shards": tensor.num_shards,
        "largest_shard_bytes": tensor.largest_shard_bytes,
    }


def _register_ooc_build(name: str) -> None:
    @register_target(f"build.ooc.{name}", group="build.ooc",
                     description=f"{name} construction streamed from a shard "
                                 "manifest (mode-0 root); the mode-sorted "
                                 "shard view is built during warmup and "
                                 "cached on disk, so timed laps measure the "
                                 "chunk-by-chunk build itself",
                     probe=_ooc_probe, materialize="sharded")
    def _build(tensor, rank: int, dtype=None,
               _name: str = name) -> Callable[[], object]:
        from repro.formats import get_format

        fmt = get_format(_name)
        metrics = _ooc_manifest_metrics(tensor)

        def run() -> dict:
            fmt.build(tensor, 0, None, dtype)
            return metrics

        return run


def _register_ooc_kernel(name: str) -> None:
    @register_target(f"kernel.ooc.{name}", group="kernel.ooc",
                     description=f"{name} MTTKRP on a representation built "
                                 "by streaming from a shard manifest (build "
                                 "untimed) — the kernel laps are identical "
                                 f"to kernel.{name}, proving the streamed "
                                 "build feeds the same downstream path",
                     probe=_ooc_probe, materialize="sharded")
    def _kernel(tensor, rank: int, dtype=None, backend=None,
                num_workers=None, _name: str = name) -> Callable[[], object]:
        from repro.formats import get_format

        fmt = get_format(_name)
        rep = fmt.build(tensor, 0, None, dtype)
        factors = bench_factors(tensor.shape, rank, dtype)
        metrics = _ooc_manifest_metrics(tensor)

        def run() -> dict:
            fmt.mttkrp(rep, factors, 0, dtype=dtype, backend=backend,
                       num_workers=num_workers)
            return metrics

        return run


def _register_ooc_targets() -> None:
    from repro.formats import format_names, get_format

    for fmt_name in format_names(kind="own", cpu=True):
        # COO "builds" from shards by concatenating them back into RAM and
        # the CSL group needs an eligible-slice mask — neither exercises
        # the chunk-by-chunk CSF-family builds this group exists to measure.
        if fmt_name == "coo" or get_format(fmt_name).requires_singleton_fibers:
            continue
        _register_ooc_build(fmt_name)
        _register_ooc_kernel(fmt_name)


# --------------------------------------------------------------------- #
# sim.* — analytical GPU simulations.  Wall-clock times the simulator
# itself (its cost matters for experiment-driver throughput); the probe
# reads the simulated kernel time/GFLOPS the figures are built from off
# the timed closure's (deterministic) result.
# --------------------------------------------------------------------- #
def _sim_probe(result: object) -> dict:
    return {
        "simulated_seconds": result.time_seconds,
        "simulated_gflops": result.gflops,
    }


def _register_sim(fmt: str) -> None:
    @register_target(f"sim.{fmt}", group="sim",
                     description=f"analytical GPU simulation of the {fmt} "
                                 "MTTKRP kernel (times the simulator)",
                     probe=_sim_probe)
    def _sim(tensor: CooTensor, rank: int,
             _fmt: str = fmt) -> Callable[[], object]:
        from repro.gpusim.api import simulate_mttkrp

        return lambda: simulate_mttkrp(tensor, 0, rank, format=_fmt)


_register_registry_targets()
_register_ooc_targets()


# --------------------------------------------------------------------- #
# cpd.* — end-to-end CPD-ALS iterations
# --------------------------------------------------------------------- #
@register_target("cpd.als", group="cpd",
                 description="two CPD-ALS iterations (HB-CSF plan, with fit)")
def _cpd_als(tensor: CooTensor, rank: int,
             dtype=None) -> Callable[[], object]:
    from repro.cpd.als import cp_als

    # a fresh RNG per lap: every repetition must solve the identically
    # initialized problem or laps (and runs) are not comparable
    return lambda: cp_als(tensor, rank, n_iters=2, tol=0.0,
                          format="hb-csf", rng=default_rng(_FACTOR_SEED),
                          dtype=dtype)
