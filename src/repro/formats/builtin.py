"""Registration of the built-in formats.

One :class:`~repro.formats.registry.FormatSpec` per format, in paper order:
the four public formats of the evaluation (COO, CSF, B-CSF, HB-CSF), CSL
(Section V-A — previously only reachable as an HB-CSF group), and the
baseline frameworks (SPLATT non-tiled/tiled, HiCOO, ParTI, F-COO).

All builder/kernel/simulation callables import their implementation modules
lazily, so importing :mod:`repro.formats` stays cheap and free of import
cycles; the implementation modules themselves know nothing about the
registry.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.formats.registry import FormatSpec, register_format
from repro.util.dtypes import cast_values, resolve_dtype
from repro.util.errors import ValidationError

__all__: list[str] = []


def _mode_major_order(order: int, mode: int) -> tuple[int, ...]:
    return tuple([mode] + [x for x in range(order) if x != mode])


def _materialized(tensor):
    """In-RAM COO view of a possibly sharded tensor (duck-typed: see
    ``ShardedCooTensor.is_sharded``).

    Used by the representations that are inherently in-memory (COO itself
    and the modeled baselines, whose classes do their own whole-tensor
    preprocessing); the CSF-family builders stream instead.
    """
    return tensor.to_coo() if getattr(tensor, "is_sharded", False) else tensor


def _simulate_kernel_for(workload, device, memory_model):
    from repro.gpusim.executor import simulate_kernel

    return simulate_kernel(workload, device, memory_model)


# Threaded-backend sharders (lazy like every other registered callable).
# Only the paper's own formats get one: the baselines model frameworks whose
# parallel execution we simulate, not reimplement.
def _coo_sharder(rep, mode, num_workers):
    from repro.parallel.partition import shard_coo

    return shard_coo(rep, mode, num_workers)


def _csf_sharder(rep, mode, num_workers):
    from repro.parallel.partition import shard_csf

    return shard_csf(rep, mode, num_workers)


def _bcsf_sharder(rep, mode, num_workers):
    from repro.parallel.partition import shard_bcsf

    return shard_bcsf(rep, mode, num_workers)


def _hbcsf_sharder(rep, mode, num_workers):
    from repro.parallel.partition import shard_hbcsf

    return shard_hbcsf(rep, mode, num_workers)


def _csl_sharder(rep, mode, num_workers):
    from repro.parallel.partition import shard_csl

    return shard_csl(rep, mode, num_workers)


# --------------------------------------------------------------------- #
# coo
# --------------------------------------------------------------------- #
def _coo_builder(tensor, mode, config):
    # COO needs no structure beyond a mode-major sort — the (cheap)
    # preprocessing real COO frameworks do.  CooTensor is the package's
    # float64 interchange format, so this builder deliberately takes no
    # dtype parameter: the representation is dtype-independent (one plan
    # cache entry serves every compute dtype) and the kernel applies the
    # dtype policy per call (values cast on the fly; the row-major
    # accumulator — the dominant traffic — is computed in the compute
    # dtype either way).  A sharded input is materialised: the COO kernel
    # walks raw index columns, so the representation is the arrays.
    tensor = _materialized(tensor)
    return tensor.sorted_by_modes(_mode_major_order(tensor.order, mode))


def _coo_kernel(rep, factors, mode, out, validate=True, dtype=None):
    from repro.kernels.coo_mttkrp import coo_mttkrp

    return coo_mttkrp(rep, factors, mode, out=out, dtype=dtype,
                      validate=validate)


def _coo_gpusim(tensor, mode, rank, device, launch, config, costs,
                memory_model):
    from repro.gpusim.api import atomic_conflict_factor
    from repro.gpusim.kernels.coo_kernel import build_coo_workload

    factor = atomic_conflict_factor(tensor, mode)
    workload = build_coo_workload(tensor, mode, rank, launch, costs,
                                  atomic_conflict_factor=factor,
                                  name="parti-coo")
    return _simulate_kernel_for(workload, device, memory_model)


register_format(FormatSpec(
    name="coo",
    kind="own",
    description="coordinate format; atomic-style accumulation (Algorithm 2)",
    aliases=("coordinate", "coo-atomic"),
    builder=_coo_builder,
    cpu_kernel=_coo_kernel,
    gpusim=_coo_gpusim,
    index_words=lambda rep: rep.order * rep.nnz,
    sharder=_coo_sharder,
))


# --------------------------------------------------------------------- #
# csf
# --------------------------------------------------------------------- #
def _csf_builder(tensor, mode, config, dtype=None):
    from repro.tensor.csf import build_csf

    return cast_values(build_csf(tensor, mode), dtype)


def _csf_kernel(rep, factors, mode, out, validate=True, dtype=None):
    from repro.kernels.csf_mttkrp import csf_mttkrp

    return csf_mttkrp(rep, factors, out=out, dtype=dtype, validate=validate)


def _csf_gpusim(tensor, mode, rank, device, launch, config, costs,
                memory_model):
    from repro.formats.registry import build_plan
    from repro.gpusim.kernels.csf_kernel import build_csf_workload

    rep = build_plan(tensor, "csf", mode).rep
    return _simulate_kernel_for(build_csf_workload(rep, rank, launch, costs),
                                device, memory_model)


register_format(FormatSpec(
    name="csf",
    kind="own",
    description="compressed sparse fiber tree (Algorithm 3); the unsplit "
                "GPU-CSF baseline on the simulator",
    aliases=("gpu-csf",),
    builder=_csf_builder,
    cpu_kernel=_csf_kernel,
    gpusim=_csf_gpusim,
    sharder=_csf_sharder,
))


# --------------------------------------------------------------------- #
# b-csf
# --------------------------------------------------------------------- #
def _bcsf_builder(tensor, mode, config, dtype=None):
    from repro.core.bcsf import build_bcsf

    rep = build_bcsf(tensor, mode, config)
    cast = cast_values(rep.csf, dtype)
    return rep if cast is rep.csf else dataclasses.replace(rep, csf=cast)


def _rep_mttkrp_kernel(rep, factors, mode, out, validate=True, dtype=None):
    return rep.mttkrp(factors, out=out, dtype=dtype, validate=validate)


def _bcsf_gpusim(tensor, mode, rank, device, launch, config, costs,
                 memory_model):
    from repro.formats.registry import build_plan
    from repro.gpusim.kernels.csf_kernel import build_bcsf_workload

    rep = build_plan(tensor, "b-csf", mode, config).rep
    return _simulate_kernel_for(build_bcsf_workload(rep, rank, launch, costs),
                                device, memory_model)


register_format(FormatSpec(
    name="b-csf",
    kind="own",
    description="balanced CSF: fbr-split + slc-split load balancing "
                "(Section IV)",
    aliases=("bcsf", "balanced-csf"),
    builder=_bcsf_builder,
    cpu_kernel=_rep_mttkrp_kernel,
    gpusim=_bcsf_gpusim,
    needs_split_config=True,
    sharder=_bcsf_sharder,
))


# --------------------------------------------------------------------- #
# hb-csf
# --------------------------------------------------------------------- #
def _hbcsf_builder(tensor, mode, config, dtype=None):
    from repro.core.hybrid import build_hbcsf

    rep = build_hbcsf(tensor, mode, config)
    dtype = resolve_dtype(dtype)
    if dtype == np.float64:
        return rep
    # Downcast the value arrays the groups own (the COO group stays a
    # float64 CooTensor; its kernel casts on the fly).
    replacements = {}
    if rep.csl_group.nnz:
        replacements["csl_group"] = cast_values(rep.csl_group, dtype)
    if rep.bcsf_group is not None:
        cast = cast_values(rep.bcsf_group.csf, dtype)
        if cast is not rep.bcsf_group.csf:
            replacements["bcsf_group"] = dataclasses.replace(
                rep.bcsf_group, csf=cast)
    return dataclasses.replace(rep, **replacements) if replacements else rep


def _hbcsf_gpusim(tensor, mode, rank, device, launch, config, costs,
                  memory_model):
    from repro.formats.registry import build_plan
    from repro.gpusim.api import simulate_hbcsf_structure

    rep = build_plan(tensor, "hb-csf", mode, config).rep
    return simulate_hbcsf_structure(rep, rank, device, launch, costs,
                                    memory_model)


register_format(FormatSpec(
    name="hb-csf",
    kind="own",
    description="hybrid B-CSF: COO + CSL + B-CSF slice groups "
                "(Algorithm 5); the paper's recommended format",
    aliases=("hbcsf", "hybrid"),
    builder=_hbcsf_builder,
    cpu_kernel=_rep_mttkrp_kernel,
    gpusim=_hbcsf_gpusim,
    needs_split_config=True,
    sharder=_hbcsf_sharder,
))


# --------------------------------------------------------------------- #
# csl
# --------------------------------------------------------------------- #
def _csl_builder(tensor, mode, config, dtype=None):
    from repro.core.csl import build_csl_group
    from repro.tensor.csf import build_csf

    csf = build_csf(tensor, mode)
    try:
        group = build_csl_group(csf)
    except ValidationError as exc:
        raise ValidationError(
            f"format 'csl' cannot represent mode {mode} of this tensor: "
            f"{exc}  (CSL stores only slices whose fibers are all "
            "singletons; use 'hb-csf' to route such slices to CSL "
            "automatically)") from exc
    return cast_values(group, dtype)


def _csl_kernel(rep, factors, mode, out, validate=True, dtype=None):
    if out is None:
        rank = factors[mode].shape[1]
        out = np.zeros((rep.shape[mode], rank), dtype=resolve_dtype(dtype),
                       order="F")
    return rep.mttkrp(factors, out, validate=validate)


def _csl_gpusim(tensor, mode, rank, device, launch, config, costs,
                memory_model):
    from repro.formats.registry import build_plan
    from repro.gpusim.kernels.csl_kernel import build_csl_workload

    rep = build_plan(tensor, "csl", mode).rep
    return _simulate_kernel_for(build_csl_workload(rep, rank, launch, costs),
                                device, memory_model)


register_format(FormatSpec(
    name="csl",
    kind="own",
    description="compressed slice: slice pointers address nonzeros "
                "directly; only for all-singleton-fiber slices "
                "(Section V-A)",
    aliases=("cs-l", "compressed-slice"),
    builder=_csl_builder,
    cpu_kernel=_csl_kernel,
    gpusim=_csl_gpusim,
    requires_singleton_fibers=True,
    sharder=_csl_sharder,
))


# --------------------------------------------------------------------- #
# baselines — each builder constructs the framework object once for all
# modes (their classes do ALLMODE-style preprocessing internally).
# --------------------------------------------------------------------- #
def _baseline_kernel(rep, factors, mode, out):
    return rep.mttkrp(factors, mode, out=out)


def _splatt_builder(tensor, mode, config):
    from repro.baselines.splatt import SplattMttkrp

    return SplattMttkrp(_materialized(tensor), tiled=False)


register_format(FormatSpec(
    name="splatt",
    kind="baseline",
    description="SPLATT 1.1.0 ALLMODE CSF-MTTKRP on the 28-core CPU, "
                "tiling off",
    aliases=("splatt-nontiled", "splatt-nt"),
    builder=_splatt_builder,
    cpu_kernel=_baseline_kernel,
    per_mode_build=False,
))


def _splatt_tiled_builder(tensor, mode, config):
    from repro.baselines.splatt import SplattMttkrp

    return SplattMttkrp(_materialized(tensor), tiled=True)


register_format(FormatSpec(
    name="splatt-tiled",
    kind="baseline",
    description="SPLATT ALLMODE with the cache-tiling option on",
    aliases=("splatt-t",),
    builder=_splatt_tiled_builder,
    cpu_kernel=_baseline_kernel,
    per_mode_build=False,
))


def _hicoo_builder(tensor, mode, config):
    from repro.baselines.hicoo import HicooMttkrp

    return HicooMttkrp(_materialized(tensor))


register_format(FormatSpec(
    name="hicoo",
    kind="baseline",
    description="HiCOO blocked-COO MTTKRP on the multicore CPU (SC'18)",
    aliases=("hicoo-cpu",),
    builder=_hicoo_builder,
    cpu_kernel=_baseline_kernel,
    per_mode_build=False,
))


def _parti_builder(tensor, mode, config):
    from repro.baselines.parti import PartiGpuMttkrp

    return PartiGpuMttkrp(_materialized(tensor))


register_format(FormatSpec(
    name="parti",
    kind="baseline",
    description="ParTI! atomic-COO MTTKRP on the GPU (third-order only)",
    aliases=("parti-gpu", "parti-coo"),
    builder=_parti_builder,
    cpu_kernel=_baseline_kernel,
    gpusim=_coo_gpusim,
    per_mode_build=False,
    cpu_supported_orders=(3,),
))


def _fcoo_builder(tensor, mode, config):
    from repro.baselines.fcoo import FcooGpuMttkrp

    return FcooGpuMttkrp(_materialized(tensor))


def _fcoo_gpusim(tensor, mode, rank, device, launch, config, costs,
                 memory_model):
    from repro.gpusim.kernels.fcoo_kernel import build_fcoo_workload

    workload = build_fcoo_workload(tensor, mode, rank, launch, costs)
    return _simulate_kernel_for(workload, device, memory_model)


register_format(FormatSpec(
    name="f-coo",
    kind="baseline",
    description="F-COO segmented-scan MTTKRP on the GPU (third-order only)",
    aliases=("fcoo", "fcoo-gpu", "f-coo-gpu", "flagged-coo"),
    builder=_fcoo_builder,
    cpu_kernel=_baseline_kernel,
    gpusim=_fcoo_gpusim,
    per_mode_build=False,
    cpu_supported_orders=(3,),
))
