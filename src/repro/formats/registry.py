"""Sparse-format registry: the single source of truth for format knowledge.

Every sparse format the reproduction knows about — the paper's own family
(COO, CSF, B-CSF, HB-CSF, CSL) and the baseline frameworks it compares
against (SPLATT, HiCOO, ParTI, F-COO) — is described by one
:class:`FormatSpec` and registered here.  Consumers never enumerate format
names by hand: the public ``mttkrp()`` dispatch, the GPU simulator, the
benchmark-target registry and the experiment drivers all iterate or look up
this registry, so adding a format is a one-file, one-registration change.

A :class:`FormatSpec` bundles

* the canonical name plus its accepted aliases (one shared normaliser
  replaces the per-module alias dicts that used to live in
  ``core/mttkrp.py`` and ``gpusim/api.py``);
* a ``builder`` producing the format's representation for one root mode;
* the exact CPU ``cpu_kernel`` executing MTTKRP on that representation;
* an optional ``gpusim`` hook returning the simulated
  :class:`~repro.gpusim.metrics.KernelResult` for the format's GPU kernel;
* capability flags (``needs_split_config``, ``per_mode_build``,
  ``requires_singleton_fibers``, ``cpu_supported_orders``) that tell
  consumers what the format can do instead of having them special-case
  names.

:func:`build_plan` is the cached entry to ``builder``: representations are
content-addressed (tensor fingerprint x format x mode x split config) in
:mod:`repro.formats.plan_cache`, so a structure built once is reused across
ALS iterations, experiment figures and bench sweeps.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

from repro.formats.plan_cache import (
    PlanBuild,
    config_token,
    plan_cache,
    tensor_fingerprint,
)
from repro.parallel.pool import resolve_backend, resolve_workers
from repro.telemetry import stage
from repro.util.dtypes import dtype_token
from repro.util.errors import ValidationError

__all__ = [
    "DEFAULT_FORMAT",
    "FormatSpec",
    "register_format",
    "unregister_format",
    "canonical_format",
    "get_format",
    "format_names",
    "iter_formats",
    "build_plan",
    "optional_call_params",
]

#: The paper's recommended format and every API's default.
DEFAULT_FORMAT = "hb-csf"


@dataclass(frozen=True)
class FormatSpec:
    """One registered sparse format.

    Attributes
    ----------
    name:
        Canonical (already normalised) format name.
    kind:
        ``"own"`` for the paper's formats, ``"baseline"`` for the compared
        frameworks.
    description:
        One-line human-readable summary (shown by ``repro-bench list``).
    aliases:
        Accepted alternative spellings; folded through the shared
        normaliser at registration time.
    builder:
        ``builder(tensor, mode, config) -> representation``.  Formats with
        ``per_mode_build=False`` build one structure covering all modes and
        may ignore ``mode``.
    cpu_kernel:
        ``cpu_kernel(rep, factors, mode, out) -> ndarray`` — the exact
        MTTKRP.  ``None`` marks a format without a CPU execution path
        (no such format is currently registered; CI enforces this).
    gpusim:
        ``gpusim(tensor, mode, rank, device, launch, config, costs,
        memory_model) -> KernelResult`` or ``None`` for CPU-only formats.
    index_words:
        ``index_words(rep) -> int`` storage accounting override; defaults
        to calling ``rep.index_storage_words()``.
    per_mode_build:
        Whether ``builder`` produces one representation *per root mode*
        (SPLATT-style ALLMODE) or a single object covering every mode.
    needs_split_config:
        Whether the builder consumes a :class:`~repro.core.splitting.SplitConfig`
        (and hence whether the config participates in the plan-cache key).
    requires_singleton_fibers:
        CSL's restriction: representable only when every fiber of the root
        mode holds exactly one nonzero.
    cpu_supported_orders:
        Tensor orders the CPU kernel accepts (``None`` = any); ParTI and
        F-COO only support third-order tensors, as in the paper.
    sharder:
        ``sharder(rep, mode, num_workers) -> ShardPlan`` — cuts a built
        representation into row-disjoint worker shards for the threaded
        execution backend (:mod:`repro.parallel`).  ``None`` means the
        format executes serially regardless of the requested backend (the
        baseline frameworks model *their* papers' kernels; parallelising
        them here would measure our partitioner, not their design).
    """

    name: str
    kind: str
    description: str
    aliases: tuple[str, ...] = ()
    builder: Callable | None = None
    cpu_kernel: Callable | None = None
    gpusim: Callable | None = None
    index_words: Callable | None = None
    per_mode_build: bool = True
    needs_split_config: bool = False
    requires_singleton_fibers: bool = False
    cpu_supported_orders: tuple[int, ...] | None = None
    sharder: Callable | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("own", "baseline"):
            raise ValidationError(
                f"format kind must be 'own' or 'baseline', got {self.kind!r}")

    # ------------------------------------------------------------------ #
    # capabilities
    # ------------------------------------------------------------------ #
    @property
    def universal(self) -> bool:
        """Usable on any tensor (no order or structure restriction)."""
        return (not self.requires_singleton_fibers
                and self.cpu_supported_orders is None)

    @property
    def supports_threads(self) -> bool:
        """Whether the threaded backend can execute this format."""
        return self.cpu_kernel is not None and self.sharder is not None

    def check_tensor(self, tensor) -> None:
        """Raise when ``tensor`` violates this format's restrictions."""
        if (self.cpu_supported_orders is not None
                and tensor.order not in self.cpu_supported_orders):
            orders = ", ".join(str(o) for o in self.cpu_supported_orders)
            raise ValidationError(
                f"format {self.name!r} supports only order-{orders} tensors "
                f"(got order {tensor.order})")

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def build(self, tensor, mode: int, config=None, dtype=None):
        """Build this format's representation (uncached; see :func:`build_plan`).

        ``dtype`` selects the compute dtype stored in the representation's
        value arrays (:mod:`repro.util.dtypes`); builders registered
        without a ``dtype`` parameter — e.g. by older tests — are called
        without it and always build float64.
        """
        if self.builder is None:
            raise ValidationError(f"format {self.name!r} has no builder")
        if dtype is not None and "dtype" in optional_call_params(self.builder):
            return self.builder(tensor, mode, config, dtype=dtype)
        return self.builder(tensor, mode, config)

    def mttkrp(self, rep, factors, mode: int, out=None, *,
               validate: bool = True, dtype=None,
               backend: str | None = None, num_workers: int | None = None,
               plan_key: tuple | None = None):
        """Execute the exact CPU MTTKRP on a built representation.

        Every CPU execution — :func:`repro.mttkrp`,
        :meth:`MttkrpPlan.mttkrp <repro.core.mttkrp.MttkrpPlan.mttkrp>` and
        the autotuner's probes — goes through here.

        ``validate=False`` and ``dtype`` are forwarded only to kernels
        that declare the corresponding keyword (all built-in kernels do);
        a minimal 4-argument kernel registered by external code keeps
        working unchanged.

        ``backend`` / ``num_workers`` select the execution backend
        (``None`` defers to ``REPRO_BACKEND`` / ``REPRO_NUM_WORKERS``).
        The threaded backend is bit-identical to serial and silently falls
        back to serial for formats without a :attr:`sharder` or when only
        one worker is available.  ``plan_key`` — the representation's
        build-plan cache key — content-addresses the threaded backend's
        shard plan next to the build it partitions.
        """
        if self.cpu_kernel is None:
            raise ValidationError(
                f"format {self.name!r} has no CPU MTTKRP kernel")
        with stage("kernel", format=self.name, mode=mode) as sp:
            if (resolve_backend(backend) == "threads"
                    and self.sharder is not None):
                workers = resolve_workers(num_workers)
                if workers > 1:
                    from repro.parallel.execute import threaded_mttkrp

                    sp.set(backend="threads", num_workers=workers)
                    return threaded_mttkrp(self, rep, factors, mode, out,
                                           dtype=dtype, validate=validate,
                                           num_workers=workers,
                                           plan_key=plan_key)
            sp.set(backend="serial")
            extras = {}
            supported = optional_call_params(self.cpu_kernel)
            if not validate and "validate" in supported:
                extras["validate"] = False
            if dtype is not None and "dtype" in supported:
                extras["dtype"] = dtype
            return self.cpu_kernel(rep, factors, mode, out, **extras)

    def storage_words(self, rep) -> int:
        """32-bit index words of a built representation."""
        if self.index_words is not None:
            return int(self.index_words(rep))
        return int(rep.index_storage_words())


@lru_cache(maxsize=256)
def optional_call_params(fn: Callable) -> frozenset[str]:
    """Keyword parameters a registered callable accepts beyond the core four.

    Inspected once per callable (memoised) so per-call dispatch stays free
    of reflection cost.  Callables whose signature cannot be introspected
    are treated as accepting every extra (``**kwargs`` wrappers).
    """
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/partials
        return frozenset(("validate", "dtype", "backend", "num_workers"))
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return frozenset(("validate", "dtype", "backend", "num_workers"))
    return frozenset(params) & {"validate", "dtype", "backend", "num_workers"}


_REGISTRY: dict[str, FormatSpec] = {}
_ALIASES: dict[str, str] = {}


def _fold(name: str) -> str:
    """The shared spelling normaliser: case, underscores, spaces."""
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def register_format(spec: FormatSpec, *, overwrite: bool = False) -> FormatSpec:
    """Register ``spec`` under its name and aliases."""
    name = _fold(spec.name)
    if name != spec.name:
        raise ValidationError(
            f"canonical format name {spec.name!r} is not normalised "
            f"(expected {name!r})")
    if not overwrite:
        if name in _REGISTRY:
            raise ValidationError(f"format {name!r} is already registered")
        if name in _ALIASES:
            raise ValidationError(
                f"format name {name!r} collides with an alias of "
                f"{_ALIASES[name]!r}")
    for alias in spec.aliases:
        folded = _fold(alias)
        owner = _ALIASES.get(folded)
        if folded in _REGISTRY and folded != name:
            raise ValidationError(
                f"alias {alias!r} of {name!r} collides with a registered "
                "format name")
        if owner is not None and owner != name and not overwrite:
            raise ValidationError(
                f"alias {alias!r} is already taken by format {owner!r}")
    replaced = _REGISTRY.get(name)
    if replaced is not None:
        # a replaced spec may build differently: its cached reps are stale,
        # and aliases it declared but the new spec does not must not dangle
        plan_cache().discard(format=name)
        for alias in replaced.aliases:
            _ALIASES.pop(_fold(alias), None)
    _REGISTRY[name] = spec
    for alias in spec.aliases:
        _ALIASES[_fold(alias)] = name
    return spec


def unregister_format(name: str) -> None:
    """Remove a format (used by tests exercising registration)."""
    key = _fold(name)
    spec = _REGISTRY.pop(key, None)
    if spec is None:
        raise ValidationError(f"format {name!r} is not registered")
    for alias in spec.aliases:
        _ALIASES.pop(_fold(alias), None)
    plan_cache().discard(format=key)


def canonical_format(name: str) -> str:
    """Resolve any accepted spelling to the canonical registered name."""
    if not isinstance(name, str):
        raise ValidationError(
            f"format name must be a string, got {type(name).__name__}")
    key = _fold(name)
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        raise ValidationError(
            f"unknown format {name!r}; registered formats: "
            f"{', '.join(_REGISTRY)}")
    return key


def get_format(name: str) -> FormatSpec:
    """Look up the :class:`FormatSpec` for any accepted spelling."""
    return _REGISTRY[canonical_format(name)]


def iter_formats(kind: str | None = None) -> Iterator[FormatSpec]:
    """Specs in registration order, optionally one ``kind``."""
    if kind is not None and kind not in ("own", "baseline"):
        raise ValidationError(
            f"format kind must be 'own' or 'baseline', got {kind!r}")
    for spec in _REGISTRY.values():
        if kind is None or spec.kind == kind:
            yield spec


def format_names(
    kind: str | None = None,
    *,
    cpu: bool = False,
    gpusim: bool = False,
    universal: bool = False,
) -> tuple[str, ...]:
    """Registered canonical names, in registration order.

    Parameters
    ----------
    kind:
        ``"own"`` / ``"baseline"`` filter.
    cpu / gpusim:
        Keep only formats with an exact CPU kernel / a GPU simulation hook.
    universal:
        Keep only formats usable on any tensor (drops CSL's
        singleton-fiber restriction and the order-3-only baselines).
    """
    names = []
    for spec in iter_formats(kind):
        if cpu and spec.cpu_kernel is None:
            continue
        if gpusim and spec.gpusim is None:
            continue
        if universal and not spec.universal:
            continue
        names.append(spec.name)
    return tuple(names)


# --------------------------------------------------------------------- #
# cached building
# --------------------------------------------------------------------- #
def build_plan(tensor, format: str, mode: int, config=None, dtype=None,
               *, use_cache: bool = True) -> PlanBuild:
    """Build (or fetch from the plan cache) one format representation.

    The cache key is ``(tensor fingerprint, format, mode, config, dtype)``
    — content-addressed, so two equal tensors share entries regardless of
    object identity.  Formats with ``per_mode_build=False`` (the ALLMODE
    baselines) share one entry across modes, and the split config / compute
    dtype (:mod:`repro.util.dtypes`) enter the key only for formats whose
    builders consume them — a builder that produces dtype-independent
    representations (COO's mode-major sort) shares one entry across
    dtypes instead of duplicating it.

    Returns a :class:`~repro.formats.plan_cache.PlanBuild` whose
    ``build_seconds`` is the wall-clock cost of the *original* construction
    even on a cache hit — preprocessing accounting (Figures 9-10) stays
    honest while the build itself is amortised.
    """
    spec = get_format(format)
    mode = int(mode)
    if not 0 <= mode < tensor.order:
        raise ValidationError(
            f"mode {mode} out of range for an order-{tensor.order} tensor")
    # Normalise the inputs that do not participate in this format's key, so
    # the builder can never see a value the key ignores (a config passed to
    # a needs_split_config=False format, a dtype passed to a dtype-less
    # builder would otherwise produce cache entries whose content depends
    # on un-keyed inputs).
    if not spec.needs_split_config:
        config = None
    builder_takes_dtype = (spec.builder is not None
                           and "dtype" in optional_call_params(spec.builder))
    if not builder_takes_dtype:
        dtype = None
    key = (
        tensor_fingerprint(tensor),
        spec.name,
        mode if spec.per_mode_build else -1,
        config_token(config) if spec.needs_split_config else "-",
        dtype_token(dtype) if builder_takes_dtype else "-",
    )
    cache = plan_cache()
    if use_cache:
        entry = cache.get(key)
        if entry is not None:
            return PlanBuild(rep=entry.rep, build_seconds=entry.build_seconds,
                             cache_hit=True, key=key)
    with stage("build", format=spec.name, mode=mode) as sp:
        start = time.perf_counter()
        rep = spec.build(tensor, mode, config, dtype)
        build_seconds = time.perf_counter() - start
        sp.set(seconds=build_seconds, cached=use_cache)
    if use_cache:
        cache.put(key, rep, build_seconds)
    return PlanBuild(rep=rep, build_seconds=build_seconds, cache_hit=False,
                     key=key)
