"""Public MTTKRP entry point and the ALLMODE plan.

:func:`mttkrp` is the single-call API: pick a tensor, a list of factor
matrices, a target mode and a format name; get the exact MTTKRP output.
Dispatch flows through the :mod:`repro.formats` registry, so every
registered format with a CPU kernel — the paper's own family (``coo``,
``csf``, ``b-csf``, ``hb-csf``, ``csl``) and the baseline frameworks
(``splatt``, ``splatt-tiled``, ``hicoo``, ``parti``, ``f-coo``) — is
reachable from here.  Passing ``format="auto"`` delegates the choice to the
empirical autotuner (:mod:`repro.tune`), which probes the eligible kernels
once per ``(tensor, mode, rank bucket, dtype)`` cell and caches the winner.

:class:`MttkrpPlan` is what CPD-ALS uses: it prepares one representation per
mode up front (SPLATT's ALLMODE strategy, which the paper adopts for both
its own formats and the baselines) so the per-iteration cost is just the
kernel execution.  Representations come from the content-addressed
build-plan cache (:func:`repro.formats.build_plan`): a structure built once
for a tensor x mode x config is reused across plans, ``mttkrp()`` calls and
bench sweeps.  The plan still exposes the preprocessing time that Figures 9
and 10 reason about — on a cache hit it reports the recorded wall-clock cost
of the original build, so the accounting is unchanged while the rebuild is
amortised away.

Both entry points accept a ``dtype`` (:mod:`repro.util.dtypes`): float32
roughly halves the memory traffic of these bandwidth-bound kernels at the
price of single-precision accuracy; float64 (the default) is the paper's
reference precision.

Both also accept an execution ``backend`` (:mod:`repro.parallel`):
``"serial"`` (default) or ``"threads"``, which runs the same kernels over
LPT-balanced row-disjoint shards on a worker pool — bit-identical results,
real cores.  ``None`` defers to ``REPRO_BACKEND`` / ``REPRO_NUM_WORKERS``;
an autotuner decision pins the backend it measured fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.splitting import SplitConfig
from repro.formats import (
    DEFAULT_FORMAT,
    build_plan,
    format_names,
    get_format,
)
from repro.telemetry import stage
from repro.tensor.coo import CooTensor
from repro.util.dtypes import resolve_dtype
from repro.util.errors import ValidationError

__all__ = ["FORMATS", "mttkrp", "MttkrpPlan"]

#: Formats usable on *any* tensor (kept for backwards compatibility —
#: computed from the registry, not hand-written).  The full registry,
#: including the restricted ``csl`` and the baseline formats, is
#: :func:`repro.formats.format_names`.
FORMATS = format_names(kind="own", cpu=True, universal=True)


def _resolve(format: str):
    """Look up a format and insist on a CPU execution path."""
    spec = get_format(format)
    if not spec.runs_on_cpu:
        raise ValidationError(
            f"format {spec.name!r} has no CPU MTTKRP kernel; choose one of "
            f"{', '.join(format_names(cpu=True))}")
    return spec


def _is_auto(format: str) -> bool:
    return isinstance(format, str) and format.strip().lower() == "auto"


def _decide(tensor, mode: int, rank: int, config, dtype, backend=None,
            num_workers=None):
    from repro.tune import decide

    return decide(tensor, mode, rank, dtype=dtype, config=config,
                  backend=backend, num_workers=num_workers)


def mttkrp(
    tensor: CooTensor,
    factors: list[np.ndarray],
    mode: int,
    format: str = DEFAULT_FORMAT,
    config: SplitConfig | None = None,
    out: np.ndarray | None = None,
    dtype=None,
    backend: str | None = None,
    num_workers: int | None = None,
) -> np.ndarray:
    """Compute the mode-``mode`` MTTKRP of ``tensor``.

    Parameters
    ----------
    tensor:
        Sparse tensor in COO form.
    factors:
        One factor matrix per mode (``factors[mode]`` is only shape-checked).
    mode:
        Target mode.
    format:
        Any registered format name or alias (see
        :func:`repro.formats.format_names`); default ``"hb-csf"``.  All
        formats produce the same result; they differ in storage and in the
        performance models.  ``"csl"`` additionally requires every fiber of
        the target mode to hold exactly one nonzero (Section V-A).
        ``"auto"`` asks the autotuner (:mod:`repro.tune`) to probe the
        eligible kernels and dispatches to the recorded winner.
    config:
        Splitting configuration for the balanced formats.
    out:
        Optional pre-allocated output to accumulate into (its dtype is the
        compute dtype).
    dtype:
        Compute dtype when ``out`` is not supplied: ``"float32"`` or
        ``"float64"`` (default).  See :mod:`repro.util.dtypes`.
    backend / num_workers:
        Execution backend (``"serial"`` / ``"threads"``) and worker count;
        ``None`` defers to ``REPRO_BACKEND`` / ``REPRO_NUM_WORKERS``.
        Threads are bit-identical to serial (:mod:`repro.parallel`); with
        ``format="auto"`` the tuner's elected backend takes precedence.

    Notes
    -----
    The representation (including COO's mode-major sort) is built through
    the content-addressed plan cache: the first call on a tensor pays the
    format's preprocessing, repeat calls for the same tensor x mode x
    config x dtype reuse the cached structure.
    """
    if dtype is None and out is not None:
        # the kernels compute in out's dtype, so the autotuner's decision
        # and the built representation must be for that dtype too
        dtype = out.dtype
    resolve_dtype(dtype)  # validate the spelling before any work
    with stage("dispatch", format=format, mode=mode) as sp:
        if _is_auto(format):
            decision = _decide(tensor, mode, factors[mode].shape[1], config,
                               dtype, backend, num_workers)
            format = decision.format
            backend = decision.backend
            num_workers = decision.num_workers
            sp.set(elected=decision.label)
        spec = _resolve(format)
        spec.check_tensor(tensor)
        # build_plan normalises config/dtype for formats that do not consume
        # them, so the cache key always matches the builder's actual input
        built = build_plan(tensor, spec.name, mode, config, dtype)
        sp.set(format=spec.name, cache_hit=built.cache_hit)
        return spec.mttkrp(built.rep, factors, mode, out, dtype=dtype,
                           backend=backend, num_workers=num_workers,
                           plan_key=built.key)


@dataclass
class MttkrpPlan:
    """Per-mode pre-built representations (ALLMODE), plus timing.

    Attributes
    ----------
    tensor:
        The source COO tensor.
    format:
        Normalised format name, or ``"auto"`` — then every mode's format is
        elected by the autotuner and recorded in :attr:`mode_formats` /
        :attr:`decisions`.
    dtype:
        Compute dtype for the planned executions (see
        :mod:`repro.util.dtypes`); participates in the build-plan cache key.
    backend / num_workers:
        Plan-level execution backend default (:mod:`repro.parallel`);
        ``None`` defers to the environment per execution.  On autotuned
        plans each mode's elected decision supersedes these defaults;
        an explicit per-call ``backend=``/``num_workers=`` argument to
        :meth:`mttkrp` overrides both.
    representations:
        ``representations[m]`` is the structure used for mode-``m`` MTTKRP
        (the registered builder's output — a :class:`CooTensor`,
        :class:`CsfTensor`, :class:`BcsfTensor`, :class:`HbcsfTensor`,
        :class:`CslGroup` or a baseline framework object depending on the
        format).  Formats that build one ALLMODE structure (the baselines)
        share a single object across modes.
    mode_formats:
        Canonical format name actually used for each planned mode (equal to
        :attr:`format` unless the plan is autotuned).
    decisions:
        Autotuner decisions per mode (empty unless ``format="auto"``).
    preprocessing_seconds:
        Wall-clock time spent building all representations — the quantity
        Figure 9 normalises and Figure 10 amortises.  When a representation
        comes from the build-plan cache this reports the recorded cost of
        the original build.
    cache_hits / cache_misses:
        How many per-mode builds were served from the plan cache.
    """

    tensor: CooTensor
    format: str = DEFAULT_FORMAT
    config: SplitConfig | None = None
    modes: tuple[int, ...] | None = None
    dtype: object = None
    rank: int | None = None
    backend: str | None = None
    num_workers: int | None = None
    representations: dict[int, object] = field(default_factory=dict, init=False)
    mode_formats: dict[int, str] = field(default_factory=dict, init=False)
    decisions: dict[int, object] = field(default_factory=dict, init=False)
    plan_keys: dict[int, tuple] = field(default_factory=dict, init=False)
    preprocessing_seconds: float = field(default=0.0, init=False)
    cache_hits: int = field(default=0, init=False)
    cache_misses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        resolve_dtype(self.dtype)
        if self.backend is not None:
            # fold the spelling now; None stays None (defer to the
            # environment at each execution)
            from repro.parallel.pool import resolve_backend

            self.backend = resolve_backend(self.backend)
        if self.modes is None:
            self.modes = tuple(range(self.tensor.order))
        else:
            self.modes = tuple(int(m) for m in self.modes)
        if _is_auto(self.format):
            self.format = "auto"
            if self.rank is None:
                raise ValidationError(
                    "MttkrpPlan(format='auto') needs rank= to size the "
                    "autotuner's probe (the decision is bucketed by rank)")
            for m in self.modes:
                decision = _decide(self.tensor, m, self.rank, self.config,
                                   self.dtype, self.backend,
                                   self.num_workers)
                self.decisions[m] = decision
                self.mode_formats[m] = decision.format
        else:
            spec = _resolve(self.format)
            spec.check_tensor(self.tensor)
            self.format = spec.name
            for m in self.modes:
                self.mode_formats[m] = spec.name
        counted: set[tuple] = set()
        with stage("plan.prepare", format=self.format,
                   modes=len(self.modes)) as sp:
            for m in self.modes:
                built = build_plan(self.tensor, self.mode_formats[m], m,
                                   self.config, self.dtype)
                self.representations[m] = built.rep
                self.plan_keys[m] = built.key
                if built.cache_hit:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
                # ALLMODE baselines share one structure across modes; count
                # its build cost once, not once per mode.  Baseline
                # frameworks model their own preprocessing (e.g.
                # SPLATT-tiled's 3x factor, Figure 9) — prefer that over
                # the raw builder wall-clock.
                if built.key not in counted:
                    counted.add(built.key)
                    modeled = getattr(built.rep, "preprocessing_seconds",
                                      None)
                    self.preprocessing_seconds += (
                        float(modeled) if modeled is not None
                        else built.build_seconds)
            sp.set(cache_hits=self.cache_hits,
                   cache_misses=self.cache_misses,
                   preprocessing_seconds=self.preprocessing_seconds)

    # ------------------------------------------------------------------ #
    def representation(self, mode: int):
        if mode not in self.representations:
            raise ValidationError(
                f"mode {mode} is not part of this plan (modes={self.modes})"
            )
        return self.representations[mode]

    def mttkrp(self, factors: list[np.ndarray], mode: int,
               out: np.ndarray | None = None,
               validate: bool = True,
               backend: str | None = None,
               num_workers: int | None = None) -> np.ndarray:
        """Execute the planned mode-``mode`` MTTKRP.

        ``validate=False`` skips the kernels' factor-shape checks and
        pointer scans — for trusted re-invocations whose factor shapes
        were validated once (the ALS inner loop).

        An explicit (non-``None``) ``backend``/``num_workers`` wins for
        this call — e.g. ``backend="serial"`` forces serial execution even
        on a plan whose autotuner decision pinned threads.  When ``None``,
        an autotuner decision (``format="auto"``) supplies the value it
        measured, so the environment never re-litigates an elected
        backend; plans without a decision fall back to the plan-level
        default.
        """
        rep = self.representation(mode)
        spec = get_format(self.mode_formats[mode])
        decision = self.decisions.get(mode)
        if backend is None:
            backend = (decision.backend if decision is not None
                       else self.backend)
        if num_workers is None:
            num_workers = (decision.num_workers if decision is not None
                           else self.num_workers)
        return spec.mttkrp(rep, factors, mode, out, validate=validate,
                           dtype=self.dtype, backend=backend,
                           num_workers=num_workers,
                           plan_key=self.plan_keys.get(mode))

    def index_storage_words(self) -> int:
        """Total index words across all distinct per-mode representations."""
        total = 0
        seen: set[int] = set()
        for m, rep in self.representations.items():
            if id(rep) in seen:
                continue
            seen.add(id(rep))
            total += get_format(self.mode_formats[m]).storage_words(rep)
        return total
