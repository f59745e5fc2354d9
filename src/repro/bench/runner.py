"""Benchmark runner: sweep targets over scenarios with warmup/repeat control.

The runner materialises each scenario once, then times every requested
target against it through :func:`repro.util.timing.repeat` — the library's
single measurement loop — and assembles a :class:`~repro.bench.schema.BenchRun`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.bench.env import (
    capture_environment,
    cell_peak_rss,
    reset_peak_rss,
    utc_now_iso,
)
from repro.bench.schema import (
    BenchRun,
    Measurement,
    stats_from_timer,
    timeout_stats,
)
from repro.bench.targets import expand_targets, get_target
from repro.faults.deadline import Deadline, deadline_scope
from repro.scenarios.cache import ScenarioCache, materialize, materialize_sharded
from repro.scenarios.spec import ScenarioSpec, parse_spec
from repro.scenarios.suites import get_suite
from repro.tensor.shards import DEFAULT_SHARD_NNZ
from repro.telemetry import counters_delta, counters_snapshot
from repro.util.dtypes import resolve_dtype
from repro.util.errors import DeadlineExceeded, ValidationError
from repro.util.timing import repeat

__all__ = ["BenchConfig", "BUDGETS", "run_benchmarks", "suite_scenarios"]

#: named measurement budgets: (scenario scale, repeats, warmup).  ``tiny``
#: keeps a full kernel x paper12 matrix under a minute of wall clock.  Its
#: warmup is 5 because the first few calls on a freshly built
#: representation run up to 3x slow (first-touch page faults on the new
#: arrays), and its repeats 5 so one jittery lap cannot drag the median
#: (with fewer laps, recordings differ by >10% on random cells).
BUDGETS: dict[str, tuple[float, int, int]] = {
    "tiny": (0.04, 5, 5),
    "small": (0.2, 5, 1),
    "medium": (0.5, 7, 2),
    "full": (1.0, 9, 3),
}


@dataclass(frozen=True)
class BenchConfig:
    """Measurement parameters shared by every cell of a run.

    ``dtype`` applies the compute-dtype policy (:mod:`repro.util.dtypes`)
    to every target that supports it (``kernel.*``, ``build.*``,
    ``cpd.*``); ``None`` measures the float64 default.  ``backend`` /
    ``num_workers`` select the execution backend (:mod:`repro.parallel`)
    the same way: targets that declare the knobs receive them, the rest
    (``build.*``, ``sim.*``, the fixed-worker ``kernel.par.*`` cells)
    measure what their name says.
    """

    repeats: int = 5
    warmup: int = 1
    rank: int = 32
    scale: float = 1.0
    seed: int | None = None
    budget: str | None = None
    dtype: str | None = None
    backend: str | None = None
    num_workers: int | None = None
    #: nonzeros per shard for targets materialised as shard manifests
    #: (``materialize="sharded"``); None takes the library default.
    shard_nnz: int | None = None
    #: wall-clock budget per (target, scenario) cell.  Enforced
    #: cooperatively through the ambient deadline (kernel pass boundaries,
    #: ALS iteration edges): an expired cell is recorded with
    #: ``status="timeout"`` and the sweep moves on to the next cell
    #: instead of aborting the matrix.  ``None`` disables the watchdog.
    cell_timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise ValidationError(f"warmup must be >= 0, got {self.warmup}")
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if self.scale <= 0:
            raise ValidationError(f"scale must be positive, got {self.scale}")
        if (self.cell_timeout_seconds is not None
                and self.cell_timeout_seconds <= 0):
            raise ValidationError(
                f"cell_timeout_seconds must be positive, got "
                f"{self.cell_timeout_seconds}")
        if self.shard_nnz is not None and self.shard_nnz < 1:
            raise ValidationError(
                f"shard_nnz must be >= 1, got {self.shard_nnz}")
        if self.dtype is not None:
            resolve_dtype(self.dtype)
        if self.backend is not None:
            from repro.parallel.pool import resolve_backend

            object.__setattr__(self, "backend",
                               resolve_backend(self.backend))
        if self.num_workers is not None:
            from repro.parallel.pool import resolve_workers

            object.__setattr__(self, "num_workers",
                               resolve_workers(self.num_workers))

    @classmethod
    def from_budget(cls, budget: str, *, rank: int = 32,
                    seed: int | None = None,
                    dtype: str | None = None,
                    backend: str | None = None,
                    num_workers: int | None = None,
                    cell_timeout_seconds: float | None = None,
                    ) -> "BenchConfig":
        try:
            scale, repeats, warmup = BUDGETS[budget]
        except KeyError:
            raise ValidationError(
                f"unknown budget {budget!r}; choose one of "
                f"{', '.join(BUDGETS)}") from None
        return cls(repeats=repeats, warmup=warmup, rank=rank, scale=scale,
                   seed=seed, budget=budget, dtype=dtype, backend=backend,
                   num_workers=num_workers,
                   cell_timeout_seconds=cell_timeout_seconds)

    def to_dict(self) -> dict:
        return {
            "repeats": self.repeats,
            "warmup": self.warmup,
            "rank": self.rank,
            "scale": self.scale,
            "seed": self.seed,
            "budget": self.budget,
            "dtype": self.dtype,
            "backend": self.backend,
            "num_workers": self.num_workers,
            "shard_nnz": self.shard_nnz,
            "cell_timeout_seconds": self.cell_timeout_seconds,
        }


def suite_scenarios(name: str) -> list[tuple[str, ScenarioSpec]]:
    """The (name, spec) entries of a scenario suite, unscaled."""
    return get_suite(name).specs()


def _materialize_for(kind: str, spec: ScenarioSpec,
                     cache: ScenarioCache | None, config: BenchConfig,
                     scratch: list) -> object:
    """Materialise ``spec`` the way a target's ``materialize`` kind asks.

    Sharded materialisation without a cache lands in a self-cleaning
    temporary directory (appended to ``scratch``; the caller removes it
    when the run finishes), so ad-hoc out-of-core runs never leave shard
    trees behind.
    """
    if kind == "sharded":
        shard_nnz = config.shard_nnz or DEFAULT_SHARD_NNZ
        if cache is not None:
            return materialize_sharded(spec, cache, shard_nnz=shard_nnz)
        tmp = tempfile.TemporaryDirectory(prefix="repro-ooc-")
        scratch.append(tmp)
        return materialize_sharded(spec, root=os.path.join(tmp.name, "shards"),
                                   shard_nnz=shard_nnz)
    return materialize(spec, cache)


def _setup_target(target, tensor, config: BenchConfig):
    """Run a target's untimed setup, forwarding the dtype / backend knobs
    when the target declares them (``sim.*`` targets, for instance, have no
    compute dtype — the simulator is analytical — and ``build.*`` targets
    have no execution backend).  Uses the registry's shared, memoised
    signature inspection."""
    extras = {}
    wanted = (("dtype", config.dtype), ("backend", config.backend),
              ("num_workers", config.num_workers))
    if any(value is not None for _, value in wanted):
        from repro.formats.registry import optional_call_params

        supported = optional_call_params(target.setup)
        extras = {knob: value for knob, value in wanted
                  if value is not None and knob in supported}
    return target.setup(tensor, config.rank, **extras)


def run_benchmarks(
    targets: Iterable[str],
    scenarios: Sequence[tuple[str, "ScenarioSpec | dict | str"]],
    config: BenchConfig | None = None,
    *,
    name: str = "run",
    cache: ScenarioCache | None = None,
    progress: Callable[[str], None] | None = None,
) -> BenchRun:
    """Time every target against every scenario; return the assembled run.

    Parameters
    ----------
    targets:
        Target names / group names / glob patterns
        (:func:`repro.bench.targets.expand_targets` semantics).
    scenarios:
        ``(display name, spec-like)`` pairs; specs are parsed and scaled by
        ``config.scale`` (respecting each spec's ``min_nnz`` floor).
    config:
        Measurement parameters (defaults to :class:`BenchConfig`'s).
    name:
        Run name — becomes the ``BENCH_<name>.json`` artifact stem.
    cache:
        Optional scenario cache so repeated runs skip regeneration.
    progress:
        Optional callback receiving one human-readable line per cell.
    """
    config = config or BenchConfig()
    resolved = expand_targets(targets)
    if not resolved:
        raise ValidationError("no benchmark targets selected")
    if not scenarios:
        raise ValidationError("no scenarios selected")

    # Resolve effective specs up front and keep (target, scenario) cells
    # unique: an exact duplicate (same name, same content hash) is dropped,
    # a name collision over different content is disambiguated with the
    # hash — readers look cells up by name, so silent shadowing here
    # would hide measurements.
    resolved_scenarios: list[tuple[str, ScenarioSpec]] = []
    seen: dict[str, str] = {}
    for scenario_name, spec_like in scenarios:
        spec = parse_spec(spec_like).with_scale(config.scale)
        if config.seed is not None:
            spec = spec.with_seed(config.seed)
        spec_hash = spec.spec_hash()
        if scenario_name in seen:
            if seen[scenario_name] == spec_hash:
                continue
            scenario_name = f"{scenario_name}@{spec_hash[:8]}"
            if seen.get(scenario_name) == spec_hash:
                continue
        seen[scenario_name] = spec_hash
        resolved_scenarios.append((scenario_name, spec))

    run = BenchRun(
        name=name,
        created_at=utc_now_iso(),
        env=capture_environment(),
        config=config.to_dict(),
    )

    scratch: list[tempfile.TemporaryDirectory] = []
    try:
        for scenario_name, effective in resolved_scenarios:
            # one materialisation per (scenario, kind): in-RAM targets share
            # a CooTensor, out-of-core targets share a shard manifest
            tensors: dict[str, object] = {}
            for target_name in resolved:
                target = get_target(target_name)
                tensor = tensors.get(target.materialize)
                if tensor is None:
                    tensor = tensors[target.materialize] = _materialize_for(
                        target.materialize, effective, cache, config, scratch)
                # counter deltas cover the whole cell — setup (builds, tuner
                # probes) plus warmup plus the timed laps — so a cell's cache
                # hit/miss movement and stage totals are attributable to it
                # without ever resetting the shared registry.  The RSS
                # high-water mark is reset on the same boundary, so
                # peak_rss_bytes bounds this cell alone wherever the kernel
                # allows the reset (env records the scope).
                before = counters_snapshot()
                rss_reset = reset_peak_rss()
                # The per-cell watchdog is an ambient deadline over the
                # whole cell (setup + warmup + laps): instrumented layers
                # poll it at their cooperative boundaries, so an expired
                # cell raises DeadlineExceeded mid-kernel instead of
                # hanging the matrix.  Targets that never reach an
                # instrumented boundary run to completion regardless.
                result = timer = None
                timed_out: DeadlineExceeded | None = None
                try:
                    if config.cell_timeout_seconds is not None:
                        cell_deadline = Deadline(config.cell_timeout_seconds)
                        with deadline_scope(cell_deadline):
                            fn = _setup_target(target, tensor, config)
                            result, timer = repeat(fn, n=config.repeats,
                                                   warmup=config.warmup)
                    else:
                        fn = _setup_target(target, tensor, config)
                        result, timer = repeat(fn, n=config.repeats,
                                               warmup=config.warmup)
                except DeadlineExceeded as exc:
                    timed_out = exc
                counters = counters_delta(before)
                metrics = ({} if timed_out is not None or target.probe is None
                           else dict(target.probe(result)))
                rss, rss_scope = cell_peak_rss(rss_reset)
                if rss is not None:
                    metrics["peak_rss_bytes"] = rss
                run.env.setdefault("peak_rss_scope", rss_scope)
                if timed_out is not None:
                    elapsed = float(timed_out.elapsed_seconds
                                    or config.cell_timeout_seconds)
                    stats = timeout_stats(elapsed, config.warmup)
                    metrics["timeout_seconds"] = config.cell_timeout_seconds
                else:
                    stats = stats_from_timer(timer, config.warmup)
                measurement = Measurement(
                    target=target_name,
                    scenario=scenario_name,
                    spec_hash=effective.spec_hash(),
                    shape=tuple(tensor.shape),
                    nnz=tensor.nnz,
                    rank=config.rank,
                    stats=stats,
                    metrics=metrics,
                    counters=counters,
                    status="timeout" if timed_out is not None else "ok",
                )
                run.measurements.append(measurement)
                if progress is not None:
                    if timed_out is not None:
                        progress(
                            f"{target_name:<18} {scenario_name:<18} "
                            f"TIMEOUT after {elapsed:.3f} s at "
                            f"{timed_out.where or 'unknown'} "
                            f"(budget {config.cell_timeout_seconds} s)"
                        )
                    else:
                        progress(
                            f"{target_name:<18} {scenario_name:<18} "
                            f"median {measurement.seconds('median') * 1e3:9.3f} ms  "
                            f"(min {measurement.seconds('min') * 1e3:.3f}, "
                            f"p95 {measurement.seconds('p95') * 1e3:.3f}, "
                            f"x{config.repeats})"
                        )
    finally:
        for tmp in scratch:
            tmp.cleanup()
    return run
