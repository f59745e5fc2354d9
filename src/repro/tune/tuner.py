"""The empirical autotuner: probe the candidate kernels, elect a winner.

Section VII of the paper shows that the fastest MTTKRP kernel is a property
of the *tensor* (fiber-length distribution, slice skew) and of the *mode* —
COO wins on scatter-friendly short modes, CSL wins on all-singleton-fiber
modes, HB-CSF wins on heavy-tailed ones.  Instead of hard-coding those
rules, :func:`decide` measures them: every registry entry with a CPU kernel
that can represent the tensor is timed once per backend on a small,
budgeted probe, and the winner is recorded in the content-addressed
decision cache (:mod:`repro.tune.cache`).  A probe runs exactly what
production dispatch runs — :meth:`FormatSpec.mttkrp
<repro.formats.FormatSpec.mttkrp>` — so COO is probed with its own
``"auto"`` accumulator rule, not per accumulator.

Representations for the probe come from the build-plan cache, so probing
pays each format's construction at most once per tensor — and the build is
then already amortised for the production calls that follow the decision.

``format="auto"`` in :func:`repro.core.mttkrp.mttkrp` and
:class:`~repro.core.mttkrp.MttkrpPlan` (and hence ``cp_als``) routes
through this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.formats import build_plan, format_names, get_format, tensor_fingerprint
from repro.formats.plan_cache import config_token
from repro.kernels.csf_mttkrp import rank_major
from repro.parallel.pool import resolve_backend, resolve_workers
from repro.telemetry import span, stage
from repro.tune.cache import decision_cache
from repro.util.dtypes import dtype_token, resolve_dtype
from repro.util.errors import ValidationError
from repro.util.prng import default_rng
from repro.util.timing import repeat

__all__ = [
    "AUTO_FORMAT",
    "Candidate",
    "ProbeBudget",
    "TuneDecision",
    "rank_bucket",
    "enumerate_candidates",
    "decide",
]

#: the pseudo-format name that routes dispatch through the autotuner.
AUTO_FORMAT = "auto"

#: seed for the probe's factor matrices — fixed so a probe is a pure
#: function of (tensor, mode, rank bucket, dtype, budget).
PROBE_SEED = 20190521

#: smallest rank bucket; ranks below it share one decision.
MIN_RANK_BUCKET = 8


def rank_bucket(rank: int) -> int:
    """Round ``rank`` up to the decision-sharing bucket (power of two).

    Probing at every distinct rank would multiply probe cost for near-equal
    problems whose winner is the same; relative kernel ranking shifts with
    the *scale* of ``R`` (memory traffic per nonzero), not with ±1 changes.
    Ranks up to 8 share a bucket, then 16, 32, 64, ...
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    return max(MIN_RANK_BUCKET, 1 << (int(rank) - 1).bit_length())


@dataclass(frozen=True)
class ProbeBudget:
    """How much measuring one probe is allowed to do.

    ``repeats`` timed laps (the best is kept — minimum wall-clock is the
    robust statistic for short kernels) after ``warmup`` untimed calls.
    """

    repeats: int = 3
    warmup: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValidationError(f"repeats must be >= 1, got {self.repeats}")
        if self.warmup < 0:
            raise ValidationError(f"warmup must be >= 0, got {self.warmup}")

    def token(self) -> str:
        return f"r{self.repeats}w{self.warmup}"


DEFAULT_BUDGET = ProbeBudget()


@dataclass(frozen=True)
class Candidate:
    """One probe candidate: a registry format on one execution backend.

    ``backend`` selects the execution backend the candidate is timed on
    (:mod:`repro.parallel`) — ``format x backend`` cells compete against
    each other, so the tuner can elect e.g. ``b-csf+threads`` over serial
    ``coo``, or keep a format serial when the pool overhead loses on a
    small tensor.
    """

    format: str
    backend: str = "serial"

    @property
    def label(self) -> str:
        return (self.format if self.backend == "serial"
                else f"{self.format}+{self.backend}")


def _csl_eligible(tensor, mode: int) -> bool:
    """Whole-tensor CSL eligibility: every mode-``mode`` fiber is a singleton."""
    _, counts = tensor.fiber_keys(mode)
    return bool(counts.size) and bool(np.all(counts == 1))


def enumerate_candidates(tensor, mode: int,
                         backends: tuple[str, ...] = ("serial",),
                         ) -> list[Candidate]:
    """The probe candidates for one (tensor, mode) cell, in registry order.

    Every ``kind="own"`` registry entry with a CPU kernel that can
    represent the tensor participates, once per entry of ``backends``
    (serial first), with ``"threads"`` kept only for formats that declare
    kernel units (:attr:`FormatSpec.supports_threads
    <repro.formats.registry.FormatSpec.supports_threads>`).
    """
    candidates: list[Candidate] = []
    for name in format_names(kind="own", cpu=True):
        spec = get_format(name)
        try:
            spec.check_tensor(tensor)
        except ValidationError:
            continue
        if spec.requires_singleton_fibers and not _csl_eligible(tensor, mode):
            continue
        candidates.extend(
            Candidate(format=name, backend=backend) for backend in backends
            if backend == "serial" or spec.supports_threads)
    return candidates


@dataclass(frozen=True)
class TuneDecision:
    """Outcome of one probe: the elected candidate plus the evidence.

    Attributes
    ----------
    format:
        Canonical registry name of the winning format.
    mode / rank_bucket / dtype:
        The decision cell (dtype as its canonical name).
    timings:
        ``(candidate label, best probe seconds)`` for every candidate, in
        probe order — kept so callers can report *why* the winner won.
    backend / num_workers:
        Elected execution backend (:mod:`repro.parallel`).  A decision pins
        the backend it measured: dispatch executes exactly the winning
        candidate, so a ``serial`` winner stays serial even under
        ``REPRO_BACKEND=threads``.  Only an *explicit* per-call
        ``backend=``/``num_workers=`` argument overrides the pin.
    """

    format: str
    mode: int
    rank_bucket: int
    dtype: str
    timings: tuple[tuple[str, float], ...]
    backend: str = "serial"
    num_workers: int | None = None

    @property
    def label(self) -> str:
        return Candidate(self.format, self.backend).label

    def probe_seconds(self) -> dict[str, float]:
        return dict(self.timings)


def _decision_key(tensor, mode: int, bucket: int, dtype, config,
                  budget: ProbeBudget, backend_token: str = "serial") -> tuple:
    return (
        tensor_fingerprint(tensor),
        int(mode),
        int(bucket),
        dtype_token(dtype),
        config_token(config),
        budget.token(),
        backend_token,
    )


def _probe_factors(shape, rank: int, dtype) -> list[np.ndarray]:
    # F-contiguous (the kernels' layout), so probes time kernels, not copies
    rng = default_rng(PROBE_SEED)
    return rank_major([rng.standard_normal((s, rank)) for s in shape],
                      resolve_dtype(dtype))


def candidate_runner(candidate: Candidate, tensor, factors, mode: int,
                     config=None, dtype=None, num_workers=None):
    """A zero-argument closure executing one candidate's MTTKRP.

    The representation is fetched through the build-plan cache, so the
    closure times only the kernel — exactly what production dispatch will
    pay after the decision, through the same :meth:`FormatSpec.mttkrp
    <repro.formats.FormatSpec.mttkrp>` call.
    """
    spec = get_format(candidate.format)
    built = build_plan(tensor, spec.name, mode, config, dtype)
    return lambda: spec.mttkrp(built.rep, factors, mode, validate=False,
                               dtype=dtype, backend=candidate.backend,
                               num_workers=num_workers, plan_key=built.key)


def decide(
    tensor,
    mode: int,
    rank: int,
    *,
    dtype=None,
    config=None,
    budget: ProbeBudget | None = None,
    measure=None,
    use_cache: bool = True,
    backend=None,
    num_workers=None,
) -> TuneDecision:
    """Elect the fastest format for one ``(tensor, mode, rank)`` cell.

    Parameters
    ----------
    tensor / mode / rank:
        The MTTKRP cell being tuned; ``rank`` is bucketed
        (:func:`rank_bucket`) so near-equal ranks share a decision.
    dtype:
        Compute dtype the decision is for (float32 and float64 are tuned
        separately — their bandwidth profiles differ).
    config:
        Split configuration forwarded to the balanced formats' builders
        (participates in the decision key).
    budget:
        Probe budget; defaults to :data:`DEFAULT_BUDGET` (3 timed laps,
        1 warmup per candidate).
    measure:
        Measurement hook ``measure(fn) -> seconds`` replacing the
        wall-clock loop — injectable for deterministic tests.
    use_cache:
        Skip the decision cache entirely when ``False`` (always probes;
        the result is still *stored* so later calls can hit).
    backend / num_workers:
        Backends to consider.  ``"threads"`` (or ``None`` under
        ``REPRO_BACKEND=threads``) with more than one worker probes every
        sharded format on *both* backends and elects across the whole
        ``format x backend`` grid; ``"serial"`` keeps the serial-only
        probe.  The elected backend and worker count are pinned in the
        decision.

    Raises
    ------
    ValidationError
        When no registered format can represent the tensor.
    """
    budget = budget or DEFAULT_BUDGET
    bucket = rank_bucket(rank)
    resolved_backend = resolve_backend(backend)
    workers = resolve_workers(num_workers)
    probe_threads = resolved_backend == "threads" and workers > 1
    backend_token = f"threads@{workers}" if probe_threads else "serial"
    key = _decision_key(tensor, mode, bucket, dtype, config, budget,
                        backend_token)
    cache = decision_cache()
    if use_cache:
        cached = cache.get(key)
        if cached is not None and _still_registered(cached.format):
            return cached

    backends = ("serial", "threads") if probe_threads else ("serial",)
    candidates = enumerate_candidates(tensor, int(mode), backends)
    if not candidates:
        raise ValidationError(
            f"no registered CPU format can represent mode {mode} of this "
            "tensor; cannot autotune")

    factors = _probe_factors(tensor.shape, bucket, dtype)
    timings: list[tuple[str, float]] = []
    best: Candidate | None = None
    best_seconds = float("inf")
    with stage("tune.decide", mode=int(mode), rank_bucket=bucket,
               dtype=dtype_token(dtype), backend=backend_token,
               candidates=len(candidates)) as decide_sp:
        for candidate in candidates:
            fn = candidate_runner(candidate, tensor, factors, int(mode),
                                  config=config, dtype=dtype,
                                  num_workers=workers)
            with span("tune.probe", candidate=candidate.label) as probe_sp:
                if measure is not None:
                    seconds = float(measure(fn))
                else:
                    _, timer = repeat(fn, n=budget.repeats,
                                      warmup=budget.warmup)
                    seconds = timer.best
                probe_sp.set(seconds=seconds)
            timings.append((candidate.label, seconds))
            # strict < keeps ties deterministic: first (registry-order) wins
            if seconds < best_seconds:
                best = candidate
                best_seconds = seconds
        cache.record_probes(len(candidates))
        decide_sp.set(winner=best.label)

    decision = TuneDecision(
        format=best.format,
        mode=int(mode),
        rank_bucket=bucket,
        dtype=dtype_token(dtype),
        timings=tuple(timings),
        backend=best.backend,
        num_workers=workers if best.backend == "threads" else None,
    )
    cache.put(key, decision)
    return decision


def _still_registered(name: str) -> bool:
    from repro.formats import canonical_format

    try:
        return canonical_format(name) == name
    except ValidationError:
        return False
