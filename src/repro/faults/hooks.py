"""Fault-point registry, the active-plan stack, and the injection hook.

Instrumented call sites declare a named fault point once (module import
time) and call :func:`fault_point` at the matching execution boundary.
While no plan is installed the hook is one module-global read — the I/O
and kernel hot paths pay nothing for carrying it.

Plans are installed process-wide (a stack, so :func:`inject` nests) and
consulted by every thread; firing decisions live in the plan and are
seed-deterministic.  ``REPRO_FAULTS`` installs a plan for the whole
process the first time :mod:`repro.faults` is imported, which is how the
chaos CI job drives ordinary test suites under injection.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.faults.plan import FaultPlan, FaultSpec, parse_faults
from repro.telemetry.counters import counter_add
from repro.util.errors import FaultInjected, ValidationError

__all__ = [
    "FAULTS_ENV",
    "FAULTS_SEED_ENV",
    "FAULTS_LOG_ENV",
    "register_fault_point",
    "registered_fault_points",
    "fault_point",
    "install",
    "uninstall",
    "active_plan",
    "inject",
    "install_from_env",
    "scan_for_debris",
]

FAULTS_ENV = "REPRO_FAULTS"
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"
FAULTS_LOG_ENV = "REPRO_FAULTS_LOG"

#: name -> human description; populated by the instrumented modules and
#: seeded here with the library's built-in points so a plan can be
#: validated before those modules are imported.
_REGISTRY: dict[str, str] = {}
_REGISTRY_LOCK = threading.Lock()

_PLANS: list[FaultPlan] = []
_PLANS_LOCK = threading.Lock()


def register_fault_point(name: str, description: str) -> str:
    """Declare a named fault point (idempotent); returns the name."""
    if not name:
        raise ValidationError("fault-point name must be non-empty")
    with _REGISTRY_LOCK:
        _REGISTRY.setdefault(name, description)
    return name


def registered_fault_points() -> dict[str, str]:
    """Snapshot of the registry (name -> description)."""
    with _REGISTRY_LOCK:
        return dict(_REGISTRY)


#: the library's built-in fault points.  Registered eagerly so schedules
#: can be validated up front and the docs table has one source of truth.
BUILTIN_FAULT_POINTS: tuple[tuple[str, str], ...] = (
    ("shards.write",
     "shard / manifest file committed by the sharded-COO writer "
     "(file kinds damage the temp file just before its atomic rename)"),
    ("shards.sort.merge",
     "one pairwise merge of the external sort cascade in sort_sharded"),
    ("cache.put",
     "scenario npz cache entry committed by ScenarioCache.put"),
    ("plan_cache.load",
     "build-plan cache lookup (a fired corrupt/truncate drops the entry, "
     "forcing a transparent rebuild)"),
    ("kernel.slab",
     "one pass (rank rows × nonzero range) of the CSF / CSL / COO kernels"),
    ("als.iteration",
     "one outer CP-ALS iteration boundary"),
    ("checkpoint.commit",
     "CP-ALS checkpoint npz committed by save_checkpoint"),
)
for _name, _description in BUILTIN_FAULT_POINTS:
    register_fault_point(_name, _description)


# --------------------------------------------------------------------- #
# plan installation
# --------------------------------------------------------------------- #
def _validate_points(plan: FaultPlan) -> None:
    known = registered_fault_points()
    for spec in plan.specs:
        if spec.point not in known:
            raise ValidationError(
                f"fault clause targets unregistered point {spec.point!r}; "
                f"registered points: {', '.join(sorted(known))}")


def install(plan: FaultPlan) -> FaultPlan:
    """Push ``plan`` onto the active stack (the top plan is consulted)."""
    _validate_points(plan)
    with _PLANS_LOCK:
        _PLANS.append(plan)
    return plan


def uninstall(plan: FaultPlan | None = None) -> None:
    """Pop ``plan`` (or the top plan) off the active stack."""
    with _PLANS_LOCK:
        if plan is None:
            if _PLANS:
                _PLANS.pop()
        elif plan in _PLANS:
            _PLANS.remove(plan)


def active_plan() -> FaultPlan | None:
    """The plan currently consulted by :func:`fault_point`, if any."""
    plans = _PLANS
    return plans[-1] if plans else None


@contextmanager
def inject(schedule: FaultPlan | str, *, seed: int | None = None,
           log_path: str | os.PathLike | None = None):
    """Install a fault schedule for the duration of a ``with`` block.

    ``schedule`` is a :class:`FaultPlan` or a ``REPRO_FAULTS`` grammar
    string; yields the live plan so callers can inspect its fire log.
    """
    plan = (schedule if isinstance(schedule, FaultPlan)
            else parse_faults(schedule, seed=seed, log_path=log_path))
    install(plan)
    try:
        yield plan
    finally:
        uninstall(plan)


def install_from_env(environ=os.environ) -> FaultPlan | None:
    """Install the schedule named by ``REPRO_FAULTS``, if any.

    ``REPRO_FAULTS_SEED`` overrides the schedule's ``seed=`` clause and
    ``REPRO_FAULTS_LOG`` streams one JSON line per fired fault.  Called
    once at :mod:`repro.faults` import; repeated calls while a plan is
    active are no-ops so importing the package twice cannot stack plans.
    """
    text = environ.get(FAULTS_ENV)
    if not text:
        return None
    if active_plan() is not None:
        return active_plan()
    seed_text = environ.get(FAULTS_SEED_ENV)
    seed = int(seed_text) if seed_text else None
    log_path = environ.get(FAULTS_LOG_ENV) or None
    return install(parse_faults(text, seed=seed, log_path=log_path))


# --------------------------------------------------------------------- #
# the hook
# --------------------------------------------------------------------- #
def _damage_file(spec: FaultSpec, path, rng) -> None:
    """Apply a truncate/corrupt action to ``path`` (missing file: no-op)."""
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return
    if spec.kind == "truncate":
        keep = int(size * spec.frac)
        if keep >= size and size > 0:
            keep = size - 1
        with open(path, "rb+") as fh:
            fh.truncate(max(keep, 0))
    elif spec.kind == "corrupt" and size > 0:
        n = min(spec.bytes, size)
        offset = rng.randrange(0, size - n + 1)
        # deterministic junk drawn from the clause rng (never 0: a zeroed
        # byte could coincide with real payload and hide the corruption)
        junk = bytes(rng.randrange(1, 256) for _ in range(n))
        with open(path, "rb+") as fh:
            fh.seek(offset)
            fh.write(junk)


def fault_point(name: str, path=None, **info) -> tuple[str, ...]:
    """Consult the active plan at the fault point ``name``.

    Returns the kinds that fired (empty tuple when no plan is active or
    nothing fired).  ``stall`` sleeps, ``truncate``/``corrupt`` damage
    ``path`` when one is given (call sites without a file read the
    returned kinds and emulate the loss semantically), and ``raise``
    raises :class:`~repro.util.errors.FaultInjected` — after every other
    fired action has been applied and logged.
    """
    plan = active_plan()
    if plan is None:
        return ()
    fired = plan.poll(name)
    if not fired:
        return ()
    kinds: list[str] = []
    crash: FaultInjected | None = None
    for spec, hit, rng in fired:
        counter_add("faults.injected")
        plan.record(spec, hit, path=path, info=info)
        kinds.append(spec.kind)
        if spec.kind == "stall":
            time.sleep(spec.seconds)
        elif spec.kind in ("truncate", "corrupt") and path is not None:
            _damage_file(spec, path, rng)
        elif spec.kind == "raise" and crash is None:
            crash = FaultInjected(name, hit=hit)
    if crash is not None:
        raise crash
    return tuple(kinds)


# --------------------------------------------------------------------- #
# torn-state scanning
# --------------------------------------------------------------------- #
def scan_for_debris(root: str | os.PathLike) -> list[Path]:
    """Files under ``root`` that only exist mid-write: uncommitted temp
    files (``.*.tmp*`` from the atomic-write protocol) and external-sort
    scratch (``.runs`` directories).  A crash-safe operation, interrupted
    or not, must leave this list empty; quarantine directories are *not*
    debris (quarantining is the recovery, and the files are kept for
    forensics).  Chaos tests and the chaos CI job assert on this.
    """
    root = Path(root)
    debris: list[Path] = []
    if not root.exists():
        return debris
    for path in sorted(root.rglob("*")):
        if ".quarantine" in path.parts:
            continue
        name = path.name
        if name == ".runs" and path.is_dir():
            debris.append(path)
        elif name.startswith(".") and ".tmp" in name:
            debris.append(path)
    return debris
