"""Backend resolution and the reusable worker-pool runtime.

The execution backend is a per-call choice (``backend="serial"|"threads"``
on :func:`repro.core.mttkrp.mttkrp`, :class:`~repro.core.mttkrp.MttkrpPlan`,
``cp_als`` and :meth:`repro.formats.FormatSpec.mttkrp`) with a process-wide
default taken from the environment:

* ``REPRO_BACKEND`` — ``serial`` (default) or ``threads``; lets CI run the
  whole test suite threaded without touching any call site.
* ``REPRO_NUM_WORKERS`` — worker count for the threaded backend; defaults
  to the machine's CPU count.

The pool itself is one process-global :class:`ThreadPoolExecutor`, created
on first threaded call and reused afterwards — thread spawn cost is paid
once per process, not once per MTTKRP.  It only ever grows: requesting more
workers than the current pool holds replaces it with a larger one.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from repro.util.errors import ValidationError

__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "WORKERS_ENV",
    "resolve_backend",
    "resolve_workers",
    "get_pool",
    "run_tasks",
    "shutdown_pool",
]

#: the execution backends the dispatch layer understands.
BACKENDS = ("serial", "threads")

#: environment variable supplying the default backend (empty = unset).
BACKEND_ENV = "REPRO_BACKEND"

#: environment variable supplying the default worker count (empty = unset).
WORKERS_ENV = "REPRO_NUM_WORKERS"


def resolve_backend(backend: str | None = None) -> str:
    """Normalise a backend choice; ``None`` falls back to the environment.

    An empty/whitespace ``REPRO_BACKEND`` counts as unset (CI matrices set
    the variable to ``""`` on the serial leg rather than deleting it).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV, "").strip() or "serial"
    if not isinstance(backend, str):
        raise ValidationError(
            f"backend must be a string, got {type(backend).__name__}")
    folded = backend.strip().lower()
    if folded not in BACKENDS:
        raise ValidationError(
            f"unknown backend {backend!r}; choose one of {', '.join(BACKENDS)}")
    return folded


def resolve_workers(num_workers: int | None = None) -> int:
    """Normalise a worker count; ``None`` falls back to env / CPU count."""
    if num_workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            num_workers = env
        else:
            return max(1, os.cpu_count() or 1)
    try:
        workers = int(num_workers)
    except (TypeError, ValueError):
        raise ValidationError(
            f"num_workers must be an integer, got {num_workers!r}") from None
    if workers < 1:
        raise ValidationError(f"num_workers must be >= 1, got {workers}")
    return workers


_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None
_POOL_WORKERS = 0


def get_pool(num_workers: int) -> ThreadPoolExecutor:
    """The shared executor, grown to hold at least ``num_workers`` threads."""
    global _POOL, _POOL_WORKERS
    num_workers = resolve_workers(num_workers)
    with _LOCK:
        if _POOL is None or _POOL_WORKERS < num_workers:
            old = _POOL
            _POOL = ThreadPoolExecutor(max_workers=num_workers,
                                       thread_name_prefix="repro-worker")
            _POOL_WORKERS = num_workers
            if old is not None:
                # in-flight tasks finish on the old pool's threads; new work
                # lands on the bigger pool
                old.shutdown(wait=False)
        return _POOL


def run_tasks(tasks: Sequence[Callable[[], object]]) -> list[object]:
    """Execute zero-argument tasks on the shared pool; return their results.

    Results come back in task order regardless of completion order, and the
    first task exception propagates to the caller (remaining tasks still
    run — they share output rows with nobody, so letting them finish is
    harmless and keeps the pool state simple).  A single task runs inline:
    no submission overhead, and callers never deadlock by running inside a
    pool thread themselves.

    Each task runs in its own copy of the caller's :mod:`contextvars`
    context (one context cannot be entered by two threads at once), so
    pool threads poll the ambient deadline of :mod:`repro.faults.deadline`.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if len(tasks) == 1:
        return [tasks[0]()]
    pool = get_pool(len(tasks))
    futures = [pool.submit(contextvars.copy_context().run, task)
               for task in tasks]
    return [future.result() for future in futures]


def shutdown_pool() -> None:
    """Tear down the shared pool (tests / interpreter shutdown hygiene)."""
    global _POOL, _POOL_WORKERS
    with _LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0
