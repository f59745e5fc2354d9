"""Cooperative deadline budgets.

A :class:`Deadline` is a monotonic-clock budget checked at natural
execution boundaries — passes inside the MTTKRP kernels, CP-ALS
iteration edges, bench-cell laps.  Checks raise
:class:`~repro.util.errors.DeadlineExceeded`, which carries the partial
result the caller attached (e.g. the factors of the committed iterations),
so hitting a budget degrades gracefully instead of discarding work.

The *ambient* deadline is a :mod:`contextvars` variable:
:func:`deadline_scope` installs one for a region and deep call sites poll
it with :func:`check_deadline` without any signature plumbing.  Context
variables are per-thread, so the parallel backend's pool
(:func:`repro.parallel.pool.run_tasks`) runs every task in a copy of the
submitting thread's context: the kernel passes of a threaded MTTKRP poll
the same deadline as the serial ones, and a :class:`DeadlineExceeded`
raised on a pool thread propagates to the caller.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.util.errors import DeadlineExceeded, ValidationError

__all__ = [
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "check_deadline",
    "as_deadline",
]


class Deadline:
    """A wall-clock budget counted from construction."""

    __slots__ = ("budget_seconds", "_start", "_clock")

    def __init__(self, seconds: float, *, clock=time.monotonic) -> None:
        seconds = float(seconds)
        if seconds <= 0:
            raise ValidationError(
                f"deadline budget must be positive, got {seconds}")
        self.budget_seconds = seconds
        self._clock = clock
        self._start = clock()

    def elapsed(self) -> float:
        return self._clock() - self._start

    def remaining(self) -> float:
        return self.budget_seconds - self.elapsed()

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_seconds

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed()
        if elapsed >= self.budget_seconds:
            at = f" at {where}" if where else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_seconds:.3f}s exceeded{at} "
                f"({elapsed:.3f}s elapsed)",
                where=where, budget_seconds=self.budget_seconds,
                elapsed_seconds=elapsed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Deadline(budget={self.budget_seconds:.3f}s, "
                f"remaining={self.remaining():.3f}s)")


_AMBIENT: ContextVar[Deadline | None] = ContextVar(
    "repro_ambient_deadline", default=None)


@contextmanager
def deadline_scope(deadline: Deadline | None):
    """Install ``deadline`` as the ambient deadline for the block.

    ``None`` is accepted and installs nothing, so call sites can wrap
    unconditionally.
    """
    if deadline is None:
        yield None
        return
    token = _AMBIENT.set(deadline)
    try:
        yield deadline
    finally:
        _AMBIENT.reset(token)


def current_deadline() -> Deadline | None:
    """The ambient deadline of the calling context, if any."""
    return _AMBIENT.get()


def check_deadline(where: str = "") -> None:
    """Check the ambient deadline; no-op when none is installed."""
    deadline = _AMBIENT.get()
    if deadline is not None:
        deadline.check(where)


def as_deadline(value) -> Deadline | None:
    """Coerce ``None`` / seconds / a :class:`Deadline` into a deadline."""
    if value is None or isinstance(value, Deadline):
        return value
    return Deadline(float(value))
