"""Wall-clock timing helpers used by the pre-processing experiments and
the :mod:`repro.bench` measurement subsystem."""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

from repro.util.errors import ValidationError

T = TypeVar("T")


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an already-sorted sample."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of an arbitrary non-empty sample.

    The one quantile definition shared by :class:`Timer`, the telemetry
    span summaries and the ``repro-bench ab`` medians and IQRs, so a
    quantile means the same thing everywhere it is printed.
    """
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"quantile q must be in [0, 1], got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        raise ValidationError("cannot take a quantile of an empty sample")
    return _quantile(data, q)


@dataclass
class Timer:
    """Accumulating wall-clock timer.

    ``Timer`` is used where the paper reports *measured* pre-processing time
    (format construction happens on the host in both the paper and this
    reproduction, so wall-clock is the honest metric there).  The lap-based
    statistics (:attr:`best`, :attr:`median`, :attr:`p95`) are what
    :mod:`repro.bench` records for every measurement.
    """

    elapsed: float = 0.0
    laps: list[float] = field(default_factory=list)

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        start = time.perf_counter()
        try:
            yield self
        finally:
            lap = time.perf_counter() - start
            self.elapsed += lap
            self.laps.append(lap)

    def reset(self) -> None:
        self.elapsed = 0.0
        self.laps.clear()

    # ------------------------------------------------------------------ #
    # lap statistics
    # ------------------------------------------------------------------ #
    @property
    def best(self) -> float:
        """Fastest recorded lap (0.0 when no laps were recorded)."""
        return min(self.laps) if self.laps else 0.0

    @property
    def median(self) -> float:
        """Median lap time (0.0 when no laps were recorded)."""
        if not self.laps:
            return 0.0
        return _quantile(sorted(self.laps), 0.5)

    @property
    def p95(self) -> float:
        """95th-percentile lap time (0.0 when no laps were recorded)."""
        if not self.laps:
            return 0.0
        return _quantile(sorted(self.laps), 0.95)

    def stats(self) -> dict:
        """Summary statistics of the recorded laps, in one dict.

        Keys: ``count``, ``best``, ``median``, ``p95``, ``max``, ``mean``,
        ``stddev``, ``total`` and the raw ``laps`` list.  This is the
        canonical summary :mod:`repro.bench` serialises per measurement
        cell — consumers read one dict instead of assembling the statistic
        properties piecemeal.

        Raises
        ------
        ValidationError
            When no laps have been recorded: every statistic would be a
            meaningless 0.0, which summary consumers must not mistake for
            an instantaneous measurement.
        """
        laps = list(self.laps)
        n = len(laps)
        if n == 0:
            raise ValidationError(
                "cannot summarise a timer with no laps; record at least "
                "one lap (Timer.measure) before calling stats()")
        total = sum(laps)
        mean = total / n
        var = sum((lap - mean) ** 2 for lap in laps) / n
        return {
            "count": n,
            "best": min(laps),
            "median": self.median,
            "p95": self.p95,
            "max": max(laps),
            "mean": mean,
            "stddev": var ** 0.5,
            "total": total,
            "laps": laps,
        }


def repeat(fn: Callable[[], T], n: int = 5, warmup: int = 1) -> tuple[T, Timer]:
    """Call ``fn()`` ``warmup + n`` times, timing the last ``n``.

    Returns ``(last result, Timer)`` where the timer holds one lap per
    measured call — the shared measurement loop behind every
    :mod:`repro.bench` target.
    """
    if n < 1:
        raise ValidationError(f"repeat needs n >= 1, got {n}")
    if warmup < 0:
        raise ValidationError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    timer = Timer()
    result: T = None  # type: ignore[assignment]
    for _ in range(n):
        with timer.measure():
            result = fn()
    return result, timer


def timed(fn: Callable[..., T], *args, **kwargs) -> tuple[T, float]:
    """Call ``fn(*args, **kwargs)`` and return ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
