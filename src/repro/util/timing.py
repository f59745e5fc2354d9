"""Wall-clock timing helpers used by the pre-processing experiments, the
autotuner's probes and the quantiles that reports print."""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

from repro.util.errors import ValidationError

T = TypeVar("T")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of an arbitrary non-empty sample.

    The one quantile definition shared by the telemetry span summaries and
    the ``repro-bench ab`` medians and IQRs, so a quantile means the same
    thing everywhere it is printed.
    """
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"quantile q must be in [0, 1], got {q}")
    data = sorted(float(v) for v in values)
    if not data:
        raise ValidationError("cannot take a quantile of an empty sample")
    n = len(data)
    if n == 1:
        return data[0]
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


@dataclass
class Timer:
    """Accumulating wall-clock timer.

    ``Timer`` is used where the paper reports *measured* pre-processing time
    (format construction happens on the host in both the paper and this
    reproduction, so wall-clock is the honest metric there).  Each
    :meth:`measure` block records one lap; :attr:`best` is the fastest.
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

    @property
    def best(self) -> float:
        """Fastest recorded lap (0.0 when no laps were recorded)."""
        return min(self.laps) if self.laps else 0.0


def repeat(fn: Callable[[], T], n: int = 5, warmup: int = 1) -> tuple[T, Timer]:
    """Call ``fn()`` ``warmup + n`` times, timing the last ``n``.

    Returns ``(last result, Timer)`` where the timer holds one lap per
    measured call.
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
