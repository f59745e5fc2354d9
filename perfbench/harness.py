"""Operation ledger and span recorder shared by both kinds of run.

Every timed call into the library is one *operation*: it is counted as
attempted, timed with ``perf_counter``, and counted as failed when it
raises, overruns its deadline, or a later correctness check rejects its
output.  ``failed / attempted`` is the run's error rate.

With tracing on, each operation (and each grouping span) is also kept as
a span record — name, start, end, parent span and the run id — in memory,
and written out as JSON lines when the run ends.  With tracing off the
same code runs, but no record is kept.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: an operation running longer than this counts as failed (deadline).
OP_DEADLINE_S = 60.0


class Timing:
    """What an ``op``/``span`` block yields: its id and, on exit, its time."""

    __slots__ = ("id", "seconds")

    def __init__(self, op_id: int | None):
        self.id = op_id
        self.seconds = 0.0


class _Block:
    def __init__(self, harness: "Harness", name: str, counted: bool,
                 attrs: dict):
        self.h = harness
        self.name = name
        self.counted = counted
        self.attrs = attrs
        self.record = None

    def __enter__(self) -> Timing:
        h = self.h
        enter = time.perf_counter()
        op_id = None
        if self.counted:
            h.attempted += 1
            op_id = h.attempted
        self.timing = Timing(op_id)
        if h.tracing:
            self.record = {"span": len(h.records),
                           "parent": h.stack[-1] if h.stack else None,
                           "run": h.run_id, "name": self.name,
                           "op": op_id, **self.attrs}
            h.records.append(self.record)
            h.stack.append(self.record["span"])
        self.start = time.perf_counter()
        h.overhead_s += self.start - enter
        return self.timing

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        h = self.h
        self.timing.seconds = end - self.start
        if self.record is not None:
            self.record["start"] = self.start
            self.record["end"] = end
            h.stack.pop()
        if self.counted:
            if exc is not None:
                h.fail(self.timing.id,
                       f"{self.name}: {type(exc).__name__}: {exc}")
            elif self.timing.seconds > OP_DEADLINE_S:
                h.fail(self.timing.id,
                       f"{self.name}: deadline ({self.timing.seconds:.1f} s "
                       f"> {OP_DEADLINE_S:.0f} s)")
        h.overhead_s += time.perf_counter() - end
        return False


class Harness:
    """Operation counts, failures and (optionally) span records of a run."""

    def __init__(self, run_id: str, tracing: bool):
        self.run_id = run_id
        self.tracing = tracing
        self.attempted = 0
        self.failures: dict[int, str] = {}
        self.records: list[dict] = []
        self.stack: list[int] = []
        #: seconds spent in the harness's own bookkeeping.
        self.overhead_s = 0.0

    def op(self, name: str, **attrs) -> _Block:
        """A counted, timed operation; an exception is recorded, re-raised."""
        return _Block(self, name, True, attrs)

    def span(self, name: str, **attrs) -> _Block:
        """A grouping span: timed and traced, but not an operation."""
        return _Block(self, name, False, attrs)

    def fail(self, op_id: int, reason: str) -> None:
        """Mark an attempted operation failed (the first reason is kept)."""
        self.failures.setdefault(op_id, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def write_trace(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, **meta}) + "\n")
            for record in self.records:
                fh.write(json.dumps(record) + "\n")
