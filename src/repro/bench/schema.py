"""Versioned JSON schema for benchmark runs.

A :class:`BenchRun` is the unit of persistence: one invocation of the
runner over a set of (target, scenario) cells.  It serialises to a plain
dict with a ``schema_version`` discriminator, written as
``BENCH_<name>.json``.

The schema is deliberately flat and dependency-free so any tool — CI, a
notebook, ``jq`` — can consume it:

.. code-block:: json

    {
      "schema_version": 2,
      "name": "kernels",
      "created_at": "2026-07-28T12:00:00+00:00",
      "env": {"python": "3.12.3", "numpy": "1.26.4", "git_sha": "...",
              "peak_rss_bytes": 123456789},
      "config": {"repeats": 5, "warmup": 1, "rank": 32, "scale": 1.0},
      "measurements": [
        {"target": "kernel.coo", "scenario": "deli", "spec_hash": "...",
         "shape": [2000, 60000, 8000], "nnz": 50000, "rank": 32,
         "stats": {"repeats": 5, "warmup": 1, "min": 0.0018, "median": 0.0019,
                   "p95": 0.0021, "mean": 0.0019, "stddev": 0.0001,
                   "total": 0.0095, "laps": [...]},
         "metrics": {"peak_rss_bytes": 123456789},
         "counters": {"kernel.count": 6, "plan_cache.hits": 5}}
      ]
    }
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.errors import ValidationError
from repro.util.timing import Timer

__all__ = [
    "SCHEMA_VERSION",
    "Measurement",
    "BenchRun",
    "stats_from_timer",
    "timeout_stats",
    "validate_run_dict",
    "load_run",
    "save_run",
    "bench_artifact_path",
]

#: bump when the serialised layout changes incompatibly.  Version 2 added
#: the optional per-measurement ``counters`` object (telemetry counter
#: deltas: cache hits, kernel/build stage totals, gpusim work) and the
#: ``peak_rss_bytes`` environment/metric fields.  Version 3 added the
#: optional per-measurement ``status`` field (``"ok"`` when absent;
#: ``"timeout"`` marks a cell that hit the per-cell deadline — its stats
#: are the elapsed wall clock at expiry, not lap timings, and readers
#: must not treat them as measurements).  Older files still load —
#: readers accept anything <= this version.
SCHEMA_VERSION = 3

_STAT_KEYS = ("min", "median", "p95", "mean", "stddev", "total")


def stats_from_timer(timer: Timer, warmup: int) -> dict:
    """Robust summary statistics of one measured cell.

    A thin renaming of :meth:`repro.util.timing.Timer.stats` into the
    serialised field names (``min`` for ``best``, ``repeats`` for
    ``count``); raises :class:`ValidationError` on a timer with no laps.
    """
    stats = timer.stats()
    return {
        "repeats": stats["count"],
        "warmup": warmup,
        "min": stats["best"],
        "median": stats["median"],
        "p95": stats["p95"],
        "max": stats["max"],
        "mean": stats["mean"],
        "stddev": stats["stddev"],
        "total": stats["total"],
        "laps": stats["laps"],
    }


def timeout_stats(elapsed: float, warmup: int) -> dict:
    """Placeholder stats for a cell that hit its per-cell deadline.

    Every summary stat is set to the elapsed wall clock at expiry — a lower
    bound on the true cost, kept numeric so version-agnostic readers don't
    crash — and ``repeats`` is 0 / ``laps`` empty so the record cannot be
    mistaken for a completed measurement.  The measurement's ``status``
    field (``"timeout"``) is the authoritative marker.
    """
    stats = {key: float(elapsed) for key in _STAT_KEYS}
    stats.update({"repeats": 0, "warmup": warmup,
                  "max": float(elapsed), "laps": []})
    return stats


@dataclass(frozen=True)
class Measurement:
    """One timed (target, scenario) cell.

    ``counters`` holds the telemetry counter deltas observed across the
    cell's setup + warmup + timed laps (:mod:`repro.telemetry`): cache
    hit/miss movement, ``kernel.count``/``kernel.seconds`` stage totals,
    simulated gpusim work.  Empty for cells that touched no instrumented
    layer and for version-1 files.

    ``status`` is ``"ok"`` for a completed measurement and ``"timeout"``
    for a cell that hit the runner's per-cell deadline (its stats are
    :func:`timeout_stats` placeholders); readers must skip non-ok cells
    rather than read their stats as timings.
    """

    target: str
    scenario: str
    spec_hash: str
    shape: tuple[int, ...]
    nnz: int
    rank: int
    stats: dict
    metrics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def seconds(self, metric: str = "median") -> float:
        if metric not in _STAT_KEYS:
            raise ValidationError(
                f"unknown stat {metric!r}; choose one of {', '.join(_STAT_KEYS)}"
            )
        return float(self.stats[metric])

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "scenario": self.scenario,
            "spec_hash": self.spec_hash,
            "shape": list(self.shape),
            "nnz": self.nnz,
            "rank": self.rank,
            "stats": dict(self.stats),
            "metrics": dict(self.metrics),
            "counters": dict(self.counters),
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Measurement":
        try:
            return cls(
                target=str(data["target"]),
                scenario=str(data["scenario"]),
                spec_hash=str(data.get("spec_hash", "")),
                shape=tuple(int(s) for s in data.get("shape", ())),
                nnz=int(data.get("nnz", 0)),
                rank=int(data.get("rank", 0)),
                stats=dict(data["stats"]),
                metrics=dict(data.get("metrics", {})),
                counters=dict(data.get("counters", {})),
                status=str(data.get("status", "ok")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed measurement: {exc}") from None


@dataclass
class BenchRun:
    """One serialisable benchmark run (a set of measurements + provenance)."""

    name: str
    created_at: str
    env: dict
    config: dict
    measurements: list[Measurement] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def measurement(self, target: str, scenario: str) -> Measurement | None:
        for m in self.measurements:
            if m.target == target and m.scenario == scenario:
                return m
        return None

    def keys(self) -> list[tuple[str, str]]:
        return [(m.target, m.scenario) for m in self.measurements]

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "created_at": self.created_at,
            "env": dict(self.env),
            "config": dict(self.config),
            "measurements": [m.to_dict() for m in self.measurements],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRun":
        validate_run_dict(data)
        return cls(
            name=str(data["name"]),
            created_at=str(data["created_at"]),
            env=dict(data["env"]),
            config=dict(data.get("config", {})),
            measurements=[Measurement.from_dict(m) for m in data["measurements"]],
            schema_version=int(data["schema_version"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchRun":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bench run is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def validate_run_dict(data: object) -> None:
    """Structural schema check; raises :class:`ValidationError` on problems."""
    if not isinstance(data, dict):
        raise ValidationError(
            f"bench run must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version")
    if not isinstance(version, int):
        raise ValidationError('bench run needs an integer "schema_version"')
    if version > SCHEMA_VERSION:
        raise ValidationError(
            f"bench run has schema_version {version}, this build reads "
            f"<= {SCHEMA_VERSION}")
    for key, kind in (("name", str), ("created_at", str), ("env", dict),
                      ("measurements", list)):
        if not isinstance(data.get(key), kind):
            raise ValidationError(
                f'bench run needs a "{key}" of type {kind.__name__}')
    for i, m in enumerate(data["measurements"]):
        if not isinstance(m, dict):
            raise ValidationError(f"measurement #{i} is not an object")
        for key in ("target", "scenario", "stats"):
            if key not in m:
                raise ValidationError(f'measurement #{i} lacks "{key}"')
        stats = m["stats"]
        if not isinstance(stats, dict):
            raise ValidationError(f"measurement #{i} stats is not an object")
        if m.get("status", "ok") != "ok":
            # a timed-out / failed cell carries placeholder stats; only its
            # identity fields (checked above) are load-bearing
            continue
        for key in _STAT_KEYS:
            if not isinstance(stats.get(key), (int, float)):
                raise ValidationError(
                    f'measurement #{i} stats lacks numeric "{key}"')


def bench_artifact_path(name: str, out_dir: str | os.PathLike = ".") -> Path:
    """``<out_dir>/BENCH_<name>.json`` (the conventional artifact name)."""
    safe = name.strip().replace(os.sep, "-").replace(" ", "-")
    if not safe:
        raise ValidationError("bench run name must be non-empty")
    return Path(out_dir) / f"BENCH_{safe}.json"


def load_run(path: str | os.PathLike) -> BenchRun:
    """Read and validate a ``BENCH_*.json`` file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read bench run {path!r}: {exc}") from None
    return BenchRun.from_json(text)


def save_run(run: BenchRun, path: str | os.PathLike) -> Path:
    """Atomically write ``run`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(run.to_json())
        fh.write("\n")
    os.replace(tmp, path)
    return path
