"""``repro-bench ab``: A/B the paper-scale benchmark between two commits.

Usage::

    python -m repro.bench ab <rev> [--workload W]

``<rev>`` is the parent, ``HEAD`` the change.  Both are snapshotted with
``git archive`` into one temporary directory outside the repository,
which is deleted on exit, error included.  For each workload that
``BENCHMARK.json`` declares (or just ``W``), each side's benchmark command
(``perfbench/run.py``) runs ``--trace 0`` for :data:`PAIRS` alternating
pairs, the side that runs first swapping every pair, at the file's
``run_seconds``; then :data:`TRACED_PAIRS` alternating ``--trace 1``
pairs.  Each run's last stdout line is its JSON result.

For every end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and IQR, the change's wins over the pairs, and a verdict:

* ``regression`` — the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
* ``unresolved`` — the parent's IQR is wider than that bound, so the runs
  cannot tell a shift from noise (unless every change run reads better
  than every parent run);
* ``gain`` — the change wins at least 9 of 10 pairs and the medians differ
  by more than the parent's IQR;
* ``neutral`` — otherwise.

The command fails (exit 1) on a ``regression``, on any run that is not
``correct``, and when the change fails a larger share of its operations
than the parent.  Each per-layer metric follows as the change/parent
ratio of its medians over the traced pairs, largest move first, to place
a shift in a layer.
"""

from __future__ import annotations

import json
import math
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.util.errors import ReproError
from repro.util.timing import quantile

__all__ = ["PAIRS", "TRACED_PAIRS", "MetricVerdict", "AbReport",
           "evaluate", "run_ab"]

#: alternating parent/change pairs per workload: the fewest that can meet
#: the 9-of-10 win rule a gain needs.
PAIRS = 10
#: alternating traced pairs per workload; a per-layer value is the median
#: of these runs.  One traced call of a layer varies by 10-20% between
#: runs, as much as the shifts a change is meant to place in a layer (three
#: ``ab`` runs of the same two commits read one CSL group time 0.67x, 1.24x
#: and 1.08x); the median of three discards one outlying run.
TRACED_PAIRS = 3
SIDES = ("parent", "change")


@dataclass(frozen=True)
class MetricVerdict:
    """One end-to-end metric over the pairs of one workload."""

    name: str
    unit: str
    parent_median: float
    parent_iqr: float
    change_median: float
    change_iqr: float
    wins: int
    pairs: int
    verdict: str


@dataclass
class AbReport:
    """The A/B outcome for one workload."""

    workload: str
    metrics: list[MetricVerdict]
    #: (per-layer metric, parent median, change median) over the traced
    #: pairs, largest move first
    layers: list[tuple[str, float, float]]
    #: failed operations / attempted operations, per side
    failed: dict[str, tuple[int, int]]
    #: incorrect runs, missing metrics and a higher failed share
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and all(m.verdict != "regression"
                                         for m in self.metrics)


def _iqr(values: list[float]) -> float:
    return quantile(values, 0.75) - quantile(values, 0.25)


def _judge(metric: dict, parent: list[float],
           change: list[float]) -> MetricVerdict:
    """Verdict for one ``BENCHMARK.json`` end-to-end ``metric``.

    ``parent[i]`` and ``change[i]`` come from pair ``i``.
    """
    # sign turns every metric into "lower is better"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p_med, c_med = quantile(parent, 0.5), quantile(change, 0.5)
    p_iqr = _iqr(parent)
    allowed = metric["bound"] * abs(p_med)
    worse_by = sign * (c_med - p_med)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    separated = (max(sign * c for c in change)
                 < min(sign * p for p in parent))
    if worse_by > allowed:
        verdict = "regression"
    elif p_iqr > allowed and not separated:
        verdict = "unresolved"
    elif 10 * wins >= 9 * pairs and -worse_by > p_iqr:
        verdict = "gain"
    else:
        verdict = "neutral"
    return MetricVerdict(metric["name"], metric["unit"], p_med, p_iqr,
                         c_med, _iqr(change), wins, pairs, verdict)


def _layer_move(parent: float, change: float) -> float:
    """Size of a per-layer move, symmetric in direction: ``|log(c/p)|``."""
    if parent == change:
        return 0.0
    if parent <= 0 or change <= 0:
        return math.inf
    return abs(math.log(change / parent))


def evaluate(workload: str, benchmark: dict, runs: dict[str, list[dict]],
             traced: dict[str, list[dict]]) -> AbReport:
    """Judge one workload from parsed run results.

    ``runs[side][i]`` is pair ``i``'s ``--trace 0`` result of ``side``
    (``"parent"`` / ``"change"``); ``traced[side][i]`` is traced pair
    ``i``'s ``--trace 1`` result.
    """
    problems = []
    failed = {}
    for side in SIDES:
        every = runs[side] + traced[side]
        bad = sum(not r["correct"] for r in every)
        if bad:
            problems.append(f"{side}: {bad} of {len(every)} runs not correct")
        failed[side] = (sum(r["failed"] for r in every),
                        sum(r["attempted"] for r in every))
    (p_fail, p_all), (c_fail, c_all) = failed["parent"], failed["change"]
    if c_fail * p_all > p_fail * c_all:
        problems.append(f"change fails {c_fail}/{c_all} operations, "
                        f"parent {p_fail}/{p_all}")

    metrics = []
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in SIDES}
        if any(len(values[side]) < len(runs[side]) for side in SIDES):
            problems.append(f"{name}: missing from some runs")
            continue
        metrics.append(_judge(metric, values["parent"], values["change"]))

    layers = []
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in traced[side]
                         if name in r["metrics"]] for side in SIDES}
        if all(len(values[side]) == len(traced[side]) for side in SIDES):
            layers.append((name, quantile(values["parent"], 0.5),
                           quantile(values["change"], 0.5)))
    layers.sort(key=lambda row: _layer_move(row[1], row[2]), reverse=True)
    return AbReport(workload, metrics, layers, failed, problems)


def _format_report(report: AbReport) -> str:
    from repro.experiments.common import format_table

    rows = [{
        "metric": m.name,
        "unit": m.unit,
        "parent median": m.parent_median,
        "parent IQR": m.parent_iqr,
        "change median": m.change_median,
        "change IQR": m.change_iqr,
        "wins": f"{m.wins}/{m.pairs}",
        "verdict": m.verdict,
    } for m in report.metrics]
    lines = [f"== {report.workload}", format_table(rows)]
    lines.append("failed operations: " + ", ".join(
        f"{side} {n}/{total}" for side, (n, total) in report.failed.items()))
    lines.append("per-layer, medians over the traced pairs "
                 "(change / parent), largest move first:")
    lines.append(format_table([{
        "layer metric": name,
        "parent": p,
        "change": c,
        "ratio": "-" if p == 0 else f"{c / p:.3f}x",
    } for name, p, c in report.layers]))
    for problem in report.problems:
        lines.append(f"FAIL: {problem}")
    failing = [m.name for m in report.metrics if m.verdict == "regression"]
    if failing:
        lines.append(f"FAIL: regression in {', '.join(failing)}")
    return "\n".join(lines)


def _git(repo: Path, *args: str) -> bytes:
    proc = subprocess.run(["git", *args], cwd=repo, capture_output=True)
    if proc.returncode != 0:
        raise ReproError(f"git {' '.join(args)}: "
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def _snapshot(repo: Path, rev: str, dest: Path) -> str:
    """Extract ``rev``'s tree into ``dest``; return its short SHA."""
    sha = _git(repo, "rev-parse", "--short=12", f"{rev}^{{commit}}")
    archive = _git(repo, "archive", "--format=tar", rev)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha.decode().strip()


def _run_once(checkout: Path, command: list[str], workload: str,
              seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``; its parsed JSON result."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seconds", f"{seconds:g}",
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ReproError(f"{checkout.name}: {workload} printed no JSON "
                         f"result (exit {proc.returncode})\n{tail}") from None
    result["correct"] = bool(result.get("correct")) and proc.returncode == 0
    return result


def _measure(checkouts: dict[str, Path], command: list[str], workload: str,
             seconds: float, log: Callable[[str], None]):
    def alternate(pairs: int, trace: int) -> dict[str, list[dict]]:
        results: dict[str, list[dict]] = {side: [] for side in SIDES}
        kind = "traced pair" if trace else "pair"
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                start = time.perf_counter()
                results[side].append(_run_once(checkouts[side], command,
                                               workload, seconds, trace))
                log(f"[ab] {workload} {kind} {i + 1}/{pairs} {side}: "
                    f"{time.perf_counter() - start:.0f} s")
        return results

    return alternate(PAIRS, 0), alternate(TRACED_PAIRS, 1)


def run_ab(rev: str, workload: str | None = None, repo: str | Path = ".",
           log: Callable[[str], None] = print) -> list[AbReport]:
    """A/B ``rev`` (parent) against ``HEAD`` (change) in ``repo``.

    Prints each workload's report through ``log`` as it completes and
    returns the reports.  Raises :class:`ReproError` on an unknown
    revision or workload and on a run that prints no result.
    """
    repo = Path(_git(Path(repo), "rev-parse", "--show-toplevel")
                .decode().strip())
    with tempfile.TemporaryDirectory(prefix="repro-ab-") as tmp:
        checkouts = {"parent": Path(tmp) / "parent",
                     "change": Path(tmp) / "change"}
        shas = {"parent": _snapshot(repo, rev, checkouts["parent"]),
                "change": _snapshot(repo, "HEAD", checkouts["change"])}
        declared = checkouts["change"] / "BENCHMARK.json"
        try:
            benchmark = json.loads(declared.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"HEAD has no readable BENCHMARK.json: {exc}") \
                from None
        names = [w["name"] for w in benchmark["workloads"]]
        if workload is not None and workload not in names:
            raise ReproError(f"unknown workload {workload!r}; "
                             f"BENCHMARK.json declares {', '.join(names)}")
        log(f"[ab] parent {rev} ({shas['parent']}) vs change HEAD "
            f"({shas['change']}): {PAIRS} pairs and {TRACED_PAIRS} traced "
            f"pairs of {benchmark['run_seconds']} s runs")
        reports = []
        for name in ([workload] if workload else names):
            runs, traced = _measure(checkouts, benchmark["command"], name,
                                    benchmark["run_seconds"], log)
            report = evaluate(name, benchmark, runs, traced)
            log(_format_report(report))
            reports.append(report)
    return reports
