"""Command-line interface for the benchmarking subsystem.

Usage::

    python -m repro.bench list
    python -m repro.bench list --formats
    python -m repro.bench run --target kernel.coo --scenario deli --budget tiny
    python -m repro.bench run --format auto --format hb-csf --scenario deli \
        --budget tiny
    python -m repro.bench run --target kernel --suite scaling_ladder \
        --repeats 7 --name ladder --dtype float32
    python -m repro.bench run --target kernel.par --suite imbalance_sweep \
        --budget tiny --name par
    python -m repro.bench run --target kernel --suite paper12 --budget tiny \
        --backend threads --workers 4
    python -m repro.bench matrix --suite paper12 --budget tiny
    python -m repro.bench compare BENCH_kernels.json BENCH_candidate.json \
        --threshold 0.15
    python -m repro.bench history report
    python -m repro.bench history trend --target kernel.coo --scenario deli
    python -m repro.bench history attribute --target kernel.coo \
        --scenario deli

``run`` and ``matrix`` write ``BENCH_<name>.json`` (latest run, pretty
JSON) into ``--out-dir`` and append one line to ``BENCH_history.jsonl``
there.  ``compare`` exits with status 1 when any cell regresses beyond the
threshold — wire it straight into CI.  Cells measured in materially
different environments are reported as ``incomparable`` and never fail
the comparison (``--ignore-env`` forces the old behaviour).

``history`` reads across runs instead of between two: ``report`` gives a
trend verdict + sparkline per comparable series, ``trend`` the detailed
changepoint evidence (``--fail-on-regression`` turns it into a CI gate on
sustained regressions), ``attribute`` the ranked counter movement and
probable cause of a series' latest slowdown.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys

from repro.bench.attribution import attribute_series
from repro.bench.compare import DEFAULT_THRESHOLD, compare_runs
from repro.bench.history import (
    DEFAULT_MIN_SHIFT,
    DEFAULT_MIN_SIGMA,
    analyze_history,
    load_history,
    sparkline,
)
from repro.bench.runner import BUDGETS, BenchConfig, run_benchmarks, suite_scenarios
from repro.bench.schema import (
    HISTORY_FILE,
    append_history,
    bench_artifact_path,
    load_run,
    save_run,
)
from repro.bench.targets import (
    DEFAULT_MATRIX_GROUP,
    get_target,
    target_groups,
    target_names,
)
from repro.scenarios.cache import ScenarioCache
from repro.scenarios.spec import get_scenario, parse_spec, scenario_names
from repro.scenarios.suites import suite_names
from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]

#: metrics the compare/history commands accept: the timing stats plus the
#: per-cell ``metrics`` fields worth gating on.
_METRIC_CHOICES = ("min", "median", "p95", "mean", "total", "peak_rss_bytes")


def _metric_unit(metric: str) -> tuple[str, float, int]:
    """(unit label, multiplier, display digits) for a metric's values."""
    if metric == "peak_rss_bytes":
        return "MB", 1.0 / (1024 * 1024), 2
    return "ms", 1e3, 4


def _format_table(rows: list[dict]) -> str:
    from repro.experiments.common import format_table

    return format_table(rows)


def _ensure_named_scenarios() -> None:
    """Register the 12 paper-dataset scenarios (lazy in datasets.py)."""
    from repro.tensor.datasets import dataset_scenarios

    dataset_scenarios()


def _make_cache(args) -> ScenarioCache | None:
    if getattr(args, "cache_dir", None):
        return ScenarioCache(args.cache_dir)
    if getattr(args, "cache", False):
        return ScenarioCache()
    return None


def _make_config(args) -> BenchConfig:
    if args.budget is not None:
        config = BenchConfig.from_budget(
            args.budget, rank=args.rank, seed=args.seed, dtype=args.dtype,
            backend=args.backend, num_workers=args.workers,
            cell_timeout_seconds=args.cell_timeout)
        # explicit flags override the budget presets
        overrides = {}
        if args.repeats is not None:
            overrides["repeats"] = args.repeats
        if args.warmup is not None:
            overrides["warmup"] = args.warmup
        if args.scale is not None:
            overrides["scale"] = args.scale
        if args.shard_nnz is not None:
            overrides["shard_nnz"] = args.shard_nnz
        if overrides:
            from dataclasses import replace

            config = replace(config, **overrides)
        return config
    return BenchConfig(
        repeats=args.repeats if args.repeats is not None else 5,
        warmup=args.warmup if args.warmup is not None else 1,
        rank=args.rank,
        scale=args.scale if args.scale is not None else 1.0,
        seed=args.seed,
        dtype=args.dtype,
        backend=args.backend,
        num_workers=args.workers,
        shard_nnz=args.shard_nnz,
        cell_timeout_seconds=args.cell_timeout,
    )


def _format_targets(args) -> list[str]:
    """Translate ``--format`` selections into ``kernel.*`` targets.

    ``--format auto`` selects the autotuned-dispatch target; any other
    spelling is normalised through the registry, so ``--format hbcsf``
    and ``--format hb-csf`` are the same selection.
    """
    targets: list[str] = []
    for name in args.format or ():
        if name.strip().lower() == "auto":
            targets.append("kernel.auto")
            continue
        from repro.formats import canonical_format

        targets.append(f"kernel.{canonical_format(name)}")
    return targets


def _resolve_scenarios(args) -> list[tuple[str, object]]:
    """--scenario entries (named or inline JSON) plus an optional --suite."""
    _ensure_named_scenarios()
    scenarios: list[tuple[str, object]] = []
    for text in args.scenario or ():
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        if text.lstrip().startswith("{"):
            spec = parse_spec(text)
            scenarios.append((spec.display_name(), spec))
        else:
            scenarios.append((text, get_scenario(text)))
    if args.suite:
        scenarios.extend(suite_scenarios(args.suite))
    return scenarios


def _execute_sweep(args, targets: list[str], default_name: str) -> int:
    config = _make_config(args)
    scenarios = _resolve_scenarios(args)
    name = args.name or default_name
    run = run_benchmarks(
        targets,
        scenarios,
        config,
        name=name,
        cache=_make_cache(args),
        progress=None if args.quiet else lambda line: print(line),
    )
    out_path = args.out or bench_artifact_path(name, args.out_dir)
    save_run(run, out_path)
    print(f"wrote {out_path}  ({len(run.measurements)} measurements)")
    if not args.no_history:
        history = append_history(run, f"{args.out_dir}/{HISTORY_FILE}")
        print(f"appended to {history}")
    return 0


def _list_formats() -> int:
    from repro.formats import iter_formats

    rows = []
    for spec in iter_formats():
        flags = []
        if spec.needs_split_config:
            flags.append("split-config")
        if not spec.per_mode_build:
            flags.append("allmode-build")
        if spec.requires_singleton_fibers:
            flags.append("singleton-fibers")
        if spec.cpu_supported_orders is not None:
            orders = "/".join(str(o) for o in spec.cpu_supported_orders)
            flags.append(f"order-{orders}-only")
        rows.append({
            "format": spec.name,
            "kind": spec.kind,
            "cpu": "yes" if spec.cpu_kernel else "-",
            "gpusim": "yes" if spec.gpusim else "-",
            "aliases": ", ".join(spec.aliases) or "-",
            "flags": ", ".join(flags) or "-",
        })
    print(_format_table(rows))
    print()
    print("All format enumeration flows through repro.formats; "
          "see src/repro/formats/README.md to register a new one.")
    return 0


def _cmd_list(args) -> int:
    if args.formats:
        return _list_formats()
    _ensure_named_scenarios()
    print("targets:")
    for group in target_groups():
        print(f"  [{group}]")
        for name in target_names(group):
            print(f"    {name:<20} {get_target(name).description}")
    print()
    print(f"suites: {', '.join(suite_names())}")
    named = scenario_names()
    if named:
        print(f"named scenarios ({len(named)}): {', '.join(named)}")
    print()
    print("budgets (scale, repeats, warmup):")
    for budget, (scale, repeats, warmup) in BUDGETS.items():
        print(f"  {budget:<8} scale={scale:<5} repeats={repeats} warmup={warmup}")
    return 0


def _cmd_run(args) -> int:
    targets = (args.target or []) + _format_targets(args)
    if not targets:
        targets = [DEFAULT_MATRIX_GROUP]
    return _execute_sweep(args, targets, default_name="run")


def _cmd_matrix(args) -> int:
    targets = (args.target or []) + _format_targets(args)
    if not targets:
        targets = [DEFAULT_MATRIX_GROUP]
    # default artifact name: the shared group prefix (BENCH_kernels.json for
    # the default kernel sweep), else "matrix"
    from repro.bench.targets import expand_targets

    groups = {get_target(t).group for t in expand_targets(targets)}
    default_name = f"{next(iter(groups))}s" if len(groups) == 1 else "matrix"
    return _execute_sweep(args, targets, default_name=default_name)


def _cmd_compare(args) -> int:
    baseline = load_run(args.baseline)
    candidate = load_run(args.candidate)
    report = compare_runs(baseline, candidate, threshold=args.threshold,
                          metric=args.metric,
                          check_env=not args.ignore_env)
    if args.json:
        counts = report.counts()
        print(json.dumps({
            "baseline": report.baseline_name,
            "candidate": report.candidate_name,
            "metric": report.metric,
            "threshold": report.threshold,
            "env_differences": report.env_differences,
            "counts": counts,
            "cells": report.rows(),
        }, indent=2))
    else:
        print(f"baseline : {args.baseline} ({report.baseline_name})")
        print(f"candidate: {args.candidate} ({report.candidate_name})")
        print(f"metric   : {report.metric}   threshold: +/-"
              f"{report.threshold:.0%}")
        comparable = [d for d in report.deltas
                      if d.verdict != "incomparable"]
        if comparable:
            print(_format_table(
                [r for r in report.rows() if r["verdict"] != "incomparable"]))
        counts = report.counts()
        print(", ".join(f"{v}: {counts[v]}" for v in
                        ("regression", "improvement", "neutral", "added",
                         "removed", "incomparable")))
        if report.env_differences:
            print()
            print("environments differ materially — "
                  + "; ".join(report.env_differences))
            print(f"{counts['incomparable']} shared cell(s) reported as "
                  "incomparable, not compared (use --ignore-env to force "
                  "a cross-environment comparison):")
            print(_format_table(
                [r for r in report.rows()
                 if r["verdict"] == "incomparable"]))
    if report.has_regressions:
        worst = max(report.regressions, key=lambda d: d.ratio or 0.0)
        print(f"REGRESSION: {len(report.regressions)} cell(s) slower than "
              f"{1.0 + report.threshold:.2f}x baseline "
              f"(worst: {worst.target} on {worst.scenario}, "
              f"{worst.ratio:.2f}x)", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- #
# history analytics
# --------------------------------------------------------------------- #
def _history_reports(args):
    """Load + analyze the history file, applying --target/--scenario globs."""
    runs = load_history(args.history, strict=False)
    if not runs:
        raise ReproError(f"no readable runs in {args.history}")
    reports = analyze_history(runs, metric=args.metric,
                              min_shift=args.min_shift,
                              min_sigma=args.min_sigma)
    if args.target:
        reports = [r for r in reports
                   if fnmatch.fnmatch(r.series.key.target, args.target)]
    if args.scenario:
        reports = [r for r in reports
                   if fnmatch.fnmatch(r.series.key.scenario, args.scenario)]
    return reports


def _series_env(report) -> str:
    machine, cpu_count, python = report.series.key.env
    return f"{machine or '?'}/{cpu_count or '?'}cpu/py{python or '?'}"


def _cmd_history_report(args) -> int:
    reports = _history_reports(args)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
        return 0
    if not reports:
        print("no series with >= 2 comparable samples "
              f"in {args.history}")
        return 0
    unit, scale_, digits = _metric_unit(args.metric)
    rows = []
    for r in reports:
        values = r.series.values()
        trend = r.trend
        shift = ("-" if trend.shift_ratio is None
                 else f"{trend.shift_ratio:.2f}x")
        verdict = trend.verdict
        if trend.flagged and trend.sustained:
            verdict += "!"
        rows.append({
            "target": r.series.key.target,
            "scenario": r.series.key.scenario,
            "env": _series_env(r),
            "n": len(r.series),
            f"first {unit}": round(values[0] * scale_, digits),
            f"last {unit}": round(values[-1] * scale_, digits),
            "shift": shift,
            "trend": verdict,
            "history": sparkline(values),
        })
    print(_format_table(rows))
    counts: dict[str, int] = {}
    for r in reports:
        counts[r.trend.verdict] = counts.get(r.trend.verdict, 0) + 1
    print()
    print(f"{len(reports)} series ("
          + ", ".join(f"{v}: {n}" for v, n in sorted(counts.items()))
          + ");  '!' marks a sustained shift (>= 2 points past the "
            "changepoint)")
    return 0


def _cmd_history_trend(args) -> int:
    reports = _history_reports(args)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    elif not reports:
        print(f"no series with >= 2 comparable samples in {args.history}")
    else:
        unit, scale_, _ = _metric_unit(args.metric)
        blocks = []
        for r in reports:
            trend = r.trend
            values = r.series.values()
            lines = [
                f"{r.series.key.label()}  n={len(values)}  "
                f"verdict={trend.verdict} ({trend.method})"
            ]
            lines.append(f"  {unit}: "
                         + " ".join(f"{v * scale_:.3f}" for v in values)
                         + f"   {sparkline(values)}")
            if trend.before_median is not None:
                detail = (f"  median {trend.before_median * scale_:.3f}{unit}"
                          f" -> {trend.after_median * scale_:.3f}{unit}")
                if trend.shift_ratio is not None:
                    detail += f" ({trend.shift_ratio:.2f}x)"
                if trend.changepoint is not None:
                    detail += (f", changepoint at sample {trend.changepoint}"
                               f", sustained={'yes' if trend.sustained else 'no'}")
                if trend.score is not None:
                    detail += (f", {trend.score:.1f} sigma vs "
                               f"{trend.noise_sigma * scale_:.4f}{unit} "
                               "noise band")
                lines.append(detail)
            blocks.append("\n".join(lines))
        print("\n\n".join(blocks))
    regressing = [r for r in reports if r.trend.verdict == "regressing"]
    if args.fail_on_regression:
        gate = [r for r in regressing
                if r.trend.sustained or args.include_unsustained]
        if gate:
            print(f"TREND REGRESSION: {len(gate)} series with a "
                  "sustained upward median shift (worst: "
                  f"{gate[0].series.key.label()})", file=sys.stderr)
            return 1
    return 0


def _cmd_history_attribute(args) -> int:
    reports = _history_reports(args)
    if not reports:
        print(f"no matching series with >= 2 comparable samples in "
              f"{args.history}", file=sys.stderr)
        return 2
    chosen = (reports if (args.target or args.scenario)
              else [r for r in reports if r.trend.verdict == "regressing"])
    if not chosen:
        print("no regressing series to attribute (pass --target/--scenario "
              "to attribute a specific one)")
        return 0
    results = []
    for r in chosen:
        attribution = attribute_series(r.series, r.trend)
        results.append((r, attribution))
    if args.json:
        print(json.dumps([{
            "target": r.series.key.target,
            "scenario": r.series.key.scenario,
            "env": list(r.series.key.env),
            "trend": r.trend.to_dict(),
            "attribution": a.to_dict(),
        } for r, a in results], indent=2))
        return 0
    unit, scale_, _ = _metric_unit(args.metric)
    blocks = []
    for r, a in results:
        lines = [f"{r.series.key.label()}  verdict={r.trend.verdict}"]
        if a.slowdown is not None:
            lines.append(
                f"  latest {a.candidate_seconds * scale_:.3f}{unit} "
                f"vs reference "
                f"{a.reference_seconds * scale_:.3f}{unit} "
                f"({a.slowdown:.2f}x)")
        lines.append(f"  probable cause: {a.probable_cause}")
        if a.moves:
            lines.append("  counter movement (most-moved first):")
            for move in a.moves:
                lines.append(f"    {move.describe():<56} {move.cause}")
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


_HISTORY_COMMANDS = {
    "report": _cmd_history_report,
    "trend": _cmd_history_trend,
    "attribute": _cmd_history_attribute,
}


def _cmd_history(args) -> int:
    return _HISTORY_COMMANDS[args.history_command](args)


def _add_history_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--history", default=HISTORY_FILE,
                     help=f"trajectory file (default: {HISTORY_FILE})")
    sub.add_argument("--metric", default="median",
                     choices=_METRIC_CHOICES,
                     help="statistic tracked per cell (default median); "
                          "peak_rss_bytes tracks memory instead of time")
    sub.add_argument("--target", default=None,
                     help="only series whose target matches this glob")
    sub.add_argument("--scenario", default=None,
                     help="only series whose scenario matches this glob")
    sub.add_argument("--min-shift", type=float, default=DEFAULT_MIN_SHIFT,
                     help="smallest relative median shift reported "
                          "(default 0.10)")
    sub.add_argument("--min-sigma", type=float, default=DEFAULT_MIN_SIGMA,
                     help="MAD-sigmas a shift must clear to be a "
                          "changepoint (default 3.0)")
    sub.add_argument("--json", action="store_true",
                     help="emit JSON instead of a table")


def _add_sweep_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--target", "-t", action="append", default=None,
                     help="target name, group or glob (repeatable; default: "
                          f"the {DEFAULT_MATRIX_GROUP!r} group)")
    sub.add_argument("--format", "-f", action="append", default=None,
                     help="kernel format to time (repeatable); any registry "
                          "name/alias, or 'auto' for the autotuned dispatch "
                          "target — shorthand for --target kernel.<format>")
    sub.add_argument("--backend", choices=("serial", "threads"), default=None,
                     help="execution backend for targets that accept one "
                          "(kernel.*, cpd.*); default defers to "
                          "REPRO_BACKEND, then serial")
    sub.add_argument("--workers", type=int, default=None,
                     help="worker count for --backend threads; default "
                          "defers to REPRO_NUM_WORKERS, then the CPU count")
    sub.add_argument("--dtype", choices=("float32", "float64"), default=None,
                     help="compute dtype for kernel/build/cpd targets "
                          "(default float64)")
    sub.add_argument("--scenario", "-s", action="append", default=None,
                     help="named scenario, inline JSON spec, or @spec-file "
                          "(repeatable)")
    sub.add_argument("--suite", default=None,
                     help=f"scenario suite to sweep ({', '.join(suite_names())})")
    sub.add_argument("--budget", choices=sorted(BUDGETS), default=None,
                     help="measurement budget preset (scale/repeats/warmup)")
    sub.add_argument("--repeats", type=int, default=None,
                     help="timed repetitions per cell")
    sub.add_argument("--warmup", type=int, default=None,
                     help="untimed warmup calls per cell")
    sub.add_argument("--rank", type=int, default=32,
                     help="factor-matrix rank R (paper default 32)")
    sub.add_argument("--scale", type=float, default=None,
                     help="scenario nonzero-budget multiplier")
    sub.add_argument("--seed", type=int, default=None,
                     help="override every scenario's seed")
    sub.add_argument("--shard-nnz", type=int, default=None,
                     help="nonzeros per shard for out-of-core targets "
                          "(build.ooc.*/kernel.ooc.*; default "
                          "library shard size)")
    sub.add_argument("--cell-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock budget; an expired cell is "
                          "recorded with status=timeout and the sweep "
                          "continues (cooperative: checked at kernel pass "
                          "and ALS iteration boundaries)")
    sub.add_argument("--name", default=None,
                     help="run name (artifact becomes BENCH_<name>.json)")
    sub.add_argument("--out", default=None,
                     help="explicit artifact path (overrides --name/--out-dir)")
    sub.add_argument("--out-dir", default=".",
                     help="directory for BENCH_*.json artifacts (default: cwd)")
    sub.add_argument("--no-history", action="store_true",
                     help=f"do not append the run to {HISTORY_FILE}")
    sub.add_argument("--quiet", "-q", action="store_true",
                     help="suppress per-cell progress lines")
    sub.add_argument("--cache", action="store_true",
                     help="cache materialized tensors in the default cache dir")
    sub.add_argument("--cache-dir", default=None,
                     help="cache materialized tensors in this directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Measure, persist and compare performance of the "
                    "library's kernels, builders, simulations and solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list",
                         help="list benchmark targets, suites and budgets")
    lst.add_argument("--formats", action="store_true",
                     help="list the sparse-format registry instead "
                          "(name, aliases, kernels, capability flags)")

    run = sub.add_parser("run", help="time selected targets on selected "
                                     "scenarios")
    _add_sweep_options(run)

    matrix = sub.add_parser("matrix",
                            help="sweep targets x a whole scenario suite "
                                 "(default: paper12)")
    _add_sweep_options(matrix)

    comp = sub.add_parser("compare",
                          help="diff two BENCH_*.json runs; exit 1 on "
                               "regression")
    comp.add_argument("baseline", help="baseline BENCH_*.json")
    comp.add_argument("candidate", help="candidate BENCH_*.json")
    comp.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                      help="relative change flagged as regression/improvement "
                           "(default 0.10)")
    comp.add_argument("--metric", default="median",
                      choices=_METRIC_CHOICES,
                      help="statistic compared per cell (default median); "
                           "peak_rss_bytes gates memory instead of time")
    comp.add_argument("--json", action="store_true",
                      help="emit the report as JSON instead of a table")
    comp.add_argument("--ignore-env", action="store_true",
                      help="compare cells even when the two runs were "
                           "measured in materially different environments "
                           "(cross-machine CI gates with widened thresholds)")

    hist = sub.add_parser("history",
                          help="trend analytics over BENCH_history.jsonl")
    hist_sub = hist.add_subparsers(dest="history_command", required=True)

    hrep = hist_sub.add_parser("report",
                               help="one-line trend verdict + sparkline "
                                    "per comparable series")
    _add_history_options(hrep)

    htrend = hist_sub.add_parser("trend",
                                 help="detailed changepoint evidence per "
                                      "series; optional CI gate")
    _add_history_options(htrend)
    htrend.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when any series shows a sustained "
                             "upward median shift")
    htrend.add_argument("--include-unsustained", action="store_true",
                        help="with --fail-on-regression, also fail on a "
                             "single slow latest point (not yet sustained)")

    hattr = hist_sub.add_parser("attribute",
                                help="rank counter movement behind a "
                                     "series' latest slowdown")
    _add_history_options(hattr)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "matrix": _cmd_matrix,
    "compare": _cmd_compare,
    "history": _cmd_history,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "matrix" and not args.suite:
        args.suite = "paper12"
    if args.command in ("run", "matrix") and not (args.scenario or args.suite):
        build_parser().error("run needs --scenario and/or --suite")
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
