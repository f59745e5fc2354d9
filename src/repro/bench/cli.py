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
    python -m repro.bench ab HEAD~1 --workload hypersparse

``run`` and ``matrix`` write ``BENCH_<name>.json`` (the run, pretty JSON)
into ``--out-dir``.  Their cells are 10^3-10^4-nnz smoke runs: they must
complete cleanly, but their timings are not evidence.  Performance
evidence comes from ``ab`` (:mod:`repro.bench.ab`), which A/Bs the
paper-scale ``perfbench/`` benchmark between a revision and ``HEAD`` and
exits with status 1 on a regression.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.runner import BUDGETS, BenchConfig, run_benchmarks, suite_scenarios
from repro.bench.schema import bench_artifact_path, save_run
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


def _cmd_ab(args) -> int:
    from repro.bench.ab import run_ab

    reports = run_ab(args.rev, args.workload)
    return 0 if all(r.ok for r in reports) else 1


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

    ab = sub.add_parser("ab",
                        help="A/B the paper-scale benchmark (perfbench) "
                             "between <rev> and HEAD; exit 1 on regression")
    ab.add_argument("rev", help="parent revision (any git rev-parse name)")
    ab.add_argument("--workload", default=None,
                    help="one BENCHMARK.json workload (default: all)")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "matrix": _cmd_matrix,
    "ab": _cmd_ab,
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
