"""Command-line interface for the benchmarking subsystem.

Usage::

    python -m repro.bench list
    python -m repro.bench ab HEAD~1 --workload hypersparse

``list`` prints the sparse-format registry.  ``ab``
(:mod:`repro.bench.ab`) A/Bs the paper-scale ``perfbench/`` benchmark
between a revision and ``HEAD`` and exits with status 1 on a regression.
"""

from __future__ import annotations

import argparse
import sys

from repro.util.errors import ReproError

__all__ = ["main", "build_parser"]


def _cmd_list(args) -> int:
    from repro.experiments.common import format_table
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
    print(format_table(rows))
    print()
    print("All format enumeration flows through repro.formats; "
          "see src/repro/formats/README.md to register a new one.")
    return 0


def _cmd_ab(args) -> int:
    from repro.bench.ab import run_ab

    reports = run_ab(args.rev, args.workload)
    return 0 if all(r.ok for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="List the sparse-format registry, or A/B the "
                    "paper-scale benchmark between two commits")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list",
                   help="list the sparse-format registry (name, aliases, "
                        "kernels, capability flags)")

    ab = sub.add_parser("ab",
                        help="A/B the paper-scale benchmark (perfbench) "
                             "between <rev> and HEAD; exit 1 on regression")
    ab.add_argument("rev", help="parent revision (any git rev-parse name)")
    ab.add_argument("--workload", default=None,
                    help="one BENCHMARK.json workload (default: all)")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "ab": _cmd_ab,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
