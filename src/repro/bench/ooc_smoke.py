"""Out-of-core smoke proof: build + MTTKRP at ladder scale under a RAM cap.

``python -m repro.bench.ooc_smoke`` drives three phases around one
``scale_ladder_xl`` tensor (10^7 nonzeros by default):

1. **stream** (capped subprocess): generate the tensor straight into a
   shard manifest, build HB-CSF through the chunk-streaming path and run
   one MTTKRP — all under ``resource.setrlimit(RLIMIT_AS, ...)`` — and
   assert the per-phase peak RSS stays below ``--max-rss-multiple`` times
   the largest shard's byte size.
2. **inmem** (same cap, subprocess): attempt the identical build through
   the in-memory path and require it to die with ``MemoryError`` — the
   proof that the cap is one the dense pipeline genuinely cannot fit.
3. **verify** (parent, uncapped): load the very shard files the stream
   phase wrote into one in-memory tensor, build + MTTKRP through the
   in-memory path, and require the streamed MTTKRP output to be
   bit-identical (``float64``-view-as-``uint64`` equality, not allclose).

The parent writes the phase metrics to ``BENCH_<name>.json`` (config,
per-cell seconds and peak RSS, the RSS scope and a few environment
fields) for CI to upload.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.formats import get_format
from repro.scenarios.cache import materialize, materialize_sharded
from repro.tensor.shards import open_sharded
from repro.scenarios.suites import get_suite
from repro.util.prng import default_rng

__all__ = ["main"]

#: ladder tier the smoke runs on (scaled down to ``--nnz``).
TIER = "xl-10m"
TIER_NNZ = 10_000_000

DEFAULT_NNZ = TIER_NNZ
#: nonzeros per shard.  The HB-CSF representation of the xl-10m tier is
#: resident by design (~350 MB: the workload is fiber-heavy, so the B-CSF
#: group holds >90% of the nonzeros), so the shard size is chosen to make
#: the 3x-largest-shard budget a real but attainable bound: largest shard
#: 183 MiB -> budget 549 MiB, ~200 MiB of headroom over the rep for the
#: streaming passes' transients.
DEFAULT_SHARD_NNZ = 6_000_000
#: address-space cap for the capped phases.  The streaming phase maps the
#: shard files and the sorted view on top of the interpreter's baseline,
#: so the cap is an address-space budget, not an RSS one.  Measured at the
#: default scale: streaming VmPeak ~900 MiB, in-memory VmPeak ~1.61 GiB,
#: reached while generating the tensor in RAM (the HB-CSF build that
#: follows stays below it) — 1280 MiB clears the streaming path with ~380
#: MiB of headroom while the in-memory pipeline reliably dies with
#: ``MemoryError`` ~370 MiB short of what it needs.
DEFAULT_RLIMIT_MB = 1_280
DEFAULT_MULTIPLE = 3.0
MODE = 0
#: seed of the factor matrices; every phase draws the same ones.
FACTOR_SEED = 20190520


def _spec(nnz: int):
    specs = dict((name, s) for name, s in get_suite("scale_ladder_xl").specs())
    return specs[TIER].with_scale(nnz / TIER_NNZ)


def _apply_rlimit(mb: int) -> None:
    import resource

    limit = mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _factors(shape, rank: int) -> list[np.ndarray]:
    """Deterministic F-ordered ``(I, rank)`` factors, the CSF tree kernel's
    rank-major layout, so no kernel times a layout copy of its own."""
    rng = default_rng(FACTOR_SEED)
    return [np.asfortranarray(rng.standard_normal((s, rank))) for s in shape]


def reset_peak_rss() -> bool:
    """Reset this process's resident-set high-water mark (``VmHWM``).

    Writing ``5`` to ``/proc/self/clear_refs`` (Linux >= 4.0) is what makes
    a per-cell peak possible: ``getrusage``'s ``ru_maxrss`` never resets.
    Returns whether the reset took effect.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def vm_hwm_bytes() -> int | None:
    """``VmHWM`` (peak RSS since the last reset) in bytes; None without
    procfs."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def cell_peak_rss(reset_ok: bool) -> tuple[int | None, str]:
    """Peak RSS since the last :func:`reset_peak_rss` attempt, with its
    scope.

    ``(bytes, "cell")`` when the reset (``reset_ok``) took and ``VmHWM`` is
    readable.  Otherwise the cumulative ``getrusage`` high-water mark,
    ``(bytes, "process")``, which only ever grows across cells, or
    ``(None, "process")`` without the :mod:`resource` module.
    """
    if reset_ok:
        hwm = vm_hwm_bytes()
        if hwm is not None:
            return hwm, "cell"
    try:
        import resource
    except ImportError:  # pragma: no cover - resource is POSIX-only
        return None, "process"
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return int(maxrss) * (1 if sys.platform == "darwin" else 1024), "process"


def _trim_allocator() -> None:
    """Return freed pages to the kernel so the next cell's RSS high-water
    mark measures that cell, not the allocator's retained heap from the
    previous one."""
    from repro.tensor.shards import trim_allocator

    trim_allocator()


def _timed_cell(label: str, fn):
    """Run ``fn`` once with a fresh RSS high-water mark; return
    (result, seconds, peak_rss_bytes, scope)."""
    _trim_allocator()
    reset_ok = reset_peak_rss()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    rss, scope = cell_peak_rss(reset_ok)
    print(f"[ooc-smoke] {label}: {seconds:.2f}s, "
          f"peak RSS {rss / 2**20:.1f} MB ({scope})" if rss is not None
          else f"[ooc-smoke] {label}: {seconds:.2f}s, peak RSS unavailable",
          flush=True)
    return result, seconds, rss, scope


def _phase_stream(args) -> int:
    """Capped: shard, build HB-CSF streaming, run MTTKRP, gate on RSS."""
    if args.rlimit_mb:
        _apply_rlimit(args.rlimit_mb)
    spec = _spec(args.nnz)
    fmt = get_format(args.format)
    work = args.work_dir

    sharded, gen_s, gen_rss, scope = _timed_cell(
        "generate sharded", lambda: materialize_sharded(
            spec, root=os.path.join(work, "shards"),
            shard_nnz=args.shard_nnz))
    largest = sharded.largest_shard_bytes
    budget = args.max_rss_multiple * largest
    print(f"[ooc-smoke] {sharded.num_shards} shards, largest "
          f"{largest / 2**20:.1f} MB -> RSS budget "
          f"{budget / 2**20:.1f} MB", flush=True)

    rep, build_s, build_rss, _ = _timed_cell(
        f"streaming {args.format} build",
        lambda: fmt.build(sharded, MODE, None, None))
    factors = _factors(sharded.shape, args.rank)
    out, mttkrp_s, mttkrp_rss, _ = _timed_cell(
        "streaming mttkrp",
        lambda: fmt.mttkrp(rep, factors, MODE))
    np.save(os.path.join(work, "stream_out.npy"), out)

    cells = {
        f"build.ooc.{args.format}": (build_s, build_rss),
        f"kernel.ooc.{args.format}": (mttkrp_s, mttkrp_rss),
    }
    failures = []
    for name, (_, rss) in cells.items():
        if rss is None:
            failures.append(f"{name}: peak RSS unavailable on this kernel")
        elif rss > budget:
            failures.append(
                f"{name}: peak RSS {rss / 2**20:.1f} MB exceeds "
                f"{args.max_rss_multiple}x largest shard "
                f"({budget / 2**20:.1f} MB)")
    with open(os.path.join(work, "stream_metrics.json"), "w") as fh:
        json.dump({
            "spec_hash": spec.spec_hash(),
            "shape": list(sharded.shape),
            "nnz": sharded.nnz,
            "num_shards": sharded.num_shards,
            "largest_shard_bytes": largest,
            "generate_seconds": gen_s,
            "generate_rss": gen_rss,
            "peak_rss_scope": scope,
            "cells": {name: {"seconds": s, "peak_rss_bytes": rss}
                      for name, (s, rss) in cells.items()},
        }, fh, indent=2)
    if failures:
        for line in failures:
            print(f"[ooc-smoke] FAIL {line}", file=sys.stderr, flush=True)
        return 1
    print("[ooc-smoke] stream phase OK: both cells within the RSS budget",
          flush=True)
    return 0


def _phase_inmem(args) -> int:
    """Capped: the in-memory path must exhaust the same address-space cap."""
    if args.rlimit_mb:
        _apply_rlimit(args.rlimit_mb)
    spec = _spec(args.nnz)
    fmt = get_format(args.format)
    try:
        tensor = materialize(spec)
        rep = fmt.build(tensor, MODE, None, None)
        out = fmt.mttkrp(rep, _factors(tensor.shape, args.rank), MODE)
    except MemoryError:
        print("[ooc-smoke] in-memory path hit MemoryError under the cap "
              "(expected)", flush=True)
        return 0
    print(f"[ooc-smoke] UNEXPECTED: in-memory path fit under "
          f"{args.rlimit_mb} MB (output {out.shape}); lower --rlimit-mb or "
          "raise --nnz", file=sys.stderr, flush=True)
    return 1


def _run_phase(phase: str, args, work: str) -> int:
    cmd = [sys.executable, "-m", "repro.bench.ooc_smoke",
           "--phase", phase, "--work-dir", work,
           "--nnz", str(args.nnz), "--shard-nnz", str(args.shard_nnz),
           "--rlimit-mb", str(args.rlimit_mb),
           "--max-rss-multiple", str(args.max_rss_multiple),
           "--rank", str(args.rank), "--format", args.format]
    return subprocess.call(cmd)


def _write_artifact(args, metrics_doc: dict) -> str:
    """Write ``BENCH_<name>.json`` into ``--out-dir``; return its path."""
    uname = platform.uname()
    doc = {
        "name": args.name,
        "created_at": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0).isoformat(),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "os": f"{uname.system} {uname.release}",
            "machine": uname.machine,
            "cpu_count": os.cpu_count(),
        },
        "config": {"nnz": args.nnz, "shard_nnz": args.shard_nnz,
                   "rlimit_mb": args.rlimit_mb,
                   "max_rss_multiple": args.max_rss_multiple,
                   "rank": args.rank, "format": args.format},
        "scenario": TIER,
        **metrics_doc,
    }
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"BENCH_{args.name}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return out_path


def _orchestrate(args) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-ooc-smoke-") as work:
        print(f"[ooc-smoke] nnz={args.nnz:,} shard_nnz={args.shard_nnz:,} "
              f"cap={args.rlimit_mb} MB format={args.format}", flush=True)
        rc = _run_phase("stream", args, work)
        if rc != 0:
            print("[ooc-smoke] stream phase failed", file=sys.stderr)
            return rc
        if not args.skip_inmem_proof:
            rc = _run_phase("inmem", args, work)
            if rc != 0:
                print("[ooc-smoke] in-memory proof failed", file=sys.stderr)
                return rc

        # bit-identity: uncapped in-memory reference vs the streamed output.
        # The reference is built from the SAME shard files the stream phase
        # wrote — batched generation consumes the rng differently from the
        # single-call materialize(), so a fresh in-memory materialisation
        # would be a different sample of the spec, not the same tensor.
        fmt = get_format(args.format)
        tensor = open_sharded(os.path.join(work, "shards")).to_coo()
        rep = fmt.build(tensor, MODE, None, None)
        want = fmt.mttkrp(rep, _factors(tensor.shape, args.rank), MODE)
        got = np.load(os.path.join(work, "stream_out.npy"))
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            diff = int(np.count_nonzero(
                got.view(np.uint64) != want.view(np.uint64)))
            print(f"[ooc-smoke] FAIL streamed MTTKRP differs from in-memory "
                  f"in {diff} of {want.size} entries", file=sys.stderr)
            return 1
        print("[ooc-smoke] bit-identity OK: streamed MTTKRP == in-memory "
              f"({want.shape[0]}x{want.shape[1]} float64)", flush=True)

        with open(os.path.join(work, "stream_metrics.json")) as fh:
            metrics_doc = json.load(fh)

    out_path = _write_artifact(args, metrics_doc)
    print(f"[ooc-smoke] wrote {out_path}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.ooc_smoke", description=__doc__.split("\n")[0])
    parser.add_argument("--nnz", type=int, default=DEFAULT_NNZ,
                        help="nonzero budget (default 10^7)")
    parser.add_argument("--shard-nnz", type=int, default=DEFAULT_SHARD_NNZ,
                        help="nonzeros per shard (default 6x10^6)")
    parser.add_argument("--rlimit-mb", type=int, default=DEFAULT_RLIMIT_MB,
                        help="RLIMIT_AS for the capped phases, MB "
                             "(0 disables)")
    parser.add_argument("--max-rss-multiple", type=float,
                        default=DEFAULT_MULTIPLE,
                        help="per-cell peak-RSS budget as a multiple of the "
                             "largest shard's bytes")
    parser.add_argument("--rank", type=int, default=32)
    parser.add_argument("--format", default="hb-csf",
                        help="format to build/run (default hb-csf)")
    parser.add_argument("--name", default="ooc",
                        help="run name -> BENCH_<name>.json")
    parser.add_argument("--out-dir", default=".")
    parser.add_argument("--skip-inmem-proof", action="store_true",
                        help="skip the capped in-memory MemoryError proof")
    parser.add_argument("--phase", choices=("stream", "inmem"), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase == "stream":
        return _phase_stream(args)
    if args.phase == "inmem":
        return _phase_inmem(args)
    return _orchestrate(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
