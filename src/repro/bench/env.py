"""Execution-environment capture for benchmark provenance.

A performance number without its environment is noise: the same kernel is
2-10x apart between laptops, and a regression report is only actionable if
both runs name their interpreter, NumPy build, CPU and source revision.
:func:`capture_environment` collects exactly the fields the paper's own
evaluation tables pin down (hardware, software versions) plus the git SHA
of the working tree.
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
import sys

import numpy as np

try:
    import resource
except ImportError:  # pragma: no cover - resource is POSIX-only
    resource = None

__all__ = ["capture_environment", "git_revision", "peak_rss_bytes",
           "reset_peak_rss", "vm_hwm_bytes", "cell_peak_rss",
           "utc_now_iso"]


def peak_rss_bytes() -> int | None:
    """Peak resident-set size of this process, in bytes.

    ``getrusage`` reports ``ru_maxrss`` in kilobytes on Linux and in bytes
    on macOS; both are normalised to bytes here.  Returns ``None`` where
    the :mod:`resource` module is unavailable (non-POSIX platforms).  The
    value is a high-water mark — it only ever grows — so "fits in X MB"
    gates read the peak of everything measured up to the capture point.
    """
    if resource is None:
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(maxrss)
    return int(maxrss) * 1024


def reset_peak_rss() -> bool:
    """Reset the kernel's resident-set high-water mark for this process.

    Writing ``5`` to ``/proc/self/clear_refs`` zeroes ``VmHWM`` (Linux >=
    4.0), which is what makes a *per-cell* peak measurement possible:
    ``getrusage``'s ``ru_maxrss`` can never be reset, so without this every
    cell would just report the largest cell seen so far.  Returns whether
    the reset took effect; on non-Linux platforms (no procfs) it returns
    False and callers fall back to the cumulative process peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def vm_hwm_bytes() -> int | None:
    """Current ``VmHWM`` (peak RSS since the last reset), in bytes.

    Parsed from ``/proc/self/status``; None where procfs is unavailable.
    Pairs with :func:`reset_peak_rss` — reset before the work, read after —
    to bound the peak of just that work.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def cell_peak_rss(reset_ok: bool) -> tuple[int | None, str]:
    """Peak RSS of the work since the last :func:`reset_peak_rss` attempt.

    ``reset_ok`` is that attempt's return value.  When the reset took,
    the resettable ``VmHWM`` counter bounds just the cell:
    ``(bytes, "cell")``.  Otherwise — sandboxed ``/proc/self/clear_refs``,
    non-Linux — the cumulative ``getrusage`` high-water mark is returned as
    ``(bytes, "process")``: a number that only ever grows across cells,
    labelled so consumers know whether a per-cell memory gate is
    meaningful.
    """
    if reset_ok:
        hwm = vm_hwm_bytes()
        if hwm is not None:
            return hwm, "cell"
    return peak_rss_bytes(), "process"


def utc_now_iso() -> str:
    """Current UTC time as an ISO-8601 string (second resolution)."""
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
    )


def git_revision(cwd: str | None = None) -> str | None:
    """Short git SHA of ``cwd`` (or the process cwd); None outside a repo.

    A ``-dirty`` suffix marks uncommitted changes — a measurement of an
    edited tree must not claim the provenance of a clean commit.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    if proc.returncode != 0 or not sha:
        return None
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return sha
    if status.returncode == 0 and status.stdout.strip():
        return f"{sha}-dirty"
    return sha


def capture_environment(cwd: str | None = None) -> dict:
    """Snapshot the measurement environment as a plain JSON-safe dict."""
    uname = platform.uname()
    return {
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "os": f"{uname.system} {uname.release}",
        "machine": uname.machine,
        "processor": uname.processor or uname.machine,
        "cpu_count": os.cpu_count(),
        "hostname": uname.node,
        "git_sha": git_revision(cwd),
        "peak_rss_bytes": peak_rss_bytes(),
        "captured_at": utc_now_iso(),
    }
