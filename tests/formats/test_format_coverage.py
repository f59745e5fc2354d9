"""Registry completeness gate (run by the CI formats-matrix job).

Fails when a registry entry lacks a CPU kernel, a builder, or membership in
the cross-format equivalence suite — so a format cannot be registered
without being exact-tested against the dense reference.
"""

from __future__ import annotations

from repro.formats import format_names, get_format
from tests.formats.test_format_equivalence import EQUIVALENCE_FORMATS


def test_every_format_has_cpu_kernel():
    missing = [name for name in format_names()
               if not get_format(name).runs_on_cpu]
    assert not missing, (
        f"formats without an exact CPU MTTKRP kernel: {missing}; every "
        "registry entry must be executable (and equivalence-testable) on "
        "the CPU")


def test_every_format_has_builder():
    missing = [name for name in format_names()
               if get_format(name).builder is None]
    assert not missing, f"formats without a builder: {missing}"


def test_every_format_in_equivalence_suite():
    uncovered = [name for name in format_names()
                 if name not in EQUIVALENCE_FORMATS]
    assert not uncovered, (
        f"formats missing from the cross-format equivalence suite: "
        f"{uncovered} (tests.formats.test_format_equivalence.py parametrises over "
        "format_names(cpu=True); give the format a CPU kernel or extend "
        "the suite)")


def test_gpu_simulatable_formats_have_workload_hooks():
    # not a hard requirement (SPLATT / HiCOO are CPU frameworks), but the
    # paper's GPU formats must all be simulatable by name.
    for name in ("coo", "csf", "b-csf", "hb-csf", "csl", "parti", "f-coo"):
        assert get_format(name).gpusim is not None, name
