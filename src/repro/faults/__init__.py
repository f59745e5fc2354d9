"""Deterministic fault injection + cooperative deadlines.

The failure model of the out-of-core stack (see ``README.md`` in this
directory and the top-level README's "Failure model & recovery" section):

* named **fault points** threaded through the I/O and execution layers
  (:data:`~repro.faults.hooks.BUILTIN_FAULT_POINTS`);
* seeded **fault plans** (``REPRO_FAULTS="seed=7;shards.write:truncate"``
  or the :func:`inject` context manager) that raise, truncate, corrupt or
  stall at those points, reproducibly;
* **deadline budgets** (:class:`Deadline`, ambient via
  :func:`deadline_scope`) checked cooperatively at pass / iteration / lap
  boundaries, raising :class:`~repro.util.errors.DeadlineExceeded` with
  partial results attached.

Importing this package activates a plan named by the ``REPRO_FAULTS``
environment variable — every instrumented module imports it, so setting
the variable is enough to run any workload under injection.
"""

from repro.faults.deadline import (
    Deadline,
    as_deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.faults.hooks import (
    BUILTIN_FAULT_POINTS,
    FAULTS_ENV,
    FAULTS_LOG_ENV,
    FAULTS_SEED_ENV,
    active_plan,
    fault_point,
    inject,
    install,
    install_from_env,
    register_fault_point,
    registered_fault_points,
    scan_for_debris,
    uninstall,
)
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec, parse_faults
from repro.util.errors import DeadlineExceeded, FaultInjected, ValidationError

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV",
    "FAULTS_LOG_ENV",
    "FAULTS_SEED_ENV",
    "BUILTIN_FAULT_POINTS",
    "FaultPlan",
    "FaultSpec",
    "FaultInjected",
    "parse_faults",
    "register_fault_point",
    "registered_fault_points",
    "fault_point",
    "install",
    "uninstall",
    "active_plan",
    "inject",
    "install_from_env",
    "scan_for_debris",
    "Deadline",
    "DeadlineExceeded",
    "as_deadline",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
]

#: the plan activated from the environment at import, if any.  A malformed
#: schedule is a config typo in an env var, not a programming error: fail
#: the process with the parse message instead of an import-time traceback.
try:
    ENV_PLAN = install_from_env()
except ValidationError as _exc:
    import sys as _sys

    print(f"error: {FAULTS_ENV}: {_exc}", file=_sys.stderr)
    raise SystemExit(2) from None
