"""repro.formats — the unified sparse-format registry and build-plan cache.

Single source of truth for every sparse format in the reproduction:

* :mod:`repro.formats.registry` — :class:`FormatSpec` records (name,
  aliases, builder, CPU kernel, GPU-simulation hook, capability flags) and
  the lookup/enumeration API every consumer dispatches through;
* :mod:`repro.formats.plan_cache` — a content-addressed cache of built
  representations so one tensor x mode x config is built once and reused
  across ALS iterations, experiment figures and bench sweeps;
* :mod:`repro.formats.builtin` — registrations of the paper's formats
  (coo, csf, b-csf, hb-csf, csl) and the baselines (splatt, splatt-tiled,
  hicoo, parti, f-coo).

See ``src/repro/formats/README.md`` for how to register a new format.
"""

from repro.formats.plan_cache import (
    PlanBuild,
    PlanCache,
    clear_plan_cache,
    config_token,
    plan_cache,
    plan_cache_stats,
    tensor_fingerprint,
)
from repro.formats.registry import (
    DEFAULT_FORMAT,
    FormatSpec,
    build_plan,
    canonical_format,
    format_names,
    get_format,
    iter_formats,
    register_format,
    unregister_format,
)

# Importing the package registers the built-in formats.
import repro.formats.builtin  # noqa: E402,F401  (registration side effect)

__all__ = [
    "DEFAULT_FORMAT",
    "FormatSpec",
    "register_format",
    "unregister_format",
    "canonical_format",
    "get_format",
    "format_names",
    "iter_formats",
    "build_plan",
    "PlanBuild",
    "PlanCache",
    "plan_cache",
    "plan_cache_stats",
    "clear_plan_cache",
    "tensor_fingerprint",
    "config_token",
]
