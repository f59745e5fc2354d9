"""Multi-core CPU execution: shared LPT scheduling, worker pool, sharding.

The package has four small modules with one import rule — everything here
may depend on :mod:`repro.tensor` / :mod:`repro.kernels`, but only
:mod:`repro.parallel.partition` may reach (lazily) into
:mod:`repro.formats`, keeping the format registry free to import the pool
at module level without a cycle.

* :mod:`repro.parallel.lpt` — the one chunk-folded LPT implementation
  (shared by ``gpusim.schedule_blocks``, ``baselines.cpu_model`` and the
  threaded backend).
* :mod:`repro.parallel.pool` — backend/worker resolution
  (``REPRO_BACKEND`` / ``REPRO_NUM_WORKERS``) and the process-global
  reusable :class:`~concurrent.futures.ThreadPoolExecutor`.
* :mod:`repro.parallel.partition` — row-disjoint shard plans of a
  format's kernel units, cached content-addressed next to the format
  builds they partition.
* :mod:`repro.parallel.execute` — the one MTTKRP executor of the paper's
  own formats: runs their kernel units inline, or a shard plan's shards
  on pool threads, bit-identical either way.

See ``src/repro/parallel/README.md`` for the partition/reduce contract and
an honest account of when threads lose.
"""

from repro.parallel.execute import execute_mttkrp
from repro.parallel.lpt import lpt_assign, lpt_loads
from repro.parallel.partition import (
    OVERSUBSCRIPTION,
    Shard,
    ShardPlan,
    shard_plan_for,
    shard_units,
)
from repro.parallel.pool import (
    BACKEND_ENV,
    BACKENDS,
    WORKERS_ENV,
    get_pool,
    resolve_backend,
    resolve_workers,
    run_tasks,
    shutdown_pool,
)

__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "WORKERS_ENV",
    "OVERSUBSCRIPTION",
    "Shard",
    "ShardPlan",
    "lpt_assign",
    "lpt_loads",
    "get_pool",
    "resolve_backend",
    "resolve_workers",
    "run_tasks",
    "shutdown_pool",
    "shard_plan_for",
    "shard_units",
    "execute_mttkrp",
]
