"""repro.tune — the empirical format autotuner.

The dispatch layer (:mod:`repro.formats`) lets a caller pick any registered
sparse format by name; this package picks *for* them.  For a
``(tensor fingerprint, mode, rank bucket, dtype)`` cell, :func:`decide`
times every eligible registry kernel — COO, CSF, B-CSF, HB-CSF and (where
representable) CSL, once per execution backend — on a budgeted probe and
records the winner in a bounded, content-addressed decision cache.

Consumers never call this package directly: pass ``format="auto"`` to
:func:`repro.core.mttkrp.mttkrp`, :class:`~repro.core.mttkrp.MttkrpPlan` or
``cp_als``.
"""

from repro.tune.cache import (
    DecisionCache,
    clear_decision_cache,
    decision_cache,
    decision_cache_stats,
)
from repro.tune.tuner import (
    AUTO_FORMAT,
    Candidate,
    ProbeBudget,
    TuneDecision,
    decide,
    enumerate_candidates,
    rank_bucket,
)

__all__ = [
    "AUTO_FORMAT",
    "Candidate",
    "ProbeBudget",
    "TuneDecision",
    "decide",
    "enumerate_candidates",
    "rank_bucket",
    "DecisionCache",
    "decision_cache",
    "decision_cache_stats",
    "clear_decision_cache",
]
