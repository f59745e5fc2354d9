"""Experiment drivers: one module per table / figure of the paper.

Every driver exposes ``run(scale=1.0, rank=32, ...) -> ExperimentResult``;
:mod:`repro.experiments.registry` maps experiment ids (``"table2"``,
``"fig5"``, ...) to those functions and provides a tiny command-line
interface::

    python -m repro.experiments.registry fig8
    python -m repro.experiments.registry all --scale 0.5
"""

from repro.experiments.common import ExperimentResult, format_table
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["ExperimentResult", "format_table", "EXPERIMENTS", "run_experiment"]
