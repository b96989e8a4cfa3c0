"""Experiment harness: Table III defaults, sweep results, the CLI.

Every paper artifact (Table II, Figs. 6-15) is a registered scenario in
:mod:`repro.scenarios.catalog`; :func:`repro.scenarios.run_scenarios` is
the one runner that executes them, and ``python -m repro <artifact>`` is its
command-line front end.
"""

from repro.experiments.config import (
    BETAS,
    DATASET_NAMES,
    DEFAULT_CONFIG,
    DETECT1_THRESHOLDS_CLUSTERING,
    DETECT1_THRESHOLDS_DEGREE,
    DETECT2_BETAS,
    EPSILONS,
    GAMMAS,
    ExperimentConfig,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import SweepResult

__all__ = [
    "BETAS",
    "DATASET_NAMES",
    "DEFAULT_CONFIG",
    "DETECT1_THRESHOLDS_CLUSTERING",
    "DETECT1_THRESHOLDS_DEGREE",
    "DETECT2_BETAS",
    "EPSILONS",
    "GAMMAS",
    "ExperimentConfig",
    "format_table",
    "SweepResult",
]
