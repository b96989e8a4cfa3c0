"""Experiment harness: Table III defaults, sweep results, per-figure drivers."""

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
from repro.experiments.figures import (
    community_labels,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12a,
    fig12b,
    fig13a,
    fig13b,
    fig14,
    fig15,
    table2_rows,
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
    "community_labels",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12a",
    "fig12b",
    "fig13a",
    "fig13b",
    "fig14",
    "fig15",
    "table2_rows",
    "format_table",
    "SweepResult",
]
