"""Experiment configuration: Table III defaults and the sweep grids of §VIII.

Every value here is lifted from the paper's evaluation setup:

* Table III — ``beta = 0.05``, ``gamma = 0.05``, ``epsilon = 4``;
* Exps 1/4/9 sweep ``epsilon`` over 1..8;
* Exps 2/3/5/6 sweep ``beta``/``gamma`` over {0.001, 0.005, 0.01, 0.05, 0.1};
* Exp 7 sweeps the Detect1 threshold over {50..300} and Detect2's ``beta``
  over {0.001, ..., 0.15};
* Exp 8 sweeps the Detect1 threshold over {50..150}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.utils.validation import (
    check_epsilon,
    check_fraction,
    check_positive,
    check_positive_int,
    check_scale,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiment drivers.

    Attributes
    ----------
    beta / gamma / epsilon:
        The Table III defaults, overridden by whichever parameter a figure
        sweeps.
    trials:
        Independent threat-model draws averaged per data point.
    seed:
        Root seed; every trial derives child streams from it.
    scale:
        Dataset scale override (``None`` uses each dataset's default scale;
        benchmarks pass smaller values for quick runs).
    jobs:
        Worker processes for the execution engine; ``1`` runs serially.
        Results are bit-identical for any value (every trial task derives
        its own seed).
    cache:
        Reuse the on-disk result store
        (:class:`~repro.engine.result_store.ShardedResultStore`) so a
        re-run only computes missing points.  Disable with ``--no-cache``.
    max_retries:
        Crash-retry rounds for parallel execution: a worker process dying
        mid-batch (``BrokenProcessPool``) or a stalled round gets the pool
        replaced and only the undelivered chunks re-dispatched, up to this
        many times before the failure propagates.  ``0`` fails fast.
    task_timeout:
        Stall deadline in seconds for one round of in-flight worker chunks
        (``None`` waits forever).  Retries are bit-neutral either way —
        tasks are self-seeded, so a re-run computes identical gains.
    """

    beta: float = 0.05
    gamma: float = 0.05
    epsilon: float = 4.0
    trials: int = 3
    seed: int = 0
    scale: Optional[float] = None
    jobs: int = 1
    cache: bool = True
    max_retries: int = 2
    task_timeout: Optional[float] = None

    def __post_init__(self):
        check_fraction(self.beta, "beta")
        check_fraction(self.gamma, "gamma")
        check_epsilon(self.epsilon)
        check_positive_int(self.trials, "trials")
        check_positive_int(self.jobs, "jobs")
        if self.scale is not None:
            check_scale(self.scale, "scale")
        if isinstance(self.max_retries, bool) or not isinstance(self.max_retries, int):
            raise TypeError(f"max_retries must be an int, got {self.max_retries!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout is not None:
            check_positive(self.task_timeout, "task_timeout")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Table III defaults.
DEFAULT_CONFIG = ExperimentConfig()

#: The four evaluation datasets in paper order.
DATASET_NAMES = ("facebook", "enron", "astroph", "gplus")

#: Privacy-budget sweep of Exps 1, 4 and 9 (Figs. 6, 9, 14, 15).
EPSILONS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)

#: Fake-user-fraction sweep of Exps 2 and 5 (Figs. 7, 10).
BETAS = (0.001, 0.005, 0.01, 0.05, 0.1)

#: Target-fraction sweep of Exps 3 and 6 (Figs. 8, 11).
GAMMAS = (0.001, 0.005, 0.01, 0.05, 0.1)

#: Detect1 threshold sweep against MGA on degree centrality (Fig. 12(a)).
DETECT1_THRESHOLDS_DEGREE = (50, 100, 150, 200, 250, 300)

#: Detect1 threshold sweep against MGA on clustering coefficient (Fig. 13(a)).
DETECT1_THRESHOLDS_CLUSTERING = (50, 75, 100, 125, 150)

#: Fake-user fractions for the Detect2-vs-RVA panels (Figs. 12(b), 13(b)).
DETECT2_BETAS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.15)
