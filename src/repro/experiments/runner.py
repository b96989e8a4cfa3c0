"""Sweep results: the gain curves every figure plots.

One experiment point = the mean overall gain of one series over
``config.trials`` independent threat-model draws; a *sweep* varies one
parameter (epsilon, beta, gamma or a defense argument) while the rest stay
at Table III defaults, producing one series per attack — exactly the curves
the paper's figures plot.  :func:`repro.scenarios.run_scenarios`, the one
scenario runner, aggregates each panel's per-trial gains into a
:class:`SweepResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.reporting import format_table


def stderr_of(samples: Sequence[float]) -> float:
    """Standard error of the mean of one point's per-trial gains."""
    if len(samples) < 2:
        return 0.0
    return float(np.std(samples, ddof=1) / math.sqrt(len(samples)))


@dataclass
class SweepResult:
    """Gain curves of several attacks across one swept parameter.

    ``series`` holds the per-point means (what the paper's figures plot);
    ``stderr`` the matching standard errors of the mean and ``samples`` the
    raw per-trial gains each point was aggregated from.  ``stderr`` and
    ``samples`` may be empty for hand-built results.
    """

    figure: str
    dataset: str
    metric: str
    parameter: str
    values: Sequence[float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    stderr: Dict[str, List[float]] = field(default_factory=dict)
    samples: Dict[str, List[List[float]]] = field(default_factory=dict)

    def format(self) -> str:
        """Render the sweep as the table the paper's figure plots.

        Series with standard errors get a ``±`` column right of their mean.
        """
        headers: List[str] = [self.parameter]
        for name in self.series:
            headers.append(name)
            if self.stderr.get(name):
                headers.append("±")
        rows = []
        for index, value in enumerate(self.values):
            row: List[float] = [value]
            for name in self.series:
                row.append(self.series[name][index])
                if self.stderr.get(name):
                    row.append(self.stderr[name][index])
            rows.append(row)
        title = f"{self.figure} — {self.dataset} — {self.metric}"
        return format_table(headers, rows, title=title)

    def gains_of(self, attack_name: str) -> List[float]:
        """Series of one attack; raises KeyError with context if absent."""
        if attack_name not in self.series:
            known = ", ".join(self.series)
            raise KeyError(f"no series {attack_name!r}; have: {known}")
        return self.series[attack_name]

    def add_point(self, name: str, gains: Sequence[float]) -> None:
        """Append one point (per-trial gains) to series ``name``."""
        gains = [float(g) for g in gains]
        self.series.setdefault(name, []).append(float(np.mean(gains)))
        self.stderr.setdefault(name, []).append(stderr_of(gains))
        self.samples.setdefault(name, []).append(gains)
