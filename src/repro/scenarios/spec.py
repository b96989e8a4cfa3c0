"""The frozen scenario spec: a declarative description of one experiment.

A scenario is everything the engine needs to reproduce a figure (or an
experiment the paper never ran) as plain values: which dataset and metric,
which parameter sweeps over which grid, and which (attack, protocol,
defense) series are measured at every point.  Specs are frozen dataclasses
of primitives, so they are hashable, diffable and trivially serialisable —
the same design that makes :class:`~repro.engine.tasks.TrialTask` cacheable,
one level up.

The hierarchy mirrors how the paper presents results:

* a :class:`ScenarioSpec` is one figure/table;
* a :class:`PanelSpec` is one sub-plot sharing a value grid (Fig. 14 has an
  LF-GDPR panel and an LDPGen panel);
* a :class:`SeriesSpec` is one curve within a panel (one attack, protocol
  and optional defense).

``repro.scenarios.compiler`` lowers a spec into the flat
:class:`~repro.engine.tasks.TrialTask` batch the engine executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple, Union

from repro.core.gain import METRICS
from repro.engine.registry import ATTACKS, DEFENSES, PROTOCOLS
from repro.graph.datasets import DATASETS, REAL_DATASETS, known_dataset_names

#: Series sweep roles (how the swept value reaches one series' tasks).
SWEEP_POINT = "point"  #: the value sets the protocol point (epsilon/beta/gamma)
SWEEP_DEFENSE_ARG = "defense_arg"  #: the value becomes a defense argument
SWEEP_FLAT = "flat"  #: the series ignores the sweep (flat reference line)

#: Seed-key styles.  ``sweep`` reproduces the historical
#: ``<figure>|<dataset>|<metric>|<series>|<parameter>=<value>|trial=<t>``
#: attack-sweep keys; ``defense`` reproduces the historical Figs. 12-13
#: countermeasure keys.  Keeping both
#: styles keeps every pre-scenario figure output bit-identical.
SEED_STYLES = ("sweep", "defense")

#: Scenario kinds: ``sweep`` compiles to engine tasks; ``stats`` reports
#: dataset statistics (Table II) and runs no tasks.
KINDS = ("sweep", "stats")

ScalarArg = Union[int, float, str]


@dataclass(frozen=True)
class SeriesSpec:
    """One curve: an attack measured under one protocol and defense.

    Attributes
    ----------
    name:
        Display name of the series ("MGA", "Detect1", ...); unique within a
        panel and part of every task's seed-derivation key.
    attack / protocol / defense:
        Engine registry names (:data:`~repro.engine.registry.ATTACKS`, ...).
        ``defense`` is empty for undefended series.
    defense_args:
        Sorted ``(name, value)`` pairs for the defense factory.
    sweep:
        How the scenario's swept value reaches this series — one of
        :data:`SWEEP_POINT`, :data:`SWEEP_DEFENSE_ARG`, :data:`SWEEP_FLAT`.
    sweep_arg:
        Defense-argument name receiving the swept value (only for
        ``sweep == SWEEP_DEFENSE_ARG``; Detect1's ``threshold``).
    """

    name: str
    attack: str
    protocol: str = "lfgdpr"
    defense: str = ""
    defense_args: Tuple[Tuple[str, ScalarArg], ...] = ()
    sweep: str = SWEEP_POINT
    sweep_arg: str = ""

    def __post_init__(self):
        if self.sweep not in (SWEEP_POINT, SWEEP_DEFENSE_ARG, SWEEP_FLAT):
            raise ValueError(
                f"series {self.name!r}: sweep must be point/defense_arg/flat, "
                f"got {self.sweep!r}"
            )
        if self.sweep == SWEEP_DEFENSE_ARG and not self.sweep_arg:
            raise ValueError(
                f"series {self.name!r}: sweep_arg is required when the swept "
                "value is a defense argument"
            )
        if self.sweep == SWEEP_DEFENSE_ARG and not self.defense:
            raise ValueError(
                f"series {self.name!r}: cannot sweep a defense argument "
                "without a defense"
            )


@dataclass(frozen=True)
class PanelSpec:
    """One sub-plot: a set of series sharing the scenario's value grid.

    ``figure`` is the label embedded in every task's seed-derivation key
    (and shown as the table title); panels of one scenario must use distinct
    labels so their series draw independent random streams.

    ``dataset`` pins this panel to its own dataset surrogate; empty means
    the scenario's dataset.  A scenario whose panels pin different datasets
    compiles to one heterogeneous engine batch — every panel's tasks carry
    their own ``graph_key`` and fan out together over the session's graph
    store instead of running dataset by dataset.
    """

    figure: str
    series: Tuple[SeriesSpec, ...]
    name: str = ""  #: panel key in results; defaults to ``figure``.
    dataset: str = ""  #: per-panel dataset override; '' -> scenario dataset.

    @property
    def key(self) -> str:
        """The key this panel's sweep is stored under in a result."""
        return self.name or self.figure

    def dataset_or(self, default: str) -> str:
        """This panel's dataset: its own pin, else the scenario default."""
        return self.dataset or default

    def __post_init__(self):
        if not self.series:
            raise ValueError(f"panel {self.figure!r} has no series")
        names = [series.name for series in self.series]
        if len(set(names)) != len(names):
            raise ValueError(f"panel {self.figure!r} has duplicate series names: {names}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: the unit the registry and CLI work with.

    Attributes
    ----------
    name:
        Registry name (``fig6``, ``duel/mga-protocols``, ...).
    description:
        One-line summary shown by ``python -m repro scenario list``.
    dataset:
        Default dataset surrogate; override per run with :meth:`on_dataset`.
    metric:
        One of :data:`repro.core.gain.METRICS`.
    parameter:
        Swept parameter name (``epsilon``/``beta``/``gamma`` for protocol
        points, or a defense-argument name such as ``threshold``).
    values:
        The sweep grid.  Kept as the original numbers (ints for thresholds)
        because they are formatted into seed-derivation keys.
    panels:
        The sub-plots; most scenarios have exactly one.
    seed_style:
        Seed-key style (see :data:`SEED_STYLES`).
    kind:
        ``sweep`` (default) or ``stats`` (Table II; no tasks).
    datasets:
        For ``stats`` scenarios: which datasets to tabulate.
    paper:
        True for scenarios reproducing a paper artifact, False for the
        cross-product scenarios the paper never ran.
    tags:
        Free-form labels for CLI filtering ("degree", "defense", ...).
    """

    name: str
    description: str
    dataset: str = "facebook"
    metric: str = "degree_centrality"
    parameter: str = "epsilon"
    values: Tuple[ScalarArg, ...] = ()
    panels: Tuple[PanelSpec, ...] = ()
    seed_style: str = "sweep"
    kind: str = "sweep"
    datasets: Tuple[str, ...] = ()
    paper: bool = True
    tags: Tuple[str, ...] = ()
    #: Tolerances used when this scenario's goldens are checked.
    golden_rtol: float = field(default=1e-9)
    golden_atol: float = field(default=1e-12)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.seed_style not in SEED_STYLES:
            raise ValueError(
                f"seed_style must be one of {SEED_STYLES}, got {self.seed_style!r}"
            )
        if self.kind == "stats":
            if self.panels:
                raise ValueError("stats scenarios must not declare panels")
            return
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if not self.values:
            raise ValueError(f"scenario {self.name!r} has an empty value grid")
        if not self.panels:
            raise ValueError(f"scenario {self.name!r} has no panels")
        figures = [panel.figure for panel in self.panels]
        if len(set(figures)) != len(figures):
            raise ValueError(
                f"scenario {self.name!r} reuses a panel figure label: {figures}"
            )
        if self.seed_style == "sweep" and self.parameter not in ("epsilon", "beta", "gamma"):
            raise ValueError(
                "sweep-style scenarios sweep a protocol point parameter "
                f"(epsilon/beta/gamma), got {self.parameter!r}"
            )

    def on_dataset(self, dataset: str) -> "ScenarioSpec":
        """This scenario retargeted at another dataset surrogate.

        For ``stats`` scenarios the tabulated dataset list narrows to the
        requested dataset, so ``scenario run table2 --dataset enron`` reports
        that dataset instead of silently ignoring the override.  Panels that
        pin their own ``dataset`` keep it — the override moves only the
        scenario default.
        """
        if dataset not in DATASETS and dataset not in REAL_DATASETS:
            known = ", ".join(known_dataset_names())
            raise KeyError(f"unknown dataset {dataset!r}; known: {known}")
        if self.kind == "stats":
            return replace(self, dataset=dataset, datasets=(dataset,))
        return replace(self, dataset=dataset)

    def effective_tags(self) -> Tuple[str, ...]:
        """Declared tags plus the origin tag derived from ``paper``.

        ``paper``/``extension`` are never written into ``tags`` by hand —
        deriving them from the ``paper`` flag keeps the two filtering
        mechanisms (``--tag`` and ``--extensions``) from drifting apart.
        """
        return self.tags + ("paper" if self.paper else "extension",)

    def all_series(self) -> Tuple[SeriesSpec, ...]:
        """Every series across all panels, in panel order."""
        return tuple(series for panel in self.panels for series in panel.series)

    def validate_registries(self) -> None:
        """Raise KeyError if any component name is not registered.

        Called at registration time so a typo in a catalog entry fails the
        import, not the eventual run.
        """
        if self.kind == "stats":
            for dataset in self.datasets or (self.dataset,):
                if dataset not in DATASETS and dataset not in REAL_DATASETS:
                    raise KeyError(f"scenario {self.name!r}: unknown dataset {dataset!r}")
            return
        for panel in self.panels:
            if panel.dataset and panel.dataset not in DATASETS and panel.dataset not in REAL_DATASETS:
                raise KeyError(
                    f"scenario {self.name!r}: panel {panel.figure!r} pins "
                    f"unknown dataset {panel.dataset!r}"
                )
        for series in self.all_series():
            ATTACKS.get(series.attack)
            PROTOCOLS.get(series.protocol)
            if series.defense:
                DEFENSES.get(series.defense)
