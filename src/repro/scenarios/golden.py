"""Golden-result regression store for scenarios.

``record_golden`` runs a scenario at a tiny, fixed configuration and writes
its aggregate outputs — per-point means and standard errors, plus a hash of
the compiled task batch — to a small JSON fixture.  ``check_golden`` replays
the scenario and compares against the fixture within the spec's recorded
tolerance.  Together they turn the entire attack/defense/protocol stack into
one end-to-end regression suite: any change that silently alters numeric
outputs (a reordered RNG draw, a broken estimator, a drifted seed key)
fails ``pytest tests/scenarios`` instead of shipping.

Two layers of protection:

* the **batch hash** (SHA-256 over the sorted content hashes of every
  compiled task) pins the task *identities* — seeds, budgets, defense
  arguments — so a seed-derivation regression is caught even if the means
  happen to survive it;
* the **means/stderrs** pin the numeric pipeline itself, within
  ``golden_rtol``/``golden_atol`` (defaults are effectively bit-identical,
  with headroom only for cross-platform float noise).

Fixtures live in ``tests/golden/`` (override with ``REPRO_GOLDEN_DIR``) and
are (re)written by ``python -m repro scenario record``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Optional

from repro.engine.cache import NullCache
from repro.experiments.config import ExperimentConfig
from repro.scenarios.run import ScenarioResult, prepare_scenario, run_scenario
from repro.scenarios.spec import ScenarioSpec

#: Environment variable overriding the default fixture directory.
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"

#: The fixed recording configuration: tiny surrogates, two trials — small
#: enough that replaying every registered scenario stays CI-friendly.
GOLDEN_CONFIG = ExperimentConfig(trials=2, scale=0.02, seed=0, cache=False)

#: Fixture format version; bump when the payload layout changes.
GOLDEN_FORMAT = 1


def default_golden_dir() -> Path:
    """``tests/golden`` in the repository checkout (or $REPRO_GOLDEN_DIR)."""
    override = os.environ.get(GOLDEN_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_path(spec_name: str, directory: Optional[Path] = None) -> Path:
    """Where one scenario's fixture lives (slashes become double underscores)."""
    directory = directory if directory is not None else default_golden_dir()
    return Path(directory) / f"{spec_name.replace('/', '__')}.json"


def batch_hash(spec: ScenarioSpec, config: ExperimentConfig) -> str:
    """Order-independent SHA-256 over the compiled batch's task identities."""
    tasks = prepare_scenario(spec, config).tasks
    digest = hashlib.sha256()
    for task_hash in sorted(task.content_hash() for task in tasks):
        digest.update(task_hash.encode("ascii"))
    return digest.hexdigest()


def _result_payload(result: ScenarioResult) -> dict:
    if result.table is not None:
        return {"table": [list(row) for row in result.table]}
    panels = {}
    for key, sweep in result.panels.items():
        panels[key] = {
            "figure": sweep.figure,
            "values": [float(v) for v in sweep.values],
            "series": {
                name: {
                    "mean": sweep.series[name],
                    "stderr": sweep.stderr.get(name, []),
                }
                for name in sweep.series
            },
        }
    return {"panels": panels}


def record_golden(
    spec: ScenarioSpec,
    config: ExperimentConfig = GOLDEN_CONFIG,
    directory: Optional[Path] = None,
) -> Path:
    """Run ``spec`` at the golden configuration and write its fixture."""
    result = run_scenario(spec, config, cache=NullCache())
    payload = {
        "format": GOLDEN_FORMAT,
        "scenario": spec.name,
        "dataset": spec.dataset,
        "kind": spec.kind,
        "config": {
            "trials": config.trials,
            "scale": config.scale,
            "seed": config.seed,
            "epsilon": config.epsilon,
            "beta": config.beta,
            "gamma": config.gamma,
        },
        "rtol": spec.golden_rtol,
        "atol": spec.golden_atol,
    }
    if spec.kind == "sweep":
        payload["batch_hash"] = batch_hash(spec, config)
    payload.update(_result_payload(result))
    path = golden_path(spec.name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def load_golden(spec_name: str, directory: Optional[Path] = None) -> dict:
    """The recorded fixture of one scenario; raises FileNotFoundError if absent."""
    with open(golden_path(spec_name, directory), "r", encoding="utf-8") as handle:
        return json.load(handle)


def golden_config(golden: dict) -> ExperimentConfig:
    """The exact configuration a fixture was recorded under."""
    knobs = golden["config"]
    return ExperimentConfig(
        trials=knobs["trials"], scale=knobs["scale"], seed=knobs["seed"],
        epsilon=knobs["epsilon"], beta=knobs["beta"], gamma=knobs["gamma"],
        cache=False,
    )


def _close(actual: float, expected: float, rtol: float, atol: float) -> bool:
    """Tolerance comparison with explicit non-finite semantics.

    ``math.isclose`` is NaN-poisoned (``NaN != NaN``) and would report an
    inf-vs-inf pair as a confusing numeric diff; here two NaNs (or two
    same-signed infinities) compare equal — a fixture recorded from a buggy
    estimator should keep matching itself — while a finite/non-finite pair
    is always a mismatch.
    """
    actual, expected = float(actual), float(expected)
    if math.isnan(actual) or math.isnan(expected):
        return math.isnan(actual) and math.isnan(expected)
    if math.isinf(actual) or math.isinf(expected):
        return actual == expected
    return math.isclose(actual, expected, rel_tol=rtol, abs_tol=atol)


def _diff_message(key: str, name: str, kind: str, index: int,
                  value, want: float, have: float) -> str:
    """One mismatch line; non-finite values are called out as such."""
    if not (math.isfinite(float(want)) and math.isfinite(float(have))):
        return (
            f"{key}/{name}: {kind}[{index}] (value={value!r}) "
            f"non-finite value: {want!r} -> {have!r}"
        )
    return (
        f"{key}/{name}: {kind}[{index}] (value={value!r}) {want!r} -> {have!r}"
    )


def compare_golden(golden: dict, result: ScenarioResult, spec: ScenarioSpec) -> List[str]:
    """Mismatches between a replayed result and its fixture (empty == pass)."""
    rtol = float(golden.get("rtol", spec.golden_rtol))
    atol = float(golden.get("atol", spec.golden_atol))
    problems: List[str] = []

    if result.table is not None:
        expected_rows = [tuple(row) for row in golden.get("table", [])]
        actual_rows = [tuple(row) for row in result.table]
        if expected_rows != actual_rows:
            problems.append(f"table rows changed: {expected_rows} -> {actual_rows}")
        return problems

    expected_panels: Dict[str, dict] = golden.get("panels", {})
    if sorted(expected_panels) != sorted(result.panels):
        problems.append(
            f"panel set changed: {sorted(expected_panels)} -> {sorted(result.panels)}"
        )
        return problems
    for key, expected in expected_panels.items():
        sweep = result.panels[key]
        if [float(v) for v in sweep.values] != expected["values"]:
            problems.append(f"{key}: value grid changed")
            continue
        if sorted(expected["series"]) != sorted(sweep.series):
            problems.append(
                f"{key}: series set changed: "
                f"{sorted(expected['series'])} -> {sorted(sweep.series)}"
            )
            continue
        for name, curves in expected["series"].items():
            for kind, actual_curve in (("mean", sweep.series[name]), ("stderr", sweep.stderr.get(name, []))):
                expected_curve = curves[kind]
                if len(expected_curve) != len(actual_curve):
                    problems.append(f"{key}/{name}: {kind} length changed")
                    continue
                for index, (have, want) in enumerate(zip(actual_curve, expected_curve)):
                    if not _close(have, want, rtol, atol):
                        problems.append(
                            _diff_message(
                                key, name, kind, index,
                                sweep.values[index], want, have,
                            )
                        )
    return problems


def check_golden(
    spec: ScenarioSpec,
    directory: Optional[Path] = None,
) -> List[str]:
    """Replay ``spec`` against its fixture; returns mismatch descriptions.

    The replay runs at the fixture's recorded configuration with caching
    disabled, so a stale result cache can never mask a regression.
    """
    golden = load_golden(spec.name, directory)
    config = golden_config(golden)
    problems: List[str] = []
    if spec.kind == "sweep":
        recorded_hash = golden.get("batch_hash", "")
        current_hash = batch_hash(spec, config)
        if recorded_hash != current_hash:
            problems.append(
                "compiled task batch changed (seed keys, grids or component "
                f"names): {recorded_hash} -> {current_hash}"
            )
    result = run_scenario(spec, config, cache=NullCache())
    problems.extend(compare_golden(golden, result, spec))
    return problems
