"""Trace export: JSONL span/counter files, run manifests, summaries.

A traced run leaves two artifacts next to whatever it produced:

* ``<trace>.jsonl`` — one JSON object per line: ``{"type": "span", ...}``
  records with monotonic-ns bounds and attributes, then
  ``{"type": "counter", ...}`` totals.  Append-friendly, greppable and
  cheap to stream-parse at any size;
* ``<trace>.manifest.json`` — the :class:`RunManifest`: what ran (scenario
  names, config, ``REPRO_*`` environment, git describe), how much (task
  counts, wall clock) and how well (cache hit/miss totals), as one
  self-contained JSON document.

``python -m repro trace summarize PATH`` renders the top-spans/counters
table via :func:`summarize_trace`.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.core import Tracer

#: Manifest format version; bump when the payload layout changes.
MANIFEST_FORMAT = 1


def manifest_path(trace_path: Union[str, Path]) -> Path:
    """Where the manifest of one trace file lives (sibling, .manifest.json)."""
    trace_path = Path(trace_path)
    return trace_path.with_name(trace_path.stem + ".manifest.json")


def git_describe() -> str:
    """``git describe`` of the working tree, or ``"unknown"`` outside git."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


@dataclass
class RunManifest:
    """One run's identity card, written next to its trace.

    ``counters`` is the tracer's full counter snapshot — ``cache.hit`` /
    ``cache.miss`` totals live there, which is what the CI warm-run check
    reads.  ``config`` is a plain dict so the manifest stays loadable even
    if :class:`~repro.experiments.config.ExperimentConfig` grows fields.
    ``env`` holds the ``REPRO_*`` environment variables in effect (cache
    root, dense-byte cap, trace switch, ...); manifests written before it
    existed load with an empty mapping.
    """

    scenarios: List[str] = field(default_factory=list)
    config: Dict[str, object] = field(default_factory=dict)
    git: str = "unknown"
    created: str = ""
    wall_seconds: float = 0.0
    task_count: int = 0
    span_count: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    env: Dict[str, str] = field(default_factory=dict)
    format: int = MANIFEST_FORMAT

    @classmethod
    def from_tracer(
        cls,
        tracer: Tracer,
        scenarios: List[str],
        config: Optional[Dict[str, object]] = None,
        wall_seconds: float = 0.0,
    ) -> "RunManifest":
        """Snapshot a finished run from its tracer's recorded facts."""
        counters = dict(tracer.counters)
        return cls(
            scenarios=list(scenarios),
            config=dict(config or {}),
            git=git_describe(),
            created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            wall_seconds=round(float(wall_seconds), 6),
            task_count=int(counters.get("batch.tasks", 0)),
            span_count=len(tracer.spans),
            counters=counters,
            env={
                name: value
                for name, value in sorted(os.environ.items())
                if name.startswith("REPRO_")
            },
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{key: value for key, value in payload.items() if key in known})

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def write_trace(
    tracer: Tracer,
    path: Union[str, Path],
    manifest: Optional[RunManifest] = None,
) -> Path:
    """Write a tracer's spans and counters as JSONL (plus the manifest)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            record = {"type": "span", **span.to_payload()}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        for name in sorted(tracer.counters):
            record = {"type": "counter", "name": name, "value": tracer.counters[name]}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    if manifest is not None:
        manifest.span_count = manifest.span_count or len(tracer.spans)
        manifest.write(manifest_path(path))
    return path


def load_trace(path: Union[str, Path]) -> Tuple[List[dict], Dict[str, float]]:
    """Parse a trace file back into (span payloads, counter totals).

    Torn or foreign lines are skipped, mirroring the result store's
    tolerance: a trace written by a crashed run still summarizes.
    """
    spans: List[dict] = []
    counters: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("type") == "span":
                spans.append(record)
            elif record.get("type") == "counter":
                counters[record["name"]] = (
                    counters.get(record["name"], 0) + record["value"]
                )
    return spans, counters


def summarize_trace(path: Union[str, Path], top: int = 15) -> str:
    """The ``trace summarize`` report: top spans by total time + counters."""
    from repro.experiments.reporting import format_table

    spans, counters = load_trace(path)
    by_name: "OrderedDict[str, List[int]]" = OrderedDict()
    for span in spans:
        duration = max(0, span["end_ns"] - span["start_ns"])
        by_name.setdefault(span["name"], []).append(duration)

    span_rows = []
    for name, durations in sorted(
        by_name.items(), key=lambda item: -sum(item[1])
    )[:top]:
        total_ms = sum(durations) / 1e6
        span_rows.append(
            [
                name,
                len(durations),
                round(total_ms, 3),
                round(total_ms / len(durations), 3),
                round(max(durations) / 1e6, 3),
            ]
        )
    blocks = [
        format_table(
            ["span", "count", "total ms", "mean ms", "max ms"],
            span_rows,
            title=f"top spans — {path}",
        )
    ]
    counter_rows = [[name, counters[name]] for name in sorted(counters)]
    if counter_rows:
        blocks.append(format_table(["counter", "value"], counter_rows, title="counters"))
    manifest_file = manifest_path(path)
    if manifest_file.is_file():
        manifest = RunManifest.load(manifest_file)
        blocks.append(
            f"manifest: scenarios={','.join(manifest.scenarios) or '-'} "
            f"git={manifest.git} tasks={manifest.task_count} "
            f"wall={manifest.wall_seconds:.2f}s"
        )
    return "\n\n".join(blocks)
