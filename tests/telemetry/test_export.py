"""Trace files, run manifests and the summarize report."""

import json

from repro.telemetry.core import Tracer
from repro.telemetry.export import (
    MANIFEST_FORMAT,
    RunManifest,
    load_trace,
    manifest_path,
    summarize_trace,
    write_trace,
)


def _traced_tracer():
    tracer = Tracer()
    with tracer.span("session.run", tasks=4):
        with tracer.span("task.execute", trial=0):
            pass
    tracer.counter("cache.hit", 3)
    tracer.counter("cache.miss", 1)
    tracer.counter("batch.tasks", 4)
    return tracer


class TestTraceFile:
    def test_write_load_roundtrip(self, tmp_path):
        tracer = _traced_tracer()
        path = write_trace(tracer, tmp_path / "run.jsonl")
        spans, counters = load_trace(path)
        assert [s["name"] for s in spans] == ["task.execute", "session.run"]
        assert counters == {"cache.hit": 3, "cache.miss": 1, "batch.tasks": 4}

    def test_lines_are_json_objects(self, tmp_path):
        path = write_trace(_traced_tracer(), tmp_path / "run.jsonl")
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record["type"] in ("span", "counter")

    def test_torn_lines_are_skipped(self, tmp_path):
        path = write_trace(_traced_tracer(), tmp_path / "run.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "name": "torn')
        spans, counters = load_trace(path)
        assert len(spans) == 2
        assert counters["cache.hit"] == 3


class TestManifest:
    def test_from_tracer_snapshots_counters(self):
        manifest = RunManifest.from_tracer(
            _traced_tracer(), scenarios=["fig6"],
            config={"trials": 2}, wall_seconds=1.25,
        )
        assert manifest.scenarios == ["fig6"]
        assert manifest.task_count == 4
        assert manifest.span_count == 2
        assert manifest.counters["cache.hit"] == 3
        assert manifest.wall_seconds == 1.25
        assert manifest.format == MANIFEST_FORMAT

    def test_json_roundtrip(self, tmp_path):
        manifest = RunManifest.from_tracer(
            _traced_tracer(), scenarios=["fig6", "fig7"], config={"jobs": 4}
        )
        path = manifest.write(tmp_path / "run.manifest.json")
        assert RunManifest.load(path) == manifest

    def test_records_repro_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "4096")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("UNRELATED_SETTING", "x")
        manifest = RunManifest.from_tracer(_traced_tracer(), scenarios=["fig6"])
        assert manifest.env["REPRO_DENSE_MAX_BYTES"] == "4096"
        assert manifest.env["REPRO_CACHE_DIR"] == str(tmp_path)
        assert all(name.startswith("REPRO_") for name in manifest.env)
        path = manifest.write(tmp_path / "run.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.env == manifest.env
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_manifest_without_env_still_loads(self, tmp_path):
        payload = RunManifest.from_tracer(
            _traced_tracer(), scenarios=["fig6"]
        ).to_dict()
        del payload["env"]
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = RunManifest.load(path)
        assert loaded.env == {}
        assert loaded.scenarios == ["fig6"]
        assert loaded.counters["cache.hit"] == 3

    def test_from_dict_ignores_unknown_keys(self):
        loaded = RunManifest.from_dict({"scenarios": ["x"], "future_field": 1})
        assert loaded.scenarios == ["x"]

    def test_write_trace_writes_sibling_manifest(self, tmp_path):
        tracer = _traced_tracer()
        manifest = RunManifest.from_tracer(tracer, scenarios=["fig6"])
        path = write_trace(tracer, tmp_path / "run.jsonl", manifest=manifest)
        sibling = manifest_path(path)
        assert sibling.name == "run.manifest.json"
        assert RunManifest.load(sibling).counters["cache.hit"] == 3


class TestSummarize:
    def test_reports_spans_counters_and_manifest(self, tmp_path):
        tracer = _traced_tracer()
        manifest = RunManifest.from_tracer(tracer, scenarios=["fig6"])
        path = write_trace(tracer, tmp_path / "run.jsonl", manifest=manifest)
        report = summarize_trace(path)
        assert "session.run" in report
        assert "task.execute" in report
        assert "cache.hit" in report
        assert "scenarios=fig6" in report

    def test_top_limits_span_rows(self, tmp_path):
        tracer = Tracer()
        for index in range(5):
            with tracer.span(f"span.{index}"):
                pass
        path = write_trace(tracer, tmp_path / "run.jsonl")
        report = summarize_trace(path, top=2)
        assert report.count("span.") == 2
