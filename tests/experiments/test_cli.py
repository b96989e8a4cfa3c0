"""Tests for the experiment CLI."""

import io

import pytest

from repro.experiments.cli import ARTIFACTS, build_parser, run


class TestParser:
    def test_artifact_choices(self):
        assert "fig6" in ARTIFACTS and "table2" in ARTIFACTS and "fig15" in ARTIFACTS

    def test_every_artifact_is_a_registered_paper_scenario(self):
        from repro.scenarios import get_scenario

        for name in ARTIFACTS:
            assert get_scenario(name).paper

    def test_parses_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.dataset is None  # the scenario's own dataset
        assert args.trials == 2

    @pytest.mark.parametrize("artifact", ARTIFACTS)
    def test_artifacts_parse_like_scenario_run(self, artifact):
        argv = ["--scale", "0.04", "--trials", "1", "--trace", "t.jsonl", "--resume"]
        alias = vars(build_parser().parse_args([artifact, *argv]))
        scenario = vars(build_parser().parse_args(["scenario", "run", artifact, *argv]))
        for key in ("artifact", "action", "names"):
            alias.pop(key, None)
            scenario.pop(key, None)
        assert alias == scenario

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6", "--dataset", "twitter"])


class TestRun:
    def test_list(self):
        out = io.StringIO()
        assert run(["list"], out=out) == 0
        text = out.getvalue()
        for name in (*ARTIFACTS, "scenario", "worker", "cache", "dataset", "trace"):
            assert f"  {name} " in text

    def test_table2(self):
        out = io.StringIO()
        assert run(["table2", "--scale", "0.05"], out=out) == 0
        text = out.getvalue()
        for dataset in ("facebook", "enron", "astroph", "gplus"):
            assert dataset in text

    def test_artifact_is_a_scenario_run_alias(self):
        argv = ["--scale", "0.03", "--trials", "1", "--no-cache"]
        alias, scenario = io.StringIO(), io.StringIO()
        assert run(["fig13b", *argv], out=alias) == 0
        assert run(["scenario", "run", "fig13b", *argv], out=scenario) == 0
        assert alias.getvalue() == scenario.getvalue()

    def test_fig6_tiny(self):
        out = io.StringIO()
        code = run(
            ["fig6", "--dataset", "facebook", "--scale", "0.04", "--trials", "1"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "MGA" in text and "epsilon" in text

    def test_fig12a_tiny(self):
        out = io.StringIO()
        code = run(["fig12a", "--scale", "0.04", "--trials", "1"], out=out)
        assert code == 0
        assert "Detect1" in out.getvalue()

    def test_fig14_tiny(self):
        out = io.StringIO()
        code = run(["fig14", "--scale", "0.03", "--trials", "1"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "LF-GDPR" in text and "LDPGen" in text


class TestScenarioCommands:
    def test_list_shows_paper_and_extensions(self):
        out = io.StringIO()
        assert run(["scenario", "list"], out=out) == 0
        text = out.getvalue()
        assert "fig6" in text and "xprod/protocol-duel-mga" in text

    def test_list_extensions_only(self):
        out = io.StringIO()
        assert run(["scenario", "list", "--extensions"], out=out) == 0
        text = out.getvalue()
        assert "xprod/" in text and "fig6" not in text

    def test_list_unknown_tag_fails(self):
        out = io.StringIO()
        assert run(["scenario", "list", "--tag", "nonesuch"], out=out) == 1

    def test_run_scenario_tiny(self):
        out = io.StringIO()
        code = run(
            ["scenario", "run", "xprod/protocol-duel-mga",
             "--scale", "0.02", "--trials", "1", "--no-cache"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "LF-GDPR/MGA" in text and "LDPGen/MGA" in text

    def test_run_scenario_dataset_override(self):
        out = io.StringIO()
        code = run(
            ["scenario", "run", "fig6", "--dataset", "enron",
             "--scale", "0.01", "--trials", "1", "--no-cache"],
            out=out,
        )
        assert code == 0
        assert "enron" in out.getvalue()

    def test_run_unknown_scenario(self):
        with pytest.raises(KeyError, match="fig99"):
            run(["scenario", "run", "fig99"], out=io.StringIO())

    def test_record_then_check_roundtrip(self, tmp_path):
        out = io.StringIO()
        code = run(
            ["scenario", "record", "fig12a", "--dir", str(tmp_path),
             "--scale", "0.02", "--trials", "1"],
            out=out,
        )
        assert code == 0
        assert (tmp_path / "fig12a.json").is_file()
        out = io.StringIO()
        assert run(["scenario", "check", "fig12a", "--dir", str(tmp_path)], out=out) == 0
        assert "ok" in out.getvalue()

    def test_check_without_fixtures_fails(self, tmp_path):
        out = io.StringIO()
        assert run(["scenario", "check", "--dir", str(tmp_path)], out=out) == 1
        assert "no golden fixtures" in out.getvalue()

    def test_check_named_scenario_without_fixture_reports_missing(self, tmp_path):
        out = io.StringIO()
        assert run(["scenario", "check", "fig6", "--dir", str(tmp_path)], out=out) == 1
        assert "MISSING fig6" in out.getvalue()

    def test_run_table2_dataset_override(self):
        out = io.StringIO()
        code = run(
            ["scenario", "run", "table2", "--dataset", "enron", "--scale", "0.02"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "enron" in text and "facebook" not in text

    def test_check_reports_drift(self, tmp_path):
        import json

        run(
            ["scenario", "record", "fig12a", "--dir", str(tmp_path),
             "--scale", "0.02", "--trials", "1"],
            out=io.StringIO(),
        )
        path = tmp_path / "fig12a.json"
        fixture = json.loads(path.read_text())
        fixture["panels"]["Fig12a"]["series"]["Detect1"]["mean"][0] += 0.5
        path.write_text(json.dumps(fixture))
        out = io.StringIO()
        assert run(["scenario", "check", "fig12a", "--dir", str(tmp_path)], out=out) == 1
        assert "DRIFT" in out.getvalue()

    def test_scenario_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])


class TestTraceCommands:
    """The --trace/--progress run options and the trace summarize command."""

    def test_traced_scenario_run_writes_trace_and_manifest(self, tmp_path):
        from repro.telemetry.core import NULL_TRACER, current_tracer
        from repro.telemetry.export import RunManifest, load_trace, manifest_path

        trace_file = tmp_path / "run.jsonl"
        out = io.StringIO()
        code = run(
            ["scenario", "run", "fig6", "--scale", "0.02", "--no-cache",
             "--trace", str(trace_file)],
            out=out,
        )
        assert code == 0
        assert f"trace written to {trace_file}" in out.getvalue()
        assert current_tracer() is NULL_TRACER, "CLI must restore the tracer"

        spans, counters = load_trace(trace_file)
        names = {span["name"] for span in spans}
        assert {"scenario.run", "session.run", "task.execute"} <= names
        assert counters["batch.tasks"] == counters["cache.miss"] > 0

        manifest = RunManifest.load(manifest_path(trace_file))
        assert manifest.scenarios == ["fig6"]
        assert manifest.task_count == counters["batch.tasks"]
        assert manifest.config["trials"] == 2
        assert manifest.wall_seconds > 0

    def test_progress_goes_to_stderr(self, tmp_path, capsys):
        out = io.StringIO()
        code = run(
            ["scenario", "run", "fig6", "--scale", "0.02", "--trials", "1",
             "--no-cache", "--progress"],
            out=out,
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "batch done:" in captured.err
        assert "Fig6" in out.getvalue()

    def test_trace_summarize(self, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        run(
            ["scenario", "run", "fig6", "--scale", "0.02", "--trials", "1",
             "--no-cache", "--trace", str(trace_file)],
            out=io.StringIO(),
        )
        out = io.StringIO()
        assert run(["trace", "summarize", str(trace_file)], out=out) == 0
        text = out.getvalue()
        assert "task.execute" in text
        assert "batch.tasks" in text
        assert "scenarios=fig6" in text

    def test_trace_summarize_missing_file(self, tmp_path):
        out = io.StringIO()
        assert run(["trace", "summarize", str(tmp_path / "nope.jsonl")], out=out) == 1
        assert "no trace file" in out.getvalue()
