"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import comparable


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_command_has_help(self):
        parser = build_parser()
        for args in (
            ["list"],
            ["describe", "fig4"],
            ["run", "fig4", "--seed", "1"],
            ["stream", "--seed", "1"],
            ["serve", "--seed", "1"],
            ["trace", "convert", "a.jsonl", "b.rtbin"],
            ["trace", "inspect", "a.rtbin"],
            ["perf", "report", "spans.jsonl"],
        ):
            parsed = parser.parse_args(args)
            assert callable(parsed.handler)

    def test_figure_aliases_are_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig4"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestExecution:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "demo" in out

    def test_overheads_runs(self, capsys):
        assert main([
            "run", "overheads", "--set", "epochs_ms=50,100",
            "--set", "include_live=false",
        ]) == 0
        out = capsys.readouterr().out
        assert "[bandwidth]" in out and "[response_model]" in out

    def test_demo_runs_small(self, capsys):
        assert main([
            "run", "demo", "--set", "flows=150", "--set", "epochs=2",
            "--scale", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "=== demo:" in out
        epochs = [line.split()[0] for line in out.splitlines() if line[:1].isdigit()]
        assert epochs == ["0", "1"]


class TestRegistryCommands:
    """The registry-facing surface: run / list / describe."""

    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "repro.scenarios registry" in out
        for name in ("fig5", "fig6", "fig10", "workloads", "backend_speedup"):
            assert name in out

    def test_describe_prints_parameters(self, capsys):
        assert main(["describe", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "victims" in out and "sweep axis" in out

    def test_describe_unknown_scenario(self, capsys):
        assert main(["describe", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_fig4_json_stdout_is_parseable(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=200", "--set", "victims=30",
            "--set", "trials=1", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "fig4"
        assert payload["points"][0]["rows"][0]["victims"] == 30

    def test_run_unknown_scenario_fails(self, capsys):
        assert main(["run", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_bad_override_fails(self, capsys):
        assert main(["run", "fig4", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_run_malformed_set_fails(self, capsys):
        assert main(["run", "fig4", "--set", "flows"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_global_seed_before_subcommand(self, capsys):
        assert main([
            "--seed", "11", "run", "fig4", "--set", "flows=150",
            "--set", "victims=20", "--set", "trials=1", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 11

    def test_registry_only_scenario_runs_via_cli(self, capsys):
        assert main([
            "run", "fig6", "--set", "flows=100,200", "--set", "victims=20",
            "--set", "trials=1", "--jobs", "2", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["rows"][0]["flows"] for p in payload["points"]] == [100, 200]

    def test_run_csv_stdout(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=150", "--set", "victims=20",
            "--set", "trials=1", "--csv", "-",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("victims,")

    def test_run_honours_global_loss_rate_flag(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=150", "--set", "victims=20",
            "--set", "trials=1", "--loss-rate", "0.5", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["loss_rate"] == 0.5

    def test_json_and_csv_cannot_both_stream_to_stdout(self, capsys):
        assert main([
            "run", "fig4", "--set", "flows=150", "--json", "-", "--csv", "-",
        ]) == 2
        assert "cannot share stdout" in capsys.readouterr().err

    def test_json_file_plus_csv_stdout_keeps_stream_pure(self, capsys, tmp_path):
        """File-write status lines go to stderr, never into a stdout stream."""
        out_path = str(tmp_path / "fig4.json")
        assert main([
            "run", "fig4", "--set", "flows=150", "--set", "victims=20",
            "--set", "trials=1", "--json", out_path, "--csv", "-",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].startswith("victims,")
        assert "wrote" not in captured.out
        assert out_path in captured.err
        assert json.loads(open(out_path).read())["scenario"] == "fig4"

    def test_json_stdout_streams_rows_per_point(self, capsys):
        """The JSON stream is one valid document whose rows arrive per point."""
        assert main([
            "run", "fig6", "--set", "flows=100,200", "--set", "victims=20",
            "--set", "trials=1", "--json", "-",
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert [p["rows"][0]["flows"] for p in payload["points"]] == [100, 200]
        # Each point's rows start on their own line (written as the point
        # completed), so a consumer tailing stdout sees them incrementally.
        row_lines = [line for line in out.splitlines() if line.startswith('{"flows"')]
        assert len(row_lines) == 2

    def test_csv_stdout_streams_rows_per_point(self, capsys):
        assert main([
            "run", "fig6", "--set", "flows=100,200", "--set", "victims=20",
            "--set", "trials=1", "--csv", "-",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("flows,")
        assert [line.split(",")[0] for line in lines[1:3]] == ["100", "200"]

    def test_fig9_schedule_override_via_set(self, capsys):
        assert main([
            "run", "fig9", "--set", "schedule=150:0.05,300:0.15",
            "--set", "epochs_per_stage=1", "--json", "-",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["schedule"] == [[150, 0.05], [300, 0.15]]

    def test_fig9_malformed_schedule_fails_cleanly(self, capsys):
        assert main(["run", "fig9", "--set", "schedule=150-0.05"]) == 2
        assert "':'-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_run_rejects_jobs_below_one(self, capsys, jobs):
        assert main(["run", "fig4", "--set", "flows=150", "--jobs", jobs]) == 2
        assert "error: --jobs must be >= 1" in capsys.readouterr().err


class TestStreamCommand:
    """The continuous streaming engine behind ``repro.cli stream``."""

    def test_stream_writes_jsonl_records(self, capsys, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        assert main([
            "stream", "--phases", "100:0.05:2,200:0.2:1", "--scale", "0.05",
            "--jsonl", path, "--quiet",
        ]) == 0
        records = [json.loads(line) for line in open(path)]
        assert [r["epoch"] for r in records] == [0, 1, 2]
        assert [r["num_flows"] for r in records] == [100, 100, 200]
        assert "[stream] 3 epochs" in capsys.readouterr().err

    def test_stream_console_lines_and_summary(self, capsys):
        assert main(["stream", "--phases", "80:0.1:2", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "epoch    0" in out and "epoch    1" in out
        assert "[stream] 2 epochs" in out

    def test_stream_csv_stdout_is_pure(self, capsys):
        assert main([
            "stream", "--phases", "80:0.1:2", "--scale", "0.05", "--csv", "-",
        ]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3
        assert "[stream]" in captured.err

    def test_stream_epoch_cap_and_failure_flags(self, capsys, tmp_path):
        path = str(tmp_path / "failover.jsonl")
        assert main([
            "stream", "--phases", "100:0.0:6", "--scale", "0.05",
            "--fail-epoch", "1", "--recover-epoch", "3", "--fail-loss", "1.0",
            "--epochs", "4", "--jsonl", path, "--quiet",
        ]) == 0
        records = [json.loads(line) for line in open(path)]
        assert len(records) == 4
        victims = [r["num_victims"] for r in records]
        assert victims[0] == 0 and victims[1] > 0 and victims[3] == 0

    def test_stream_trace_replay(self, capsys, tmp_path):
        from repro.stream import SyntheticSource, write_trace_file

        trace_path = str(tmp_path / "replay.jsonl")
        write_trace_file(trace_path, SyntheticSource.steady(60, 2, seed=3))
        assert main([
            "stream", "--trace", trace_path, "--scale", "0.05", "--quiet",
        ]) == 0
        assert "[stream] 2 epochs" in capsys.readouterr().err

    def test_stream_rejects_double_stdout(self, capsys):
        assert main(["stream", "--jsonl", "-", "--csv", "-"]) == 2
        assert "cannot share stdout" in capsys.readouterr().err

    def test_stream_rejects_malformed_phases(self, capsys):
        assert main(["stream", "--phases", "100-0.05-2"]) == 2
        assert "flows:victim_ratio:epochs" in capsys.readouterr().err

    def test_stream_rejects_missing_trace_file(self, capsys):
        assert main(["stream", "--trace", "no_such_trace.jsonl"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_stream_rejects_out_of_range_fail_host(self, capsys):
        assert main([
            "stream", "--phases", "50:0.0:1", "--fail-epoch", "0",
            "--fail-host", "99",
        ]) == 2
        assert "--fail-host" in capsys.readouterr().err

    @pytest.mark.parametrize("fail_loss", ["-0.5", "1.5"])
    def test_stream_rejects_out_of_range_fail_loss(self, capsys, fail_loss):
        assert main([
            "stream", "--phases", "50:0.0:1", "--fail-epoch", "0",
            "--fail-loss", fail_loss,
        ]) == 2
        assert "--fail-loss must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["stream", "--rolling-window", "0"], "rolling_window"),
        (["stream", "--scale", "0"], "scale must be positive"),
        (["serve", "--checkpoint-interval", "-1"], "checkpoint_interval"),
        (["serve", "--keep-checkpoints", "0"], "keep_checkpoints"),
        (["stream", "--phases", "100:1.5:1"], "victim ratio must be in [0, 1]"),
        (["serve", "--state-diffs", "no_such_feed.jsonl"], "no_such_feed.jsonl"),
    ])
    def test_bad_engine_flags_are_usage_errors(self, capsys, argv, message):
        assert main(argv + ["--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_stream_and_serve_write_identical_records(self, capsys, tmp_path):
        """Both commands build their engine from the same flags the same way."""
        flags = ["--seed", "4", "--phases", "300:0.1:3,600:0.2:2", "--quiet"]
        stream_path = tmp_path / "stream.jsonl"
        serve_path = tmp_path / "serve.jsonl"
        assert main(["stream", *flags, "--jsonl", str(stream_path)]) == 0
        assert main(["serve", *flags, "--jsonl", str(serve_path)]) == 0
        load = lambda path: [comparable(json.loads(line)) for line in open(path)]
        stream_records = load(stream_path)
        assert len(stream_records) == 5
        assert stream_records == load(serve_path)


class TestTraceCommand:
    """The trace inspect/convert surface over the columnar trace plane."""

    @staticmethod
    def _write_jsonl(tmp_path):
        from repro.stream import SyntheticSource
        from repro.stream.sources import write_trace_file

        path = str(tmp_path / "t.jsonl")
        source = SyntheticSource.steady(num_flows=40, epochs=3, victim_ratio=0.1,
                                        seed=2)
        write_trace_file(path, source)
        return path

    def test_convert_jsonl_to_binary_and_back(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        binary = str(tmp_path / "t.rtbin")
        csv_path = str(tmp_path / "t.csv")
        assert main(["trace", "convert", jsonl, binary]) == 0
        assert "3 epochs" in capsys.readouterr().out
        assert main(["trace", "convert", binary, csv_path]) == 0
        assert "3 epochs" in capsys.readouterr().out

        from repro.stream.sources import TraceFileSource
        original = list(TraceFileSource(jsonl).epochs())
        round_tripped = list(TraceFileSource(csv_path).epochs())
        assert len(original) == len(round_tripped)
        for a, b in zip(original, round_tripped):
            assert list(a.flows) == list(b.flows)

    def test_inspect_binary(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        binary = str(tmp_path / "t.rtbin")
        assert main(["trace", "convert", jsonl, binary, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["trace", "inspect", binary]) == 0
        out = capsys.readouterr().out
        assert "format:       binary" in out
        assert "epochs:       3" in out
        assert "flow_id_lo" in out

    def test_inspect_text_and_json_output(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        assert main(["trace", "inspect", jsonl, "--json", "-"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format"] == "jsonl"
        assert summary["epochs"] == 3
        assert summary["flows"] == 120

    def test_inspect_missing_file(self, capsys):
        assert main(["trace", "inspect", "no_such.rtbin"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_inspect_corrupt_binary(self, capsys, tmp_path):
        path = str(tmp_path / "bad.rtbin")
        with open(path, "wb") as handle:
            handle.write(b"RTRC" + b"\0" * 20)  # header only, no manifest
        assert main(["trace", "inspect", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_convert_unknown_extension(self, capsys, tmp_path):
        jsonl = self._write_jsonl(tmp_path)
        assert main(["trace", "convert", jsonl, str(tmp_path / "t.txt")]) == 2
        assert "cannot infer trace format" in capsys.readouterr().err
