"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph import read_edges

from tests.conftest import assert_usage_error


class TestGenerate:
    def test_rmat_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "g.bin")
        assert main(["generate", "--scale", "8", "--out", out]) == 0
        graph = read_edges(out, 256, weighted=False)
        assert graph.num_edges == 4096
        assert "wrote" in capsys.readouterr().out

    def test_weighted_rmat(self, tmp_path):
        out = str(tmp_path / "g.bin")
        main(["generate", "--scale", "7", "--weighted", "--out", out])
        graph = read_edges(out, 128, weighted=True)
        assert graph.weighted

    def test_web_graph(self, tmp_path):
        out = str(tmp_path / "web.bin")
        main(["generate", "--kind", "web", "--pages", "500", "--out", out])
        graph = read_edges(out, 500, weighted=False)
        assert graph.num_edges > 0


class TestRun:
    def _run(self, capsys, *extra):
        code = main(
            [
                "run",
                "--scale",
                "8",
                "--machines",
                "2",
                "--chunk-kb",
                "4",
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_pagerank(self, capsys):
        out = self._run(capsys, "--algorithm", "PR", "--iterations", "3")
        assert "PR: m=2" in out
        assert "breakdown" in out

    def test_bfs_defaults_root_to_hub(self, capsys):
        out = self._run(capsys, "--algorithm", "BFS")
        assert "BFS: m=2" in out

    def test_sssp_auto_weights(self, capsys):
        out = self._run(capsys, "--algorithm", "SSSP")
        assert "SSSP" in out

    def test_mcst_driver(self, capsys):
        out = self._run(capsys, "--algorithm", "MCST")
        assert "MCST" in out and "rounds" in out

    def test_scc_driver(self, capsys):
        out = self._run(capsys, "--algorithm", "SCC")
        assert "SCC" in out

    def test_stealing_and_checkpoint_flags(self, capsys):
        out = self._run(
            capsys,
            "--algorithm",
            "PR",
            "--alpha",
            "0",
            "--checkpoint",
        )
        assert "0 accepted" in out

    def test_run_from_file(self, tmp_path, capsys):
        graph_path = str(tmp_path / "in.bin")
        main(["generate", "--scale", "8", "--out", graph_path])
        code = main(
            [
                "run",
                "--algorithm",
                "WCC",
                "--input",
                graph_path,
                "--vertices",
                "256",
                "--machines",
                "2",
                "--chunk-kb",
                "4",
            ]
        )
        assert code == 0
        assert "WCC" in capsys.readouterr().out

    def test_input_requires_vertices(self, capsys):
        assert_usage_error(
            capsys, ["run", "--algorithm", "PR", "--input", "x.bin"],
            "--input requires --vertices",
        )

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.bin")
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "PR", "--input", missing,
             "--vertices", "10"],
            f"cannot read --input {missing!r}",
        )

    def test_bad_config_is_a_usage_error(self, capsys):
        assert_usage_error(
            capsys, ["run", "--algorithm", "PR", "--machines", "0"],
            "run: machines must be >= 1",
        )

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--algorithm", "PR", "--iterations", "0"],
             "run: iterations must be >= 1"),
            (["--algorithm", "BFS", "--root", "999999"],
             "run: --root 999999 out of range for 256 vertices"),
            (["--algorithm", "PR", "--partitions-per-machine", "0"],
             "run: partitions_per_machine must be >= 1"),
            (["--algorithm", "PR", "--alpha", "nan"],
             "run: steal_alpha must be a number >= 0"),
        ],
        ids=["iterations", "root", "partitions", "alpha"],
    )
    def test_bad_parameter_is_a_usage_error_before_output(
        self, capsys, extra, message
    ):
        # Graph and algorithm are built before the graph:/cluster: lines.
        assert_usage_error(
            capsys, ["run", "--scale", "8", "--machines", "2", *extra], message
        )

    @pytest.mark.parametrize("interval", ["-1", "nan", "inf", "-inf"])
    def test_bad_trace_sample_interval_is_a_usage_error(self, capsys,
                                                        interval):
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "PR", "--scale", "8",
             f"--trace-sample-interval={interval}"],
            "--trace-sample-interval must be a finite number",
        )

    @pytest.mark.parametrize("flag", ["--sanitize", "--focus-from-check"])
    def test_removed_sanitizer_flags_are_unknown(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--algorithm", "PR", "--scale", "8", flag])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""

    def test_json_output(self, capsys):
        out = self._run(capsys, "--algorithm", "PR", "--iterations", "2",
                        "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "PR"
        assert payload["machines"] == 2
        assert payload["network_bytes"] > 0
        assert "breakdown" in payload

    def test_json_output_driver(self, capsys):
        out = self._run(capsys, "--algorithm", "SCC", "--json")
        payload = json.loads(out)
        assert payload["algorithm"] == "SCC"
        assert payload["rounds"] >= 1


class TestInjectFault:
    def _run(self, capsys, *extra):
        code = main(
            [
                "run", "--algorithm", "PR", "--scale", "8",
                "--machines", "4", "--chunk-kb", "4", "--checkpoint",
                *extra,
            ]
        )
        out = capsys.readouterr().out
        return code, out

    def test_crash_with_verification(self, capsys):
        code, out = self._run(
            capsys, "--inject-fault", "crash:1@iter=2", "--verify-recovery"
        )
        assert code == 0
        assert "fault timeline" in out
        assert "recoveries: 1" in out
        assert "final values identical to undisturbed run" in out

    def test_multiple_faults(self, capsys):
        code, out = self._run(
            capsys,
            "--inject-fault", "crash-restart:1@iter=1,down=0.01",
            "--inject-fault", "partition:2@iter=3,for=0.05",
        )
        assert code == 0
        assert "faults injected: 2" in out

    def test_bad_spec_rejected(self, capsys):
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "PR", "--scale", "8",
             "--inject-fault", "nope:1@iter=2"],
            "bad --inject-fault",
        )

    def test_non_finite_trigger_rejected(self, capsys):
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "PR", "--machines", "2", "--scale", "8",
             "--checkpoint", "--inject-fault", "crash:1@t=nan"],
            "non-finite t= value",
        )

    def test_driver_algorithms_rejected(self, capsys):
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "MCST", "--scale", "8",
             "--inject-fault", "crash:1@iter=2"],
            "--inject-fault does not support MCST",
        )

    def test_verify_requires_inject(self, capsys):
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "PR", "--scale", "8",
             "--verify-recovery"],
            "--verify-recovery requires --inject-fault",
        )


class TestTrace:
    def _run_traced(self, capsys, trace_path, *extra):
        code = main(
            [
                "run",
                "--algorithm",
                "PR",
                "--iterations",
                "3",
                "--scale",
                "8",
                "--machines",
                "2",
                "--chunk-kb",
                "4",
                "--trace",
                trace_path,
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_trace_file_is_valid_and_deterministic(self, tmp_path, capsys):
        path_a = str(tmp_path / "a.json")
        path_b = str(tmp_path / "b.json")
        self._run_traced(capsys, path_a)
        self._run_traced(capsys, path_b)
        bytes_a = open(path_a, "rb").read()
        bytes_b = open(path_b, "rb").read()
        assert bytes_a == bytes_b
        trace = json.loads(bytes_a)
        events = trace["traceEvents"]
        assert events
        data = [e for e in events if e["ph"] != "M"]
        assert all("ts" in e and "pid" in e and "tid" in e and "name" in e
                   for e in data)

    def test_trace_report(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        self._run_traced(capsys, path)
        assert main(["trace-report", path]) == 0
        out = capsys.readouterr().out
        assert "per-device utilization" in out
        assert "breakdown categories" in out
        assert "top spans" in out

    def test_trace_csv(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        csv = str(tmp_path / "t.csv")
        self._run_traced(capsys, trace, "--trace-csv", csv)
        lines = open(csv).read().splitlines()
        assert lines[0] == "series,ts,value"
        assert len(lines) > 1

    def test_trace_report_rejects_missing_file(self, tmp_path, capsys):
        assert_usage_error(
            capsys, ["trace-report", str(tmp_path / "nope.json")],
            "cannot read trace",
        )

    @pytest.mark.parametrize("text", ["5", "null", '{"traceEvents": 3}'])
    @pytest.mark.parametrize(
        "verb", [["trace-report"], ["trace", "query"], ["trace", "conform"]]
    )
    def test_malformed_trace_is_a_usage_error(self, tmp_path, capsys, verb,
                                              text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        extra = ["--slowest-chains"] if verb[-1] == "query" else []
        assert_usage_error(
            capsys, [*verb, str(path), *extra], "not a Chrome trace"
        )

    @pytest.mark.parametrize(
        "argv",
        [["trace-report", "--top", "-1"],
         ["trace", "query", "--where", "kind=msg", "--limit", "-1"],
         ["trace", "query", "--slowest-chains", "-2"]],
    )
    def test_negative_counts_are_rejected(self, tmp_path, capsys, argv):
        path = str(tmp_path / "t.json")
        self._run_traced(capsys, path)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv[:-2], path, *argv[-2:]])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert "expected a whole number >= 0" in captured.err
        assert captured.out == ""


class TestHostProfile:
    def _run_profiled(self, capsys, *extra):
        code = main(
            [
                "run",
                "--algorithm",
                "PR",
                "--iterations",
                "3",
                "--scale",
                "8",
                "--machines",
                "2",
                "--chunk-kb",
                "4",
                "--host-profile",
                *extra,
            ]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_prints_host_report(self, capsys):
        out = self._run_profiled(capsys)
        assert "host profile: region" in out
        assert "hottest host phases by CPU time" in out
        assert "edges/sec" in out

    def test_export_files_are_written_and_valid(self, tmp_path, capsys):
        from repro.obs.host import (
            check_host_schema,
            parse_collapsed_stack,
            validate_prometheus,
        )

        hj = str(tmp_path / "h.json")
        hf = str(tmp_path / "h.folded")
        hp = str(tmp_path / "h.prom")
        out = self._run_profiled(
            capsys, "--host-json", hj, "--host-flamegraph", hf,
            "--host-prometheus", hp,
        )
        assert "host metrics:" in out
        doc = json.load(open(hj))
        assert check_host_schema(doc) == []
        assert parse_collapsed_stack(open(hf).read())
        assert validate_prometheus(open(hp).read()) == []

    def test_trace_embeds_host_metrics(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        self._run_profiled(capsys, "--trace", path)
        trace = json.load(open(path))
        assert trace["traceEvents"]
        assert trace["hostMetrics"]["host_schema_version"] == 1
        assert trace["hostMetrics"]["phases"]

    def test_trace_report_shows_skew_table(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        self._run_profiled(capsys, "--trace", path)
        assert main(["trace-report", path]) == 0
        out = capsys.readouterr().out
        assert "hottest host phases by CPU time" in out
        assert "sim span" in out and "skew" in out
        assert "merge_apply" in out  # apply's sim-time counterpart

    def test_trace_report_top_caps_host_rows(self, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        self._run_profiled(capsys, "--trace", path)
        assert main(["trace-report", path, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "hottest host phases by CPU time (top 2)" in out

    def test_trace_without_host_profile_has_no_host_key(self, tmp_path,
                                                        capsys):
        path = str(tmp_path / "t.json")
        code = main(
            ["run", "--algorithm", "PR", "--iterations", "1", "--scale",
             "8", "--machines", "2", "--chunk-kb", "4", "--trace", path]
        )
        assert code == 0
        capsys.readouterr()
        assert "hostMetrics" not in json.load(open(path))

    def test_json_output_carries_host_document(self, capsys):
        out = self._run_profiled(capsys, "--json")
        payload = json.loads(out)
        assert payload["host"]["phases"]
        assert payload["host"]["region"]["wall_seconds"] > 0

    def test_tracemalloc_mode(self, capsys):
        code = main(
            ["run", "--algorithm", "PR", "--iterations", "1", "--scale",
             "8", "--machines", "2", "--chunk-kb", "4",
             "--host-profile=tracemalloc", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["host"]["tracemalloc"] is True
        assert all("alloc_bytes" in p for p in payload["host"]["phases"])

    def test_export_flags_require_host_profile(self, tmp_path, capsys):
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "PR", "--scale", "8", "--machines",
             "2", "--host-json", str(tmp_path / "h.json")],
            "require --host-profile",
        )

    def test_driver_algorithms_rejected(self, capsys):
        assert_usage_error(
            capsys,
            ["run", "--algorithm", "MCST", "--scale", "8",
             "--machines", "2", "--host-profile"],
            "multi-run driver",
        )


class TestCapacity:
    def test_small_projection(self, capsys):
        code = main(
            [
                "capacity",
                "--algorithm",
                "PR",
                "--scale",
                "20",
                "--machines",
                "4",
                "--iterations",
                "2",
                "--chunk-mb",
                "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PR:" in out and "TB I/O" in out

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--algorithm", "PR", "--iterations", "0"],
             "capacity: iterations must be >= 1"),
            (["--machines", "0"], "capacity: machines must be >= 1"),
        ],
        ids=["iterations", "machines"],
    )
    def test_bad_parameter_is_a_usage_error(self, capsys, extra, message):
        assert_usage_error(capsys, ["capacity", *extra], message)


class TestFuzzUsage:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--max-specs", "0"], "fuzz: max_specs must be >= 1"),
            (["--machines", "0"], "fuzz: machines must be >= 1"),
            (["--iterations", "0"], "fuzz: iterations must be >= 1"),
        ],
        ids=["max-specs", "machines", "iterations"],
    )
    def test_bad_parameter_is_a_usage_error(self, capsys, extra, message):
        assert_usage_error(capsys, ["fuzz", *extra], message)

    @pytest.mark.parametrize("flag", ["--episodes", "--max-specs"])
    def test_negative_count_is_rejected_at_parse_time(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", flag, "-1"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert f"argument {flag}: expected a whole number >= 0" in captured.err


@pytest.mark.parametrize("command", ["generate", "run", "capacity", "fuzz"])
def test_negative_scale_is_rejected_at_parse_time(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--scale", "-3"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "argument --scale: expected a whole number >= 0, got '-3'" in (
        captured.err
    )


class TestUtilization:
    def test_table_matches_formula(self, capsys):
        assert main(["utilization"]) == 0
        out = capsys.readouterr().out
        assert "0.9956" in out  # rho(32, 5), the paper's 99.56%
        assert "0.9933" in out  # the k=5 limit, the paper's 99.3%
