"""Tests for benchmark snapshots and the regression gate (repro.obs.bench).

Scenario execution is exercised once on a small custom scenario (the
tracked defaults run at CI scale); the comparison semantics — which
carry the gate — are tested exhaustively on synthetic snapshots.
"""

import json

import pytest

from repro.cli import main
from repro.obs import bench
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchScenario,
    METRIC_POLICIES,
    compare_snapshots,
    load_snapshot,
    run_scenario,
    run_scenarios,
    scenario_names,
    snapshot_path,
    write_snapshot,
)


def _tiny_scenario(**overrides):
    def build():
        from repro.algorithms import PageRank
        from repro.graph import rmat_graph

        return PageRank(iterations=2), rmat_graph(8, seed=1)

    defaults = dict(
        name="tiny_pr",
        description="PageRank x2, RMAT-8, test-only",
        workload=build,
        machines=2,
        chunk_bytes=2048,
    )
    defaults.update(overrides)
    return BenchScenario(**defaults)


def _snapshot(**scenario_fields):
    record = {
        "description": "synthetic",
        "machines": 2,
        "runtime": 1.0,
        "storage_bytes": 1000,
        "network_bytes": 500,
        "bytes_moved": 1500,
        "aggregate_bandwidth": 1500.0,
        "checkpoint_seconds": 0.1,
        "closure_error": 0.0,
        "bottleneck": "storage",
    }
    record.update(scenario_fields)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": "test",
        "scenarios": {"s1": record},
    }


class TestScenarioExecution:
    def test_run_scenario_record_shape(self):
        record = run_scenario(_tiny_scenario())
        assert record["machines"] == 2
        assert record["runtime"] > 0
        assert record["bytes_moved"] == (
            record["storage_bytes"] + record["network_bytes"]
        )
        assert record["aggregate_bandwidth"] > 0
        assert set(record["attribution"]) == {
            "storage_busy",
            "storage_queue",
            "nic_busy",
            "net_wait",
            "cpu",
            "barrier",
            "steal",
            "recovery",
        }
        assert record["bottleneck"] in ("storage", "network", "cpu")
        assert record["closure_error"] <= bench.CLOSURE_LIMIT

    def test_run_scenario_is_deterministic(self):
        first = run_scenario(_tiny_scenario())
        second = run_scenario(_tiny_scenario())
        assert first == second

    def test_unknown_scenario_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenarios(["nope"])

    def test_default_scenario_names_are_unique(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        assert "pr_m2" in names and "pr_ckpt_fault" in names


class TestSnapshotIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        snapshot = _snapshot()
        path = str(tmp_path / "BENCH_test.json")
        write_snapshot(snapshot, path)
        assert load_snapshot(path) == snapshot
        # Deterministic serialization: sorted keys, trailing newline.
        text = open(path).read()
        assert text == json.dumps(snapshot, sort_keys=True, indent=2) + "\n"

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = str(tmp_path / "other.json")
        path_obj = tmp_path / "other.json"
        path_obj.write_text('{"not": "a snapshot"}')
        with pytest.raises(ValueError, match="not a bench snapshot"):
            load_snapshot(path)

    def test_snapshot_path_label(self, tmp_path):
        assert snapshot_path("ci", root=str(tmp_path)) == str(
            tmp_path / "BENCH_ci.json"
        )


class TestCompare:
    def test_identical_snapshots_pass(self):
        comparison = compare_snapshots(_snapshot(), _snapshot())
        assert comparison.ok
        assert not comparison.regressions
        assert not comparison.improvements

    def test_runtime_regression_beyond_tolerance(self):
        comparison = compare_snapshots(_snapshot(), _snapshot(runtime=1.10))
        assert not comparison.ok
        assert any("runtime" in r for r in comparison.regressions)

    def test_within_tolerance_is_quiet(self):
        comparison = compare_snapshots(_snapshot(), _snapshot(runtime=1.04))
        assert comparison.ok

    def test_runtime_improvement_reported(self):
        comparison = compare_snapshots(_snapshot(), _snapshot(runtime=0.80))
        assert comparison.ok
        assert any("runtime" in line for line in comparison.improvements)

    def test_bandwidth_regresses_downward(self):
        comparison = compare_snapshots(
            _snapshot(), _snapshot(aggregate_bandwidth=1200.0)
        )
        assert any(
            "aggregate_bandwidth" in r for r in comparison.regressions
        )

    def test_missing_scenario_is_regression(self):
        new = _snapshot()
        new["scenarios"] = {}
        comparison = compare_snapshots(_snapshot(), new)
        assert any("missing" in r for r in comparison.regressions)

    def test_new_scenario_is_note(self):
        new = _snapshot()
        new["scenarios"]["s2"] = dict(new["scenarios"]["s1"])
        comparison = compare_snapshots(_snapshot(), new)
        assert comparison.ok
        assert any("new scenario" in n for n in comparison.notes)

    def test_bottleneck_flip_is_note(self):
        comparison = compare_snapshots(
            _snapshot(), _snapshot(bottleneck="network")
        )
        assert comparison.ok
        assert any("bottleneck" in n for n in comparison.notes)

    def test_broken_closure_is_regression(self):
        comparison = compare_snapshots(
            _snapshot(), _snapshot(closure_error=1e-3)
        )
        assert any("closure" in r for r in comparison.regressions)

    def test_schema_mismatch_raises(self):
        new = _snapshot()
        new["schema_version"] = BENCH_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema mismatch"):
            compare_snapshots(_snapshot(), new)

    def test_v1_baseline_compares_against_v2(self):
        # The one sanctioned upgrade pair: v1 snapshots predate the host
        # metrics, so a v1-vs-v2 diff notes the upgrade and skips them.
        base = _snapshot()
        base["schema_version"] = 1
        new = _snapshot(host_wall_seconds=0.5, host_cpu_seconds=0.4,
                        edges_per_sec=1e6)
        comparison = compare_snapshots(base, new)
        assert comparison.ok
        assert any("schema upgrade" in n for n in comparison.notes)

    def test_reverse_schema_pair_still_raises(self):
        base = _snapshot()
        new = _snapshot()
        new["schema_version"] = 1
        with pytest.raises(ValueError, match="schema mismatch"):
            compare_snapshots(base, new)

    def test_host_keys_of_old_snapshots_are_ignored(self):
        # Snapshots written before PR 23 carry host readings (and maybe
        # a host_tolerances map); they load and gate nothing.
        base = _snapshot(host_wall_seconds=0.1, edges_per_sec=1e6)
        base["host_tolerances"] = {"host_wall_seconds": 0.5}
        new = _snapshot(host_wall_seconds=0.5, edges_per_sec=1e5)
        comparison = compare_snapshots(base, new)
        assert comparison.ok
        assert comparison.notes == [] and comparison.improvements == []

    def test_tolerance_override(self):
        base, new = _snapshot(), _snapshot(runtime=1.04)
        assert compare_snapshots(base, new).ok
        tight = compare_snapshots(base, new, tolerances={"runtime": 0.01})
        assert not tight.ok

    def test_every_policy_metric_has_direction_and_tolerance(self):
        for metric, (direction, tolerance) in METRIC_POLICIES.items():
            assert direction in ("higher_is_worse", "lower_is_worse"), metric
            assert 0 < tolerance < 1, metric


class TestBenchCli:
    def test_list_names_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_compare_pass_and_fail_exit_codes(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        good = str(tmp_path / "good.json")
        bad = str(tmp_path / "bad.json")
        write_snapshot(_snapshot(), base)
        write_snapshot(_snapshot(), good)
        write_snapshot(_snapshot(runtime=2.0), bad)

        assert main(["bench", "--compare", base, good]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["bench", "--compare", base, bad]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "FAIL" in out

    def test_compare_missing_file_exits_2(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        write_snapshot(_snapshot(), base)
        code = main(["bench", "--compare", base, str(tmp_path / "no.json")])
        assert code == 2
        assert "bench compare error" in capsys.readouterr().err

    def test_compare_tolerance_override_flag(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        new = str(tmp_path / "new.json")
        write_snapshot(_snapshot(), base)
        write_snapshot(_snapshot(runtime=1.04), new)
        assert main(["bench", "--compare", base, new]) == 0
        capsys.readouterr()
        code = main(
            ["bench", "--compare", base, new, "--tolerance", "runtime=0.01"]
        )
        assert code == 1

    def test_unknown_tolerance_metric_rejected(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        write_snapshot(_snapshot(), base)
        code = main(
            ["bench", "--compare", base, base, "--tolerance", "bogus=0.1"]
        )
        assert code == 2
        assert "unknown metric 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # exit 1 means "regression"; bad input is always 2
            (["--compare", "BASE", "BASE", "--tolerance", "runtime=abc"],
             "bad --tolerance value"),
            # NaN would make every `delta > tolerance` false: no gate
            (["--compare", "BASE", "BASE", "--tolerance", "runtime=nan"],
             "bad --tolerance value"),
            (["--compare", "BASE", "BASE", "--tolerance", "runtime=inf"],
             "bad --tolerance value"),
            (["--compare", "BASE", "BASE", "--tolerance", "runtime=-0.1"],
             "bad --tolerance value"),
            (["--tolerance", "runtime=0.1"], "only applies with --compare"),
            (["--compare", "BASE", "BASE", "--label", "x", "--out", "y"],
             "--label, --out only applies when running"),
            (["--scenario", "nope"], "unknown scenario"),
        ],
    )
    def test_usage_errors_exit_2(self, tmp_path, capsys, argv, message):
        base = str(tmp_path / "base.json")
        write_snapshot(_snapshot(), base)
        argv = [base if arg == "BASE" else arg for arg in argv]
        assert main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_run_writes_snapshot(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_t.json")
        code = main(
            [
                "bench",
                "--label",
                "t",
                "--scenario",
                "pr_ckpt_fault",
                "--out",
                out,
            ]
        )
        assert code == 0
        snapshot = load_snapshot(out)
        assert snapshot["label"] == "t"
        assert list(snapshot["scenarios"]) == ["pr_ckpt_fault"]
        record = snapshot["scenarios"]["pr_ckpt_fault"]
        assert record["checkpoints"] > 0
        assert record["attribution"]["recovery"] > 0
        assert "wrote 1 scenario(s)" in capsys.readouterr().out


class TestCommittedBaseline:
    """The CI gate's committed baseline must stay a valid snapshot."""

    def test_baseline_loads_and_tracks_all_scenarios(self):
        import os

        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks",
            "results",
            "baseline.json",
        )
        baseline = load_snapshot(path)
        assert baseline["schema_version"] == BENCH_SCHEMA_VERSION
        assert sorted(baseline["scenarios"]) == sorted(scenario_names())
        for name, record in baseline["scenarios"].items():
            assert record["closure_error"] <= bench.CLOSURE_LIMIT, name
            # Simulated metrics only: nothing host-measured is committed.
            assert not [k for k in record if "host" in k or k == "edges_per_sec"]
