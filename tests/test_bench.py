"""Tests for the tracked scenarios (repro.obs.bench).

The seven tracked scenarios are recomputed and compared byte for byte
to the committed ``benchmarks/results/tracked_scenarios.txt``; a small
custom scenario checks the record shape and determinism.
"""

import ast
import os

from repro.obs import bench
from repro.obs.bench import (
    DEFAULT_SCENARIOS,
    BenchScenario,
    record_lines,
    run_scenario,
)

TABLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "results",
    "tracked_scenarios.txt",
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

    def test_default_scenario_names_are_unique(self):
        names = [s.name for s in DEFAULT_SCENARIOS]
        assert len(names) == len(set(names))
        assert "pr_m2" in names and "pr_ckpt_fault" in names


def _table_text(records):
    return "== tracked_scenarios ==\n" + "\n".join(record_lines(records)) + "\n"


def _table_problems(records, committed):
    """What keeps ``records`` from passing as the committed table."""
    problems = [
        f"{name}: closure_error {record['closure_error']!r} > CLOSURE_LIMIT"
        for name, record in sorted(records.items())
        if record["closure_error"] > bench.CLOSURE_LIMIT
    ]
    text = _table_text(records)
    if text != committed:
        fresh, pinned = text.splitlines(), committed.splitlines()
        diff = [f"missing: {line}" for line in pinned if line not in fresh]
        diff += [f"differs: {line}" for line in fresh if line not in pinned]
        problems += diff or ["table differs in line order or layout"]
    return problems


def _read_table():
    """The committed table, parsed back into nested records."""
    with open(TABLE) as handle:
        committed = handle.read()
    header, *lines = committed.splitlines()
    assert header == "== tracked_scenarios =="
    records = {}
    for line in lines:
        key, _, value = line.partition(" = ")
        *path, leaf = key.split(".")
        node = records
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = ast.literal_eval(value)
    return committed, records


class TestTrackedScenarios:
    """Every tracked simulated number equals the committed table."""

    def test_table_matches_a_fresh_run(self):
        records = {s.name: run_scenario(s) for s in DEFAULT_SCENARIOS}
        with open(TABLE) as handle:
            committed = handle.read()
        # Regenerate after an intentional change with
        # `pytest benchmarks/test_tracked_scenarios.py --benchmark-only`.
        assert _table_problems(records, committed) == []


class TestCommittedBaseline:
    """The committed table parses back and covers every scenario."""

    def test_baseline_loads_and_tracks_all_scenarios(self):
        committed, records = _read_table()
        # repr round-trips: the parsed records render the same bytes.
        assert _table_text(records) == committed
        assert sorted(records) == sorted(s.name for s in DEFAULT_SCENARIOS)
        for name, record in records.items():
            assert record["closure_error"] <= bench.CLOSURE_LIMIT, name
            # Simulated metrics only: nothing host-measured is committed.
            assert not [k for k in record if "host" in k or k == "edges_per_sec"]
        assert _table_problems(records, committed) == []


class TestCompare:
    """The exact comparison fails on any planted change to the table."""

    def test_runtime_regression_beyond_tolerance(self):
        committed, records = _read_table()
        records["pr_m2"]["runtime"] *= 1.01
        problems = _table_problems(records, committed)
        assert any(p.startswith("missing: pr_m2.runtime = ") for p in problems)
        assert any(p.startswith("differs: pr_m2.runtime = ") for p in problems)
        assert len(problems) == 2

    def test_missing_scenario_is_regression(self):
        committed, records = _read_table()
        del records["wcc_m2"]
        problems = _table_problems(records, committed)
        assert problems
        assert all(p.startswith("missing: wcc_m2.") for p in problems)
        assert len(problems) == len(
            [line for line in committed.splitlines() if line.startswith("wcc_m2.")]
        )

    def test_broken_closure_is_regression(self):
        committed, records = _read_table()
        records["sssp_m2"]["closure_error"] = 1e-3
        problems = _table_problems(records, committed)
        assert "sssp_m2: closure_error 0.001 > CLOSURE_LIMIT" in problems
