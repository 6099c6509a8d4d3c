"""Host-side profiling (:mod:`repro.obs.host` / :mod:`repro.obs.hostclock`).

Covers the metrics accounting and the depth-0 region invariant, the
three exporters (collapsed-stack, Prometheus, JSON schema) round-trip,
the report formatting, the hostclock single-entry-point lint contract,
and the end-to-end properties the ``--host-profile`` flag promises: it
never changes simulation results, and the per-phase host wall times sum
to the profiled region total.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import PageRank
from repro.core.gas import GAS_PHASES
from repro.core.runtime import run_algorithm
from repro.graph.rmat import rmat_graph
from repro.obs.log import NullObserver
from repro.obs.host import (
    ENGINE_PHASES,
    GAS_HOST_PHASES,
    HostProfiler,
    check_host_schema,
    format_host_report,
    host_skew,
    parse_collapsed_stack,
    to_collapsed_stack,
    to_prometheus,
    validate_prometheus,
)

def profiled_run(machines=4, scale=8, iterations=3, **kwargs):
    graph = rmat_graph(scale, seed=7)
    profiler = HostProfiler(**kwargs)
    result = run_algorithm(
        PageRank(iterations=iterations), graph, machines=machines,
        host=profiler,
    )
    return result, profiler.finalize().to_dict()


def _row(machine, phase, iteration, wall_ns, cpu_ns, records=0,
         top_level=True):
    """One ``h`` row of a profiler's event log (no allocation delta)."""
    return ("h", machine, phase, iteration, records, wall_ns, cpu_ns, 0,
            top_level)


def _doc(*rows):
    """The metrics document of a profiler whose log holds ``rows``."""
    profiler = HostProfiler()
    profiler.log.rows.extend(rows)
    return profiler.to_dict()


# ---------------------------------------------------------------------------
# Metrics accounting


class TestRegistry:
    def test_record_accumulates_per_key(self):
        doc = _doc(
            _row(0, "scatter", 1, wall_ns=1000, cpu_ns=800, records=10),
            _row(0, "scatter", 1, wall_ns=500, cpu_ns=400, records=5),
            _row(1, "scatter", 1, wall_ns=200, cpu_ns=100),
        )
        entries = {
            (p["machine"], p["phase"], p["iteration"]): p
            for p in doc["phases"]
        }
        entry = entries[(0, "scatter", 1)]
        assert entry["wall_seconds"] == pytest.approx(1.5e-6)
        assert entry["cpu_seconds"] == pytest.approx(1.2e-6)
        assert entry["calls"] == 2
        assert entry["records"] == 15
        assert entries[(1, "scatter", 1)]["calls"] == 1

    def test_top_level_intervals_feed_the_region(self):
        doc = _doc(
            _row(0, "scatter", 0, wall_ns=1000, cpu_ns=900),
            _row(0, "gather", 0, wall_ns=300, cpu_ns=200, top_level=False),
        )
        assert doc["region"]["wall_seconds"] == pytest.approx(1e-6)
        assert doc["region"]["intervals"] == 1
        # The nested interval still shows up in its phase entry.
        assert doc["totals"]["by_phase"]["gather"]["calls"] == 1

    def test_nested_measurements_do_not_double_count(self):
        profiler = HostProfiler()
        with profiler.measure(0, "scatter", 0):
            with profiler.measure(0, "gather", 0):
                pass
        doc = profiler.finalize().to_dict()
        scatter = doc["totals"]["by_phase"]["scatter"]["wall_seconds"]
        assert doc["region"]["intervals"] == 1
        assert doc["region"]["wall_seconds"] == pytest.approx(
            scatter, rel=1e-9
        )

    def test_edges_per_sec_from_scatter_records(self):
        doc = _doc(
            _row(0, "scatter", 0, wall_ns=2_000_000_000,
                 cpu_ns=1_000_000_000, records=1000),
        )
        assert doc["totals"]["edges"] == 1000
        assert doc["totals"]["edges_per_sec"] == pytest.approx(500.0)
        assert doc["iterations"][0]["edges_per_sec"] == pytest.approx(500.0)


# ---------------------------------------------------------------------------
# Profiler plumbing


class TestProfiler:
    def test_null_profiler_is_free_and_disabled(self):
        null = NullObserver()
        assert not null.enabled
        with null.measure(0, "scatter"):
            pass
        null.set_iteration(3)
        assert null.finalize() is None

    def test_measure_defaults_iteration_to_current(self):
        profiler = HostProfiler()
        profiler.set_iteration(5)
        with profiler.measure(2, "deserialize"):
            pass
        doc = profiler.finalize().to_dict()
        assert doc["phases"][0]["iteration"] == 5

    def test_phase_names_cover_the_instrumented_sites(self):
        assert set(GAS_HOST_PHASES) <= set(ENGINE_PHASES)
        assert {"serialize", "deserialize", "msg_copy"} <= set(ENGINE_PHASES)

    def test_gas_phase_table_pins_to_the_kernel(self):
        # repro.core.gas.GAS_PHASES and the profiler's phase names must
        # stay in lockstep: the report maps one onto the other.
        assert GAS_PHASES == GAS_HOST_PHASES


# ---------------------------------------------------------------------------
# Exporters


class TestExporters:
    def test_collapsed_stack_round_trips(self):
        doc = _doc(
            _row(0, "scatter", 0, wall_ns=1_500_000, cpu_ns=1_000),
            _row(1, "msg_copy", 2, wall_ns=2_000_000, cpu_ns=500),
        )
        text = to_collapsed_stack(doc)
        assert text.endswith("\n")
        parsed = parse_collapsed_stack(text)
        assert parsed[(0, "scatter", 0)] == 1500  # integer microseconds
        assert parsed[(1, "msg_copy", 2)] == 2000

    def test_collapsed_stack_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_collapsed_stack("machine0;scatter 12\n")  # missing frame
        with pytest.raises(ValueError):
            parse_collapsed_stack("m0;scatter;iter0 12\n")  # bad prefix

    def test_prometheus_output_validates(self):
        _, doc = profiled_run()
        text = to_prometheus(doc)
        assert validate_prometheus(text) == []
        assert "# TYPE chaos_host_phase_wall_seconds counter" in text
        assert 'phase="scatter"' in text

    def test_prometheus_validator_catches_breakage(self):
        assert validate_prometheus("chaos_host_x{bad-label=\"1\"} 2\n")
        # A sample whose family was never declared with # TYPE.
        errors = validate_prometheus('undeclared_metric{a="1"} 3\n')
        assert any("TYPE" in e for e in errors)

    def test_json_schema_checks_a_real_run(self):
        _, doc = profiled_run()
        assert check_host_schema(doc) == []
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable

    def test_json_schema_rejects_missing_and_mistyped_keys(self):
        _, doc = profiled_run(machines=2, scale=7, iterations=1)
        broken = dict(doc)
        del broken["region"]
        assert check_host_schema(broken)
        mistyped = json.loads(json.dumps(doc))
        mistyped["phases"][0]["machine"] = "zero"
        assert check_host_schema(mistyped)
        wrong_version = dict(doc)
        wrong_version["host_schema_version"] = 999
        assert check_host_schema(wrong_version)


# ---------------------------------------------------------------------------
# Report formatting


class TestReport:
    def test_report_lists_hottest_phases_with_skew(self):
        _, doc = profiled_run()
        report = format_host_report(
            doc,
            host_skew(doc, {"scatter": 0.5, "gather": 0.3, "merge_apply": 0.2}),
        )
        assert "hottest host phases by CPU time" in report
        assert "scatter" in report and "msg_copy" in report
        assert "skew" in report
        assert "per-iteration host throughput" in report

    def test_report_top_limits_rows(self):
        _, doc = profiled_run()
        report = format_host_report(doc, top=2)
        assert "top 2" in report
        lines = report.splitlines()
        start = next(
            i for i, line in enumerate(lines) if "hottest" in line
        )
        rows = []
        for line in lines[start + 2:]:  # skip the column header
            if not line.strip() or line.lstrip().startswith("("):
                break
            rows.append(line)
        assert len(rows) == 2

    def test_report_without_sim_spans_dashes_the_columns(self):
        _, doc = profiled_run(machines=2, scale=7, iterations=1)
        report = format_host_report(doc)
        assert "-" in report


# ---------------------------------------------------------------------------
# End-to-end invariants (the acceptance criteria)


class TestEndToEnd:
    def test_phase_walls_sum_to_region_within_5_percent(self):
        # The ISSUE acceptance bar, on the tracked m=4 PR scenario shape:
        # every measured site is a leaf, so the per-phase host wall times
        # must account for the whole profiled region.
        _, doc = profiled_run(machines=4)
        region = doc["region"]["wall_seconds"]
        phase_sum = sum(p["wall_seconds"] for p in doc["phases"])
        assert region > 0
        assert phase_sum == pytest.approx(region, rel=0.05)

    def test_profiling_leaves_results_byte_identical(self):
        graph = rmat_graph(8, seed=7)
        plain = run_algorithm(PageRank(iterations=3), graph, machines=4)
        profiled, _ = profiled_run()
        assert set(plain.values) == set(profiled.values)
        for name in plain.values:
            assert np.array_equal(plain.values[name], profiled.values[name])
        assert plain.runtime == profiled.runtime
        assert plain.iterations == profiled.iterations

    def test_all_machines_and_phases_show_up(self):
        _, doc = profiled_run(machines=4)
        machines = {p["machine"] for p in doc["phases"]}
        phases = {p["phase"] for p in doc["phases"]}
        assert machines == {0, 1, 2, 3}
        assert {"scatter", "gather", "apply", "serialize",
                "deserialize", "msg_copy"} <= phases

    def test_iteration_attribution_matches_run_length(self):
        _, doc = profiled_run(iterations=3)
        scatter_iters = {
            p["iteration"] for p in doc["phases"] if p["phase"] == "scatter"
        }
        assert scatter_iters == {0, 1, 2}

    def test_tracemalloc_mode_records_allocation_deltas(self):
        _, doc = profiled_run(machines=2, scale=7, iterations=1,
                              trace_allocations=True)
        assert doc["tracemalloc"] is True
        assert all("alloc_bytes" in p for p in doc["phases"])
        assert check_host_schema(doc) == []


# ---------------------------------------------------------------------------
# hostclock: the single sanctioned wall-clock entry point


class TestHostclockContract:
    def test_hostclock_is_the_only_sim_module_importing_time(self):
        # The sim packages are ordered by the simulated clock, and host
        # code must not launder a clock reading into them: real clocks
        # live in exactly one module of the package, repro/obs/hostclock.py.
        source_root = Path(repro.__file__).parent
        offenders = []
        for path in sorted(source_root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                imports_time = (
                    isinstance(node, ast.Import)
                    and any(a.name == "time" or
                            a.name.startswith("time.")
                            for a in node.names)
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "time"
                )
                if imports_time:
                    offenders.append(str(path))
        assert offenders == [
            str(source_root / "obs" / "hostclock.py")
        ]

    def test_hostclock_reads_monotonic_and_cpu_clocks(self):
        from repro.obs import hostclock

        w0, c0 = hostclock.wall_ns(), hostclock.cpu_ns()
        total = sum(range(10_000))
        w1, c1 = hostclock.wall_ns(), hostclock.cpu_ns()
        assert total == 49995000
        assert w1 >= w0  # perf_counter is monotonic
        assert c1 >= c0

    def test_allocation_tracing_toggles(self):
        from repro.obs import hostclock

        assert hostclock.allocated_bytes() == 0  # inactive -> 0
        hostclock.start_allocation_tracing()
        try:
            assert hostclock.allocation_tracing_active()
            blob = [0] * 1000
            assert hostclock.allocated_bytes() > 0
            del blob
        finally:
            hostclock.stop_allocation_tracing()
        assert not hostclock.allocation_tracing_active()


# ---------------------------------------------------------------------------
# The ``job`` keys that say which run a metrics document describes


class TestHostJobKeys:
    @staticmethod
    def _doc(machines=2):
        profiler = HostProfiler()
        run_algorithm(
            PageRank(iterations=4), rmat_graph(7, seed=7), machines=machines,
            host=profiler,
        )
        profiler.finalize().job = {
            "algorithm": "PR",
            "cli_name": "PR",
            "machines": machines,
            "seed": 0,
        }
        return profiler.to_dict()

    def test_job_keys_survive_to_dict_and_schema(self):
        doc = self._doc(machines=2)
        assert doc["job"] == {
            "algorithm": "PR", "cli_name": "PR", "machines": 2, "seed": 0,
        }
        assert check_host_schema(doc) == []

    def test_schema_rejects_malformed_job(self):
        doc = self._doc()
        doc["job"] = {"algorithm": 7}
        assert check_host_schema(doc)
