"""Host-side profiling (:mod:`repro.obs.host` / :mod:`repro.obs.hostclock`).

Covers the metrics accounting, the three exporters (collapsed-stack,
Prometheus, JSON schema) round-trip, the report formatting, the
hostclock single-entry-point lint contract, the outside-in contract
(the engines do not know the profiler exists), the keys a profiled run
produces on three fixed jobs, and the end-to-end properties the
``--host-profile`` flag promises: it never changes simulation results,
and the per-phase host wall times sum to the profiled region total.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import PageRank
from repro.core.config import ClusterConfig
from repro.core.gas import GAS_PHASES
from repro.core.runtime import ChaosCluster, run_algorithm
from repro.faults import FaultPlan
from repro.graph.rmat import rmat_graph
from repro.obs.host import (
    ENGINE_PHASES,
    GAS_HOST_PHASES,
    TIMED,
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


def _row(machine, phase, iteration, wall_ns, cpu_ns, records=0):
    """One ``h`` row of a profiler's event log (no allocation delta)."""
    return ("h", machine, phase, iteration, records, wall_ns, cpu_ns, 0)


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

    def test_every_interval_feeds_the_region(self):
        # Timed calls are leaves: the region is the sum of all of them.
        doc = _doc(
            _row(0, "scatter", 0, wall_ns=1000, cpu_ns=900),
            _row(1, "gather", 0, wall_ns=300, cpu_ns=200),
        )
        assert doc["region"]["wall_seconds"] == pytest.approx(1.3e-6)
        assert doc["region"]["cpu_seconds"] == pytest.approx(1.1e-6)
        assert doc["region"]["intervals"] == 2

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
    def test_phase_names_cover_the_instrumented_sites(self):
        assert set(GAS_HOST_PHASES) <= set(ENGINE_PHASES)
        assert {phase for _owner, _attr, phase, _rec in TIMED} == set(
            ENGINE_PHASES
        )
        assert set(ENGINE_PHASES) == {
            "scatter", "gather", "apply", "serialize", "deserialize"
        }

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
            _row(1, "deserialize", 2, wall_ns=2_000_000, cpu_ns=500),
        )
        text = to_collapsed_stack(doc)
        assert text.endswith("\n")
        parsed = parse_collapsed_stack(text)
        assert parsed[(0, "scatter", 0)] == 1500  # integer microseconds
        assert parsed[(1, "deserialize", 2)] == 2000

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
        assert "scatter" in report and "deserialize" in report
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
        assert phases == set(ENGINE_PHASES)

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


class TestOutsideInContract:
    """The profiler times the engines from outside: no engine package
    imports it, takes a ``host`` parameter or keeps a ``_host``."""

    ENGINE_PACKAGES = ("core", "store", "net", "sim")

    @staticmethod
    def _offences(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("repro.obs.host"):
                        yield f"import {alias.name}"
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if (node.module or "").startswith("repro.obs.host") or (
                    node.module == "repro.obs" and "host" in names
                ):
                    yield f"from {node.module} import {sorted(names)}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in (arguments.posonlyargs + arguments.args
                            + arguments.kwonlyargs):
                    if arg.arg == "host":
                        yield f"{node.name}(host=...)"
            elif isinstance(node, ast.Attribute) and node.attr == "_host":
                yield "._host"

    def test_engine_packages_do_not_know_the_profiler(self):
        source_root = Path(repro.__file__).parent
        offenders = []
        scanned = 0
        for package in self.ENGINE_PACKAGES:
            for path in sorted((source_root / package).rglob("*.py")):
                scanned += 1
                tree = ast.parse(path.read_text())
                offenders += [
                    f"{path.relative_to(source_root)}: {offence}"
                    for offence in self._offences(tree)
                ]
        assert scanned > 20
        # The one seam: the cluster keeps the profiler and hands it each
        # epoch's engines (``ChaosCluster.__init__``, ``run_algorithm``).
        assert sorted(offenders) == [
            "core/runtime.py: __init__(host=...)",
            "core/runtime.py: run_algorithm(host=...)",
        ]

    def test_the_scan_catches_a_hook(self):
        planted = ast.parse(
            "from repro.obs.host import HostProfiler\n"
            "class Engine:\n"
            "    def __init__(self, host=None):\n"
            "        self._host = host\n"
        )
        assert len(list(self._offences(planted))) == 3


# ---------------------------------------------------------------------------
# The keys a profiled run produces


#: The three fixed jobs: PageRank x3 on RMAT-10 (seed 1), cluster
#: fields and fault.
PINNED_JOBS = {
    "fault_free": ({"machines": 4}, None),
    "alpha_inf": ({"machines": 4, "steal_alpha": float("inf")}, None),
    "crash": ({"machines": 3, "checkpointing": True}, "crash:1@iter=2"),
}

#: ``(machine, phase) -> (calls, records)`` of iterations 0, 1 and 2,
#: taken when the engines still held start/stop hooks: timing them from
#: outside must find the same calls (``msg_copy``, which timed one
#: ``Message`` construction per send, is gone).
PINNED_KEYS = {
    "fault_free": {
        (0, "apply"): ((1, 0), (1, 0), (1, 0)),
        (0, "deserialize"): ((36, 0), (39, 0), (44, 0)),
        (0, "gather"): ((4, 9530), (4, 9530), (4, 9530)),
        (0, "scatter"): ((1, 9491), (1, 9491), (1, 9491)),
        (0, "serialize"): ((6, 9630), (10, 13760), (12, 20765)),
        (1, "apply"): ((1, 0), (1, 0), (1, 0)),
        (1, "deserialize"): ((39, 0), (37, 0), (40, 0)),
        (1, "gather"): ((4, 3014), (4, 3014), (4, 3014)),
        (1, "scatter"): ((1, 2932), (1, 2932), (1, 2932)),
        (1, "serialize"): ((7, 5346), (10, 6717), (8, 4605)),
        (2, "apply"): ((1, 0), (1, 0), (1, 0)),
        (2, "deserialize"): ((34, 0), (36, 0), (48, 0)),
        (2, "gather"): ((4, 2923), (4, 2923), (4, 2923)),
        (2, "scatter"): ((1, 3012), (1, 3012), (1, 3012)),
        (2, "serialize"): ((10, 11337), (10, 10757), (11, 6449)),
        (3, "apply"): ((1, 0), (1, 0), (1, 0)),
        (3, "deserialize"): ((41, 0), (37, 0), (26, 0)),
        (3, "gather"): ((4, 917), (4, 917), (4, 917)),
        (3, "scatter"): ((1, 949), (1, 949), (1, 949)),
        (3, "serialize"): ((13, 6455), (6, 1534), (5, 949)),
    },
    "alpha_inf": {
        (0, "apply"): ((1, 0), (1, 0), (1, 0)),
        (0, "deserialize"): ((73, 0), (79, 0), (88, 0)),
        (0, "gather"): ((4, 9530), (4, 9530), (4, 9530)),
        (0, "scatter"): ((1, 9491), (1, 9491), (1, 9491)),
        (0, "serialize"): ((11, 12830), (10, 11767), (11, 20943)),
        (1, "apply"): ((1, 0), (1, 0), (1, 0)),
        (1, "deserialize"): ((43, 0), (73, 0), (78, 0)),
        (1, "gather"): ((4, 3014), (4, 3014), (4, 3014)),
        (1, "scatter"): ((1, 2932), (1, 2932), (1, 2932)),
        (1, "serialize"): ((6, 3071), (10, 5712), (8, 4024)),
        (2, "apply"): ((1, 0), (1, 0), (1, 0)),
        (2, "deserialize"): ((64, 0), (63, 0), (65, 0)),
        (2, "gather"): ((4, 2923), (4, 2923), (4, 2923)),
        (2, "scatter"): ((1, 3012), (1, 3012), (1, 3012)),
        (2, "serialize"): ((10, 12907), (7, 6606), (8, 5322)),
        (3, "apply"): ((1, 0), (1, 0), (1, 0)),
        (3, "deserialize"): ((64, 0), (68, 0), (63, 0)),
        (3, "gather"): ((4, 917), (4, 917), (4, 917)),
        (3, "scatter"): ((1, 949), (1, 949), (1, 949)),
        (3, "serialize"): ((9, 3960), (9, 8683), (9, 2479)),
    },
    "crash": {
        (0, "apply"): ((1, 0), (1, 0), (1, 0)),
        (0, "deserialize"): ((34, 0), (24, 0), (36, 0)),
        (0, "gather"): ((3, 11648), (3, 11648), (3, 11648)),
        (0, "scatter"): ((1, 11542), (1, 11542), (1, 11542)),
        (0, "serialize"): ((5, 11814), (4, 11762), (6, 14471)),
        (1, "apply"): ((1, 0), (1, 0), (1, 0)),
        (1, "deserialize"): ((33, 0), (38, 0), (32, 0)),
        (1, "gather"): ((3, 3631), (3, 3631), (3, 3631)),
        (1, "scatter"): ((1, 3695), (1, 3695), (1, 3695)),
        (1, "serialize"): ((12, 9763), (15, 18994), (12, 5561)),
        (2, "apply"): ((1, 0), (1, 0), (1, 0)),
        (2, "deserialize"): ((35, 0), (29, 0), (43, 0)),
        (2, "gather"): ((3, 1105), (3, 1105), (3, 1105)),
        (2, "scatter"): ((1, 1147), (1, 1147), (2, 2294)),
        (2, "serialize"): ((10, 11191), (8, 2012), (9, 12736)),
    },
}

#: Cells whose calls changed, ``(job, machine, phase, iteration) ->
#: calls``.  The hooks timed a master's merges and its apply as one
#: interval; from outside each ``merge_accumulators`` call is its own,
#: so a master that merged k stealers' accumulators makes 1 + k calls.
#: Only stealing (alpha = inf here) has stealers.
CHANGED_CALLS = {
    ("alpha_inf", 0, "apply", 0): 2,
    ("alpha_inf", 0, "apply", 1): 4,
    ("alpha_inf", 0, "apply", 2): 2,
    ("alpha_inf", 1, "apply", 2): 2,
    ("alpha_inf", 3, "apply", 0): 2,
}


class TestPinnedKeys:
    @pytest.mark.parametrize("job", list(PINNED_JOBS))
    def test_keys_calls_and_records_are_pinned(self, job):
        fields, fault = PINNED_JOBS[job]
        profiler = HostProfiler()
        cluster = ChaosCluster(ClusterConfig(**fields), host=profiler)
        cluster.run(
            PageRank(iterations=3), rmat_graph(10, seed=1),
            fault_plan=FaultPlan.parse([fault]) if fault else None,
        )
        if fault:
            assert cluster.last_fault_timeline.rounds, "the crash never struck"
        measured = {
            (row["machine"], row["phase"], row["iteration"]):
                (row["calls"], row["records"])
            for row in profiler.finalize().to_dict()["phases"]
        }
        expected = {}
        for (machine, phase), cells in PINNED_KEYS[job].items():
            for iteration, (calls, records) in enumerate(cells):
                calls = CHANGED_CALLS.get((job, machine, phase, iteration), calls)
                expected[machine, phase, iteration] = (calls, records)
        assert measured == expected


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
