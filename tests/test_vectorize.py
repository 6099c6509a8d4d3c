"""Vectorization-readiness & parallel-safety analysis (CHX013–017).

Covers the loop dependence classifier (:mod:`repro.analysis.flow.loops`),
the process-boundary escape analysis (:mod:`repro.analysis.flow.escape`),
the five deep rules riding on them, the finding baseline ratchet, the
analyzer-version cache key, the Workload-dispatch call-graph contract,
and the fused static×profile kernel worklist (``check --kernel-report``).
"""

import ast
import json
import textwrap

import pytest

from repro.algorithms import PageRank
from repro.analysis.baseline import (
    baseline_stats,
    fingerprint,
    load_baseline,
    split_new,
    write_baseline,
)
from repro.analysis.findings import Finding
from repro.analysis.flow import (
    CallGraph,
    DeepEngine,
    ProjectIndex,
    build_call_graph,
)
from repro.analysis.flow.escape import (
    aliased_constructions,
    per_machine_classes,
    shared_mutable_globals,
    unpicklable_captures,
)
from repro.analysis.flow.kernels import (
    KERNEL_REPORT_VERSION,
    build_kernel_report,
    check_kernel_report_schema,
    format_kernel_report,
)
from repro.analysis.flow.loops import (
    ELEMENTWISE,
    SEGMENTED,
    SEQUENTIAL,
    classify_function,
    hot_functions,
    loop_infos_in,
)
from repro.cli import main
from repro.core.runtime import run_algorithm
from repro.graph.rmat import rmat_graph
from repro.obs.host import HostProfiler, check_host_schema


def build_pkg(tmp_path, files):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def deep_check(path, rules=None):
    engine = DeepEngine()
    if rules is not None:
        engine.rules = [r for r in engine.rules if r.rule_id in rules]
    return engine.check_paths([str(path)])


def findings_of(result, rule_id):
    return [f for f in result.result.findings if f.rule_id == rule_id]


def hot_func(tmp_path, body, name="scatter_chunk"):
    """Index a single hot kernel function and return its FunctionInfo."""
    build_pkg(
        tmp_path,
        {
            "core/__init__.py": "",
            "core/kern.py": body,
        },
    )
    index = ProjectIndex.build([str(tmp_path)])
    funcs = [f for f in hot_functions(index) if f.name == name]
    assert funcs, f"fixture must define a hot function named {name}"
    return funcs[0]


# ---------------------------------------------------------------------------
# loop classification
# ---------------------------------------------------------------------------


class TestLoopClassification:
    def test_elementwise_loop(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def scatter_chunk(edges, out):
                for i, e in enumerate(edges):
                    out[i] = e * 2.0
            """,
        )
        classification, infos = classify_function(func)
        assert classification == ELEMENTWISE
        assert len(infos) == 1
        assert infos[0].carried == []

    def test_accumulator_is_segmented_reduction(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def scatter_chunk(edges):
                total = 0.0
                for e in edges:
                    total += e
                return total
            """,
        )
        classification, infos = classify_function(func)
        assert classification == SEGMENTED
        assert [d.kind for d in infos[0].carried] == ["reduction"]

    def test_append_is_segmented_reduction(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def scatter_chunk(edges):
                out = []
                for e in edges:
                    out.append(e * 2.0)
                return out
            """,
        )
        classification, _infos = classify_function(func)
        assert classification == SEGMENTED

    def test_histogram_write_is_segmented_reduction(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def gather_chunk(edges, hist):
                for src, dst in edges:
                    hist[dst] += 1.0
            """,
            name="gather_chunk",
        )
        classification, _infos = classify_function(func)
        assert classification == SEGMENTED

    def test_recurrence_is_sequential(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def scatter_chunk(edges):
                state = 0.0
                out = []
                for e in edges:
                    state = state * 0.5 + e
                    out.append(state)
                return out
            """,
        )
        classification, infos = classify_function(func)
        assert classification == SEQUENTIAL
        seq = [d for d in infos[0].carried if d.kind == "sequential"]
        assert [d.name for d in seq] == ["state"]

    def test_plain_store_at_data_dependent_index_is_sequential(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def gather_chunk(edges, values):
                for src, dst in edges:
                    values[dst] = values[src]
            """,
            name="gather_chunk",
        )
        classification, _infos = classify_function(func)
        assert classification == SEQUENTIAL

    def test_loop_free_body_is_elementwise(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def apply_partition(values, accum):
                return values + accum
            """,
            name="apply_partition",
        )
        classification, infos = classify_function(func)
        assert classification == ELEMENTWISE
        assert infos == []

    def test_min_fold_is_reduction(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def gather_chunk(edges):
                best = 1e30
                for e in edges:
                    best = min(best, e)
                return best
            """,
            name="gather_chunk",
        )
        classification, _infos = classify_function(func)
        assert classification == SEGMENTED

    def test_allocation_escape_tracking(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def scatter_chunk(edges, out):
                for e in edges:
                    out.append({"edge": e})
            """,
        )
        infos = loop_infos_in(func)
        assert len(infos) == 1
        allocs = infos[0].allocations
        assert len(allocs) == 1
        assert allocs[0].escapes is True

    def test_hoistable_attribute_chain(self, tmp_path):
        func = hot_func(
            tmp_path,
            """
            def scatter_chunk(self, edges, out):
                for i, e in enumerate(edges):
                    out[i] = e * self.config.device.weight
                    if e > self.config.device.weight:
                        out[i] = 0.0
            """,
        )
        infos = loop_infos_in(func)
        chains = {h.chain: h.reads for h in infos[0].hoistable}
        assert chains == {"self.config.device.weight": 2}


# ---------------------------------------------------------------------------
# escape analysis
# ---------------------------------------------------------------------------


ESCAPE_FIXTURE = {
    "core/__init__.py": "",
    "core/machines.py": """
        def ticket_stream():
            n = 0
            while True:
                yield n
                n += 1

        class Engine:
            def __init__(self, machine, network):
                self.machine = machine
                self.network = network
                self.on_done = lambda: machine
                self.tickets = ticket_stream()

        def build(count, network):
            return [Engine(m, network) for m in range(count)]
    """,
}


class TestEscapeAnalysis:
    def _index(self, tmp_path, files):
        build_pkg(tmp_path, files)
        index = ProjectIndex.build([str(tmp_path)])
        return index, CallGraph.build(index)

    def test_per_machine_classes_need_machine_param(self, tmp_path):
        index, _graph = self._index(tmp_path, ESCAPE_FIXTURE)
        assert list(per_machine_classes(index)) == ["core.machines.Engine"]

    def test_unpicklable_captures(self, tmp_path):
        index, _graph = self._index(tmp_path, ESCAPE_FIXTURE)
        captures = unpicklable_captures(index)
        assert [(c.attr, c.reason.split(" (")[0]) for c in captures] == [
            ("on_done", "a lambda"),
            ("tickets", "a running generator"),
        ]

    def test_aliased_construction_names_shared_args(self, tmp_path):
        index, graph = self._index(tmp_path, ESCAPE_FIXTURE)
        sites = aliased_constructions(index, graph)
        assert len(sites) == 1
        assert sites[0].cls == "core.machines.Engine"
        assert sites[0].shared == ("network",)

    def test_shared_mutable_global_on_machine_path(self, tmp_path):
        index, graph = self._index(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/state.py": """
                    ROUTES = {}

                    class Engine:
                        def __init__(self, machine):
                            self.machine = machine

                        def step(self):
                            return ROUTES.get(self.machine)
                """,
            },
        )
        shared = shared_mutable_globals(index, graph)
        assert [(g.name, g.via) for g in shared] == [
            ("ROUTES", "core.state.Engine.step")
        ]

    def test_frozen_global_not_flagged(self, tmp_path):
        index, graph = self._index(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/state.py": """
                    ROUTES = ("a", "b")

                    class Engine:
                        def __init__(self, machine):
                            self.machine = machine

                        def step(self):
                            return ROUTES[self.machine]
                """,
            },
        )
        assert shared_mutable_globals(index, graph) == []


# ---------------------------------------------------------------------------
# planted fixtures: each rule fires exactly once
# ---------------------------------------------------------------------------


CHX013_FIXTURE = {
    "core/__init__.py": "",
    "core/kern.py": """
        def scatter_chunk(edges):
            state = 0.0
            out = []
            for e in edges:
                state = state * 0.5 + e
                out.append(state)
            return out
    """,
}

CHX014_FIXTURE = {
    "core/__init__.py": "",
    "core/kern.py": """
        def gather_chunk(edges, out):
            for e in edges:
                out.append({"edge": e, "weight": 1.0})
    """,
}

CHX015_FIXTURE = {
    "core/__init__.py": "",
    "core/machines.py": """
        class Engine:
            def __init__(self, machine, network):
                self.machine = machine
                self.network = network

        def build(count, network):
            return [Engine(m, network) for m in range(count)]
    """,
}

CHX016_FIXTURE = {
    "core/__init__.py": "",
    "core/reduce.py": """
        def merge(accum, other):
            accum += other
            return accum
    """,
}

CHX017_FIXTURE = {
    "core/__init__.py": "",
    "core/state.py": """
        CACHE = {}

        class Engine:
            def __init__(self, machine):
                self.machine = machine

            def step(self):
                return CACHE.get(self.machine)
    """,
}


class TestPlantedFixtures:
    @pytest.mark.parametrize(
        "rule_id, fixture, fragment",
        [
            ("CHX013", CHX013_FIXTURE, "sequential dependence through state"),
            ("CHX014", CHX014_FIXTURE, "escapes the loop"),
            ("CHX015", CHX015_FIXTURE, "shared argument(s) [network]"),
            ("CHX016", CHX016_FIXTURE, "additive fold"),
            ("CHX017", CHX017_FIXTURE, "module-level mutable 'CACHE'"),
        ],
    )
    def test_rule_fires_exactly_once(self, tmp_path, rule_id, fixture, fragment):
        build_pkg(tmp_path, fixture)
        result = deep_check(tmp_path)
        found = findings_of(result, rule_id)
        assert len(found) == 1, [str(f) for f in found]
        assert fragment in found[0].message

    def test_chx015_unpicklable_capture_mode(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/machines.py": """
                    class Engine:
                        def __init__(self, machine):
                            self.machine = machine
                            self.log = open("/tmp/x.log", "w")
                """,
            },
        )
        result = deep_check(tmp_path)
        found = findings_of(result, "CHX015")
        assert len(found) == 1
        assert "open file handle" in found[0].message

    def test_chx016_exempt_when_caller_fixes_order(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/reduce.py": """
                    def canonical_update_order(updates):
                        return sorted(updates)

                    def merge(accum, other):
                        accum += other
                        return accum

                    def fold_all(accum, updates):
                        for u in canonical_update_order(updates):
                            accum = merge(accum, u)
                        return accum
                """,
            },
        )
        result = deep_check(tmp_path)
        assert findings_of(result, "CHX016") == []

    def test_chx013_ignores_reduction_loops(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/kern.py": """
                    def scatter_chunk(edges):
                        total = 0.0
                        for e in edges:
                            total += e
                        return total
                """,
            },
        )
        result = deep_check(tmp_path)
        assert findings_of(result, "CHX013") == []


# ---------------------------------------------------------------------------
# suppression spans on multi-line loop headers
# ---------------------------------------------------------------------------


class TestLoopHeaderSuppression:
    def test_trailing_comment_on_iterable_suppresses_header_finding(
        self, tmp_path
    ):
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/kern.py": """
                    def scatter_chunk(edges):
                        state = 0.0
                        out = []
                        for e in (
                            edges  # chaos: ignore[CHX013] recurrence is intentional
                        ):
                            state = state * 0.5 + e
                            out.append(state)
                        return out
                """,
            },
        )
        result = deep_check(tmp_path)
        assert findings_of(result, "CHX013") == []
        assert any(
            f.rule_id == "CHX013" for f in result.result.suppressed
        )

    def test_one_liner_body_on_header_closing_line_suppresses(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/kern.py": """
                    def scatter_chunk(edges, out):
                        state = 0.0
                        for e in (
                            edges
                        ): state = state * 0.5 + out.append(state)  # chaos: ignore[CHX013]
                """,
            },
        )
        result = deep_check(tmp_path)
        assert findings_of(result, "CHX013") == []
        assert any(
            f.rule_id == "CHX013" for f in result.result.suppressed
        )

    def test_comment_inside_body_does_not_silence_header(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/kern.py": """
                    def scatter_chunk(edges):
                        state = 0.0
                        out = []
                        for e in edges:
                            state = state * 0.5 + e  # chaos: ignore[CHX013]
                            out.append(state)
                        return out
                """,
            },
        )
        result = deep_check(tmp_path)
        assert len(findings_of(result, "CHX013")) == 1


# ---------------------------------------------------------------------------
# analyzer-version cache key (satellite)
# ---------------------------------------------------------------------------


class TestAnalyzerVersionCacheKey:
    def test_version_bump_invalidates_cache(self, tmp_path, monkeypatch):
        pkg = build_pkg(tmp_path / "pkg", CHX013_FIXTURE)
        cache = tmp_path / "cache"
        engine = DeepEngine()
        first = engine.check_paths([str(pkg)], cache_dir=str(cache))
        assert first.cache_hit is False
        second = engine.check_paths([str(pkg)], cache_dir=str(cache))
        assert second.cache_hit is True

        monkeypatch.setattr(
            "repro.analysis.flow.engine.ANALYZER_VERSION", 99
        )
        third = engine.check_paths([str(pkg)], cache_dir=str(cache))
        assert third.cache_hit is False
        assert [f.rule_id for f in third.result.findings] == ["CHX013"]


# ---------------------------------------------------------------------------
# Workload dispatch through the call graph (satellite)
# ---------------------------------------------------------------------------


class TestWorkloadDispatch:
    def test_engine_resolves_workload_kernels_through_base(self):
        index = ProjectIndex.build(["src"])
        graph = build_call_graph(index)

        def targets_of(caller, callee):
            return {
                target
                for site in graph.call_sites_in(caller)
                if site.name == callee
                for target in site.targets
            }

        process_chunk = "repro.core.compute.ComputationEngine._process_chunk"
        scatter = targets_of(process_chunk, "scatter_chunk")
        assert "repro.core.workload.Workload.scatter_chunk" in scatter
        assert "repro.core.workload.DataWorkload.scatter_chunk" in scatter
        assert "repro.core.workload.ModelWorkload.scatter_chunk" in scatter
        gather = targets_of(process_chunk, "gather_chunk")
        assert "repro.core.workload.DataWorkload.gather_chunk" in gather
        apply_ = targets_of(
            "repro.core.compute.ComputationEngine._finish_gather_master",
            "apply_partition",
        )
        assert "repro.core.workload.DataWorkload.apply_partition" in apply_

        stats = graph.resolution_stats()
        assert stats["project_resolution_fraction"] >= 0.95


# ---------------------------------------------------------------------------
# baseline ratchet (satellite)
# ---------------------------------------------------------------------------


def _finding(file="core/kern.py", rule="CHX013", line=4, message=None):
    return Finding(
        file=file,
        line=line,
        rule_id=rule,
        severity="error",
        message=message or "edge loop at line %d blocks vectorization" % line,
    )


class TestBaselineRatchet:
    def test_fingerprint_is_line_stable(self):
        a = _finding(line=4, message="edge loop at line 4 blocks")
        b = _finding(line=90, message="edge loop at line 90 blocks")
        assert fingerprint(a) == fingerprint(b)
        c = _finding(message="a different defect entirely")
        assert fingerprint(a) != fingerprint(c)

    def test_round_trip_and_split(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        old = _finding(message="known defect")
        count = write_baseline([old, old], path)
        assert count == 1
        baseline = load_baseline(path)
        fresh = _finding(message="brand new defect")
        new, grandfathered = split_new([old, fresh], baseline)
        assert new == [fresh]
        assert grandfathered == [old]
        stats = baseline_stats([old, fresh], baseline)
        assert stats == {"entries": 1, "matched": 1, "new": 1, "stale": 0}

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"baseline_version": 999, "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_cli_ratchet_suppresses_old_fails_new(self, tmp_path, capsys):
        pkg = build_pkg(tmp_path / "pkg", dict(CHX013_FIXTURE))
        baseline = str(tmp_path / "baseline.json")

        code = main(
            ["check", str(pkg), "--deep", "--baseline", baseline,
             "--write-baseline"]
        )
        assert code == 0
        assert "baseline:" in capsys.readouterr().err

        code = main(["check", str(pkg), "--deep", "--baseline", baseline])
        captured = capsys.readouterr()
        assert code == 0
        assert "grandfathered" in captured.err

        # A brand-new finding in another file must fail the ratchet.
        (pkg / "core" / "fresh.py").write_text(
            textwrap.dedent(
                """
                def gather_chunk(edges, values):
                    for src, dst in edges:
                        values[dst] = values[src]
                """
            )
        )
        code = main(["check", str(pkg), "--deep", "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 1
        assert "fresh.py" in out
        assert "kern.py" not in out

    def test_cli_write_baseline_requires_baseline(self, tmp_path, capsys):
        assert main(["check", str(tmp_path), "--write-baseline"]) == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# kernel worklist (tentpole: static × profile join)
# ---------------------------------------------------------------------------


def pr_host_doc(machines=2, scale=7, iterations=4):
    graph = rmat_graph(scale, seed=7)
    profiler = HostProfiler()
    run_algorithm(
        PageRank(iterations=iterations), graph, machines=machines,
        host=profiler,
    )
    registry = profiler.finalize()
    registry.job = {
        "algorithm": "PR",
        "cli_name": "PR",
        "machines": machines,
        "seed": 0,
    }
    return registry.to_dict()


class TestKernelReport:
    def test_static_only_report_covers_all_algorithms(self):
        doc = build_kernel_report(["src"])
        errors = check_kernel_report_schema(doc)
        assert errors == []
        assert doc["kernel_report_version"] == KERNEL_REPORT_VERSION
        algorithms = {row["algorithm"] for row in doc["rows"]}
        assert {"PR", "BFS", "*"} <= algorithms
        assert all(row["host_cpu_share"] is None for row in doc["rows"])

    def test_host_join_ranks_hottest_phase_in_top_two(self):
        host_doc = pr_host_doc()
        assert check_host_schema(host_doc) == []
        assert host_doc["job"]["algorithm"] == "PR"

        doc = build_kernel_report(["src"], host_doc=host_doc)
        assert check_kernel_report_schema(doc) == []

        # Whichever GAS phase the profile measured hottest (apply, while
        # it paid for a byte-wise lexsort; apply or scatter since) must
        # lead the worklist with exactly its measured share.
        cpu = {
            phase: host_doc["totals"]["by_phase"][phase]["cpu_seconds"]
            for phase in ("scatter", "gather", "apply")
        }
        hottest = max(cpu, key=cpu.get)
        top2 = sorted(doc["rows"], key=lambda r: r["rank"])[:2]
        assert {row["phase"] for row in top2} == {hottest}
        pr_rows = [
            r for r in doc["rows"]
            if r["algorithm"] == "PR" and r["phase"] == hottest
        ]
        assert pr_rows and pr_rows[0]["host_cpu_share"] == pytest.approx(
            cpu[hottest] / sum(cpu.values())
        )
        # Other algorithms don't inherit PR's profile.
        bfs_rows = [r for r in doc["rows"] if r["algorithm"] == "BFS"]
        assert all(r["host_cpu_share"] is None for r in bfs_rows)

    def test_json_round_trips_through_validator(self):
        doc = build_kernel_report(["src"], host_doc=pr_host_doc())
        clone = json.loads(json.dumps(doc))
        assert check_kernel_report_schema(clone) == []

    def test_format_lists_blocked_kernels(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/kern.py": """
                    class Workload:
                        def scatter_chunk(self, edges):
                            state = 0.0
                            out = []
                            for e in edges:
                                state = state * 0.5 + e
                                out.append(state)
                            return out
                """,
            },
        )
        doc = build_kernel_report([str(tmp_path)])
        text = format_kernel_report(doc)
        assert "kernel worklist" in text
        assert "sequential" in text

    def test_score_is_share_times_vectorizable(self):
        doc = build_kernel_report(["src"], host_doc=pr_host_doc())
        for row in doc["rows"]:
            if row["host_cpu_share"] is None:
                assert row["score"] is None
            else:
                assert row["score"] == pytest.approx(
                    row["host_cpu_share"] * row["vectorizable"]
                )


class TestKernelReportCLI:
    def test_text_output(self, capsys):
        code = main(["check", "src", "--kernel-report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kernel worklist" in out

    def test_json_output_with_host(self, tmp_path, capsys):
        host_path = tmp_path / "host.json"
        host_path.write_text(json.dumps(pr_host_doc()))
        code = main(
            ["check", "src", "--kernel-report",
             "--host-json", str(host_path), "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert check_kernel_report_schema(doc) == []
        assert doc["host"]["algorithm"] == "PR"

    def test_host_json_requires_kernel_report(self, tmp_path, capsys):
        assert main(["check", "src", "--host-json", "nope.json"]) == 2
        capsys.readouterr()

    def test_bad_host_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"host_schema_version\": 999}")
        code = main(
            ["check", "src", "--kernel-report", "--host-json", str(bad)]
        )
        assert code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# host-profile job join keys
# ---------------------------------------------------------------------------


class TestHostJobKeys:
    def test_job_keys_survive_to_dict_and_schema(self):
        doc = pr_host_doc(machines=2)
        assert doc["job"] == {
            "algorithm": "PR", "cli_name": "PR", "machines": 2, "seed": 0,
        }
        assert check_host_schema(doc) == []

    def test_schema_rejects_malformed_job(self):
        doc = pr_host_doc()
        doc["job"] = {"algorithm": 7}
        assert check_host_schema(doc)
