"""Tests for the interprocedural flow layer of ``repro check``.

Covers the project index / call graph builders, the path-shape helper,
host reads laundered through helpers (caught at the read by CHX001),
and rules CHX010, CHX011, CHX016 and CHX018 — each against a small
fixture package with *planted* violations, asserting that exactly the
planted sites are reported and that inline suppressions are honored.  Also verifies the call-graph resolution
floor and the Workload-dispatch call-graph contract; the self-host run
over ``src/`` is in ``tests/test_analysis.py``.
"""

import ast
import json
import textwrap

import pytest

from repro.analysis import LintEngine, default_rules
from repro.analysis.flow import CallGraph, ProjectIndex, definitely_terminates
from repro.cli import main


def build_pkg(tmp_path, files):
    """Write a fixture package tree; ``files`` maps rel-path -> source."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def check_tree(path, rules=None):
    """Check ``path`` with every rule, or only the ids in ``rules``."""
    selected = [
        r for r in default_rules() if rules is None or r.rule_id in rules
    ]
    return LintEngine(selected).check_paths([str(path)])


def findings_of(result, rule_id):
    return [f for f in result.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# project index + call graph (satellite: builder tests)
# ---------------------------------------------------------------------------


class TestCallGraph:
    def _graph(self, tmp_path, files):
        build_pkg(tmp_path, files)
        index = ProjectIndex.build([str(tmp_path)])
        return index, CallGraph.build(index)

    def _sites(self, graph, caller):
        return {
            (s.kind, target)
            for s in graph.call_sites_in(caller)
            for target in (s.targets or [None])
        }

    def test_module_names_climb_init_ancestors(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "def f():\n    return 1\n",
                "loose.py": "def g():\n    return 2\n",
            },
        )
        index = ProjectIndex.build([str(tmp_path)])
        assert "pkg.sub.mod" in index.modules
        assert "loose" in index.modules
        assert "pkg.sub.mod.f" in index.functions

    def test_direct_call_resolution(self, tmp_path):
        index, graph = self._graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def helper():\n    return 1\n",
                "pkg/b.py": (
                    "from pkg.a import helper\n"
                    "def caller():\n    return helper()\n"
                ),
            },
        )
        assert ("direct", "pkg.a.helper") in self._sites(graph, "pkg.b.caller")

    def test_recursion_terminates_and_self_edges(self, tmp_path):
        index, graph = self._graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/r.py": (
                    "def fact(n):\n"
                    "    if n <= 1:\n"
                    "        return 1\n"
                    "    return n * fact(n - 1)\n"
                ),
            },
        )
        assert ("direct", "pkg.r.fact") in self._sites(graph, "pkg.r.fact")

    def test_decorated_function_still_resolves(self, tmp_path):
        index, graph = self._graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/d.py": (
                    "def deco(f):\n    return f\n"
                    "@deco\n"
                    "def task():\n    return 1\n"
                    "def caller():\n    return task()\n"
                ),
            },
        )
        assert "pkg.d.task" in index.functions
        assert ("direct", "pkg.d.task") in self._sites(graph, "pkg.d.caller")

    def test_self_method_resolution(self, tmp_path):
        index, graph = self._graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/c.py": (
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
            },
        )
        assert ("self-method", "pkg.c.Engine.step") in self._sites(
            graph, "pkg.c.Engine.run"
        )

    def test_init_reexport_resolution(self, tmp_path):
        index, graph = self._graph(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.impl import helper\n",
                "pkg/impl.py": "def helper():\n    return 1\n",
                "user.py": (
                    "import pkg\n"
                    "def go():\n    return pkg.helper()\n"
                ),
            },
        )
        assert ("direct", "pkg.impl.helper") in self._sites(graph, "user.go")

    def test_by_name_overapproximation(self, tmp_path):
        index, graph = self._graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": (
                    "class A:\n"
                    "    def flush(self):\n        return 1\n"
                    "def drain(obj):\n"
                    "    return obj.flush()\n"
                ),
            },
        )
        sites = self._sites(graph, "pkg.m.drain")
        assert ("by-name", "pkg.m.A.flush") in sites

    def test_list_method_calls_are_builtin_not_by_name(self, tmp_path):
        index, graph = self._graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": (
                    "class Buffer:\n"
                    "    def append(self, item):\n        return item\n"
                    "def collect(values):\n"
                    "    out = []\n"
                    "    for v in values:\n"
                    "        out.append(v)\n"
                    "    return out\n"
                ),
            },
        )
        kinds = {
            s.kind for s in graph.call_sites_in("pkg.m.collect")
        }
        assert kinds == {"builtin"}

    def test_self_host_resolution_floor(self):
        """>= 95% of project-looking call sites in src/ must resolve."""
        index = ProjectIndex.build(["src"])
        graph = CallGraph.build(index)
        stats = graph.resolution_stats()
        assert stats["project_resolution_fraction"] >= 0.95


# ---------------------------------------------------------------------------
# Path-shape helper (CHX010's early-exit exemption)
# ---------------------------------------------------------------------------


class TestCFG:
    """``definitely_terminates``, the one path-shape query a rule uses
    (the statement CFG it once sat beside had no caller)."""

    def _func(self, source):
        tree = ast.parse(textwrap.dedent(source))
        return tree.body[0]

    def test_definitely_terminates_return(self):
        func = self._func("def f():\n    return 1\n")
        assert definitely_terminates(func.body)

    def test_definitely_terminates_if_both_branches(self):
        func = self._func(
            "def f(x):\n"
            "    if x:\n        return 1\n"
            "    else:\n        raise ValueError\n"
        )
        assert definitely_terminates(func.body)

    def test_open_path_does_not_terminate(self):
        func = self._func(
            "def f(x):\n"
            "    if x:\n        return 1\n"
            "    x += 1\n"
        )
        assert not definitely_terminates(func.body)


# ---------------------------------------------------------------------------
# Host reads are caught where they are read
# ---------------------------------------------------------------------------


LAUNDERING_FIXTURE = {
    "proj/__init__.py": "",
    "proj/helpers.py": (
        "import time\n"
        "def host_seed():\n"
        "    return time.time()\n"
        "def relay(value):\n"
        "    return value\n"
    ),
    "proj/sim/__init__.py": "",
    "proj/sim/engine.py": (
        "def configure(seed):\n"
        "    return seed\n"
    ),
    "proj/driver.py": (
        "from proj.helpers import host_seed, relay\n"
        "from proj.sim.engine import configure\n"
        "def direct_launder():\n"
        "    configure(host_seed())\n"
        "def double_launder():\n"
        "    configure(relay(host_seed()))\n"
        "def clean():\n"
        "    configure(42)\n"
    ),
}


class TestHostReadAtSource:
    """A wall-clock value laundered through host-side helpers into a
    sim-package call is caught at the read, in the helper, however many
    calls carry it on (CHX001 covers every module)."""

    def test_laundered_clock_reports_at_the_read(self, tmp_path):
        build_pkg(tmp_path, LAUNDERING_FIXTURE)
        result = check_tree(tmp_path)
        assert [
            (f.file.split("proj/")[1], f.line, f.rule_id)
            for f in result.findings
        ] == [("helpers.py", 1, "CHX001"), ("helpers.py", 3, "CHX001")]

    def test_inline_suppression_honored(self, tmp_path):
        files = dict(LAUNDERING_FIXTURE)
        files["proj/helpers.py"] = files["proj/helpers.py"].replace(
            "    return time.time()\n",
            "    return time.time()  # chaos: ignore[CHX001] fixture\n",
        )
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX001"})
        assert [f.line for f in findings_of(result, "CHX001")] == [1]
        assert [f.line for f in result.suppressed] == [3]


# ---------------------------------------------------------------------------
# CHX010: barrier pairing
# ---------------------------------------------------------------------------


CHX010_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/eng.py": (
        "class Engine:\n"
        "    def __init__(self, barrier):\n"
        "        self.barrier = barrier\n"
        "    def lopsided(self, flag):\n"
        "        if flag:\n"
        "            self.barrier.wait()\n"
        "        return 1\n"
        "    def guarded(self, flag):\n"
        "        if not flag:\n"
        "            return None\n"
        "        self.barrier.wait()\n"
        "        return 1\n"
        "    def sync_point(self):\n"
        "        self.barrier.wait()\n"
        "    def transitive(self, flag):\n"
        "        if flag:\n"
        "            self.sync_point()\n"
        "        else:\n"
        "            self.barrier.wait()\n"
    ),
}


class TestCHX010:
    def test_exactly_the_planted_divergence_reports(self, tmp_path):
        build_pkg(tmp_path, CHX010_FIXTURE)
        result = check_tree(tmp_path, rules={"CHX010"})
        found = findings_of(result, "CHX010")
        assert [f.line for f in found] == [5]  # lopsided's if only
        assert "barrier" in found[0].message
        assert "lopsided" in found[0].message

    def test_outside_sim_packages_not_checked(self, tmp_path):
        files = {
            "proj/__init__.py": "",
            "proj/tools/__init__.py": "",
            "proj/tools/eng.py": CHX010_FIXTURE["proj/sim/eng.py"],
        }
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX010"})
        assert findings_of(result, "CHX010") == []

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX010_FIXTURE)
        files["proj/sim/eng.py"] = files["proj/sim/eng.py"].replace(
            "        if flag:\n            self.barrier.wait()\n",
            "        if flag:  # chaos: ignore[CHX010] fixture\n"
            "            self.barrier.wait()\n",
            1,
        )
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX010"})
        assert findings_of(result, "CHX010") == []
        assert [f.line for f in result.suppressed] == [5]


class TestCompoundHeaderSuppression:
    """A ``chaos: ignore`` comment reaches a finding anchored at a
    compound statement's first line from any *header* line — never from
    the body.  CHX010 reports on the ``if`` line."""

    def _check(self, tmp_path, lopsided):
        files = dict(CHX010_FIXTURE)
        files["proj/sim/eng.py"] = files["proj/sim/eng.py"].replace(
            "        if flag:\n            self.barrier.wait()\n",
            lopsided,
            1,
        )
        assert files != CHX010_FIXTURE
        build_pkg(tmp_path, files)
        return check_tree(tmp_path, rules={"CHX010"})

    def test_trailing_comment_on_condition_suppresses_header_finding(
        self, tmp_path
    ):
        result = self._check(
            tmp_path,
            "        if (\n"
            "            flag  # chaos: ignore[CHX010] lopsided on purpose\n"
            "        ):\n"
            "            self.barrier.wait()\n",
        )
        assert findings_of(result, "CHX010") == []
        assert [f.rule_id for f in result.suppressed] == ["CHX010"]

    def test_one_liner_body_on_header_closing_line_suppresses(self, tmp_path):
        result = self._check(
            tmp_path,
            "        if (\n"
            "            flag\n"
            "        ): self.barrier.wait()  # chaos: ignore[CHX010]\n",
        )
        assert findings_of(result, "CHX010") == []
        assert [f.rule_id for f in result.suppressed] == ["CHX010"]

    def test_comment_inside_body_does_not_silence_header(self, tmp_path):
        result = self._check(
            tmp_path,
            "        if flag:\n"
            "            self.barrier.wait()  # chaos: ignore[CHX010]\n",
        )
        assert [f.line for f in findings_of(result, "CHX010")] == [5]


# ---------------------------------------------------------------------------
# CHX011: discarded generator processes and wait events
# ---------------------------------------------------------------------------


CHX011_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/workers.py": (
        "def pump(env):\n"
        "    yield env.timeout(1)\n"
    ),
    "proj/sim/driver.py": (
        "from proj.sim.workers import pump\n"
        "def launch(env, sim):\n"
        "    pump(env)\n"
        "def scheduled(env, sim):\n"
        "    sim.process(pump(env))\n"
        "def delegated(env, sim):\n"
        "    yield from pump(env)\n"
    ),
}


class TestCHX011:
    def test_exactly_the_planted_discard_reports(self, tmp_path):
        build_pkg(tmp_path, CHX011_FIXTURE)
        result = check_tree(tmp_path, rules={"CHX011"})
        found = findings_of(result, "CHX011")
        assert [f.line for f in found] == [3]
        assert "proj.sim.workers.pump" in found[0].message

    def test_same_module_discard_reports(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "proj/__init__.py": "",
                "proj/sim/__init__.py": "",
                "proj/sim/one.py": (
                    "def pump(env):\n"
                    "    yield env.timeout(1)\n"
                    "def launch(env):\n"
                    "    pump(env)\n"
                ),
            },
        )
        result = check_tree(tmp_path, rules={"CHX011"})
        assert [f.line for f in findings_of(result, "CHX011")] == [4]

    def test_discarded_wait_event_reports(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "proj/__init__.py": "",
                "proj/sim/__init__.py": "",
                "proj/sim/phase.py": (
                    "class Phase:\n"
                    "    def flush(self):\n"
                    "        self._write_group.wait()\n"
                    "    def flush_and_wait(self):\n"
                    "        yield self._write_group.wait()\n"
                ),
            },
        )
        result = check_tree(tmp_path, rules={"CHX011"})
        (found,) = findings_of(result, "CHX011")
        assert found.line == 3
        assert "self._write_group.wait()" in found.message


# ---------------------------------------------------------------------------
# CHX016: float accumulation that does not go through ``exact_add_at``
# ---------------------------------------------------------------------------


CHX016_FIXTURE = {
    "core/__init__.py": "",
    "core/reduce.py": """
        def merge(accum, other):
            accum += other
            return accum
    """,
}

CHX016_ADD_AT_FIXTURE = {
    "algorithms/__init__.py": "",
    "algorithms/rank.py": """
        import numpy as np

        def gather(accum, dst_local, values):
            np.add.at(accum, dst_local, values)
    """,
}


class TestPlantedFixtures:
    @pytest.mark.parametrize(
        "rule_id, fixture, fragment",
        [
            ("CHX016", CHX016_FIXTURE, "additive fold"),
            ("CHX016", CHX016_ADD_AT_FIXTURE, "use exact_add_at"),
        ],
    )
    def test_rule_fires_exactly_once(self, tmp_path, rule_id, fixture, fragment):
        build_pkg(tmp_path, fixture)
        result = check_tree(tmp_path)
        found = findings_of(result, rule_id)
        assert len(found) == 1, [str(f) for f in found]
        assert fragment in found[0].message

    def test_chx016_exempt_when_fold_goes_through_exact_add_at(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "algorithms/__init__.py": "",
                "algorithms/rank.py": """
                    from core.gas import exact_add_at

                    class Rank:
                        def gather(self, accum, dst_local, values):
                            exact_add_at(accum, dst_local, values)
                            self.folded += len(values)
                """,
            },
        )
        result = check_tree(tmp_path)
        assert findings_of(result, "CHX016") == []

    def test_chx016_a_sorting_caller_no_longer_exempts(self, tmp_path):
        """Sorting before the fold was the old exemption; the runtime
        no longer sorts, so a caller that does proves nothing."""
        build_pkg(
            tmp_path,
            {
                "core/__init__.py": "",
                "core/reduce.py": """
                    def sort_updates(updates):
                        return sorted(updates)

                    def merge(accum, other):
                        accum += other
                        return accum

                    def fold_all(accum, updates):
                        for u in sort_updates(updates):
                            accum = merge(accum, u)
                        return accum
                """,
            },
        )
        result = check_tree(tmp_path)
        assert len(findings_of(result, "CHX016")) == 1

    def test_chx016_integer_sum_is_suppressed_inline(self, tmp_path):
        build_pkg(
            tmp_path,
            {
                "algorithms/__init__.py": "",
                "algorithms/count.py": """
                    import numpy as np

                    def gather(accum, dst_local, values):
                        np.add.at(accum, dst_local, values)  # chaos: ignore[CHX016] integer sum
                """,
            },
        )
        result = check_tree(tmp_path)
        assert findings_of(result, "CHX016") == []
        assert [f.rule_id for f in result.suppressed] == ["CHX016"]


# ---------------------------------------------------------------------------
# CHX018: unseeded RNG in fault-injection / fuzzing code
# ---------------------------------------------------------------------------


CHX018_FIXTURE = {
    "proj/__init__.py": "",
    "proj/faults/__init__.py": "",
    "proj/faults/fuzzer.py": (
        "import random as rnd\n"
        "\n"
        "def good(seed):\n"
        "    return rnd.Random(seed * 7 + 1)\n"
        "\n"
        "def planted_unseeded():\n"
        "    return rnd.Random()\n"
        "\n"
        "def planted_global_draw():\n"
        "    return rnd.random()\n"
    ),
    "proj/graph/__init__.py": "",
    "proj/graph/gen.py": (
        "import random\n"
        "\n"
        "def outside_faults():\n"
        "    return random.Random()\n"
    ),
}


class TestCHX018:
    def test_flags_every_module(self, tmp_path):
        build_pkg(tmp_path, CHX018_FIXTURE)
        result = check_tree(tmp_path, rules={"CHX018"})
        found = findings_of(result, "CHX018")
        assert [(f.file.split("proj/")[1], f.line) for f in found] == [
            ("faults/fuzzer.py", 7),
            ("faults/fuzzer.py", 10),
            ("graph/gen.py", 4),
        ]
        assert "without a seed" in found[0].message
        assert "interpreter-global" in found[1].message

    def test_seeded_construction_is_clean(self, tmp_path):
        files = {
            "proj/__init__.py": "",
            "proj/faults/__init__.py": "",
            "proj/faults/sched.py": (
                "import random\n"
                "\n"
                "def make(seed):\n"
                "    return random.Random(seed)\n"
            ),
        }
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX018"})
        assert findings_of(result, "CHX018") == []

    def test_numpy_default_rng_needs_a_seed(self, tmp_path):
        files = {
            "proj/__init__.py": "",
            "proj/fuzz.py": (
                "import numpy as np\n"
                "\n"
                "def planted():\n"
                "    return np.random.default_rng()\n"
                "\n"
                "def good(seed):\n"
                "    return np.random.default_rng(seed)\n"
            ),
        }
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX018"})
        found = findings_of(result, "CHX018")
        assert [f.line for f in found] == [4]

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX018_FIXTURE)
        files["proj/faults/fuzzer.py"] = files["proj/faults/fuzzer.py"].replace(
            "    return rnd.Random()\n",
            "    return rnd.Random()  # chaos: ignore[CHX018] fixture\n",
        ).replace(
            "    return rnd.random()\n",
            "    return rnd.random()  # chaos: ignore[CHX018] fixture\n",
        )
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX018"})
        assert [f.line for f in findings_of(result, "CHX018")] == [4]
        assert [f.line for f in result.suppressed] == [7, 10]


# ---------------------------------------------------------------------------
# registry, call-graph contract and CLI
# ---------------------------------------------------------------------------


class TestRuleRegistry:
    def test_project_rules_are_the_whole_program_half(self):
        # The whole-program half of the one registry: the rules that
        # read the project index instead of one node at a time.
        # Removed ids are never reused (test_analysis.py lists them).
        kept = [f"CHX{n:03d}" for n in (10, 11, 16, 18, 20)]
        assert [r.rule_id for r in default_rules() if not r.node_types] == kept


class TestWorkloadDispatch:
    def test_engine_resolves_workload_kernels_through_base(self):
        index = ProjectIndex.build(["src"])
        graph = CallGraph.build(index)

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


class TestDeepCLI:
    def test_deep_json_document(self, tmp_path, capsys):
        build_pkg(tmp_path, CHX011_FIXTURE)
        code = main(
            ["check", str(tmp_path), "--format", "json", "--stats"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["count"] == 1
        assert document["rule_stats"] == {
            "CHX011": {"findings": 1, "suppressed": 0}
        }
        assert document["call_graph"]["project_resolution_fraction"] > 0

    def test_deep_rule_filter(self, tmp_path, capsys):
        build_pkg(tmp_path, CHX011_FIXTURE)
        code = main(
            ["check", str(tmp_path), "--rules", "CHX011"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert {line.split()[1] for line in out.splitlines()} == {"CHX011"}

    def test_deep_clean_fixture_exits_zero(self, tmp_path, capsys):
        build_pkg(
            tmp_path,
            {
                "proj/__init__.py": "",
                "proj/util.py": "def f():\n    return 1\n",
            },
        )
        code = main(["check", str(tmp_path)])
        capsys.readouterr()
        assert code == 0

    def test_deep_github_format(self, tmp_path, capsys):
        build_pkg(tmp_path, CHX011_FIXTURE)
        code = main(
            [
                "check",
                str(tmp_path),
                "--rules",
                "CHX011",
                "--format",
                "github",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "::error file=" in out
        assert "CHX011" in out
