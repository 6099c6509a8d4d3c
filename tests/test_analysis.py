"""Tests for the determinism lint engine (CHX rules).

Each rule gets positive fixtures (violating code that must be flagged)
and negative fixtures (idiomatic code that must pass), plus suppression
handling, output formats, the CLI entry point and the self-host check:
the repository's own source tree must be clean.  Global-state
randomness and discarded processes are whole-program rules (CHX018,
CHX011); their fixtures run through the same engine, one rule selected.
"""

import json
import re
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    RULE_TABLE,
    Finding,
    LintEngine,
    default_rules,
    format_github,
    format_json,
    format_text,
)
from repro.cli import main

SIM_PATH = "src/repro/sim/fixture.py"
COMPUTE_PATH = "src/repro/core/fixture.py"
OUTSIDE_PATH = "src/repro/graph/fixture.py"


def lint(source, path=SIM_PATH):
    return LintEngine().check_source(source, path=path)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


def lint_one(source, rule_id, path="sim/fixture.py"):
    """Run only rule ``rule_id`` over ``source``."""
    rules = [r for r in default_rules() if r.rule_id == rule_id]
    return LintEngine(rules).check_source(source, path=path)


def write_tree(root, files):
    """Write ``files`` (rel-path -> source) under ``root``."""
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return root


# ---------------------------------------------------------------------------
# CHX001: host clock anywhere, host identity in simulated-clock packages


class TestWallClock:
    def test_flags_time_time_in_sim_package(self):
        result = lint("t0 = time.time()\n")
        assert rule_ids(result) == ["CHX001"]
        assert result.findings[0].line == 1

    def test_flags_bare_import_time(self):
        # The import alone is a finding: a module object in scope would
        # let wall-clock reads sidestep the call check.
        result = lint("import time\n")
        assert rule_ids(result) == ["CHX001"]
        assert "repro.obs.hostclock" in result.findings[0].message

    def test_import_and_call_are_two_findings(self):
        result = lint("import time\nt0 = time.time()\n")
        assert rule_ids(result) == ["CHX001", "CHX001"]
        assert [f.line for f in result.findings] == [1, 2]

    def test_hostclock_module_is_exempt(self):
        # repro/obs/hostclock.py is the single sanctioned host-clock
        # entry point; CHX001 skips it by module path.
        result = lint(
            "import time\nt0 = time.perf_counter_ns()\n",
            path="src/repro/obs/hostclock.py",
        )
        assert result.clean

    @pytest.mark.parametrize(
        "call", ["time.sleep(1)", "time.perf_counter()", "time.monotonic()",
                 "time.perf_counter_ns()", "time.process_time_ns()"]
    )
    def test_flags_other_wall_clock_calls(self, call):
        result = lint(f"{call}\n")
        assert rule_ids(result) == ["CHX001"]

    def test_flags_datetime_now(self):
        result = lint("import datetime\nstamp = datetime.now()\n")
        assert rule_ids(result) == ["CHX001"]

    def test_flags_from_time_import(self):
        result = lint("from time import perf_counter\n")
        assert rule_ids(result) == ["CHX001"]

    def test_flags_outside_sim_packages(self):
        # A helper outside the sim packages that reads the clock is
        # caught at the read, whatever call chain carries the value on.
        result = lint("import time\nt0 = time.time()\n", path=OUTSIDE_PATH)
        assert rule_ids(result) == ["CHX001", "CHX001"]

    @pytest.mark.parametrize(
        "source",
        ["key = id(self)\n", "import os\npid = os.getpid()\n",
         "import os\npid = os.getppid()\n", "from os import getpid\n"],
    )
    def test_flags_host_identity_in_sim_package(self, source):
        result = lint(source)
        assert rule_ids(result) == ["CHX001"]
        assert "host identity" in result.findings[0].message

    @pytest.mark.parametrize(
        "path", [OUTSIDE_PATH, "src/repro/analysis/flow/fixture.py"]
    )
    def test_host_identity_outside_sim_packages_is_clean(self, path):
        # Host-side tooling keys in-process dicts by id().
        result = lint(
            "import os\nkey = id(object())\npid = os.getpid()\n", path=path
        )
        assert result.clean

    def test_ignores_simulated_clock_use(self):
        result = lint("def f(sim):\n    return sim.now\n")
        assert result.clean


# ---------------------------------------------------------------------------
# Global-state randomness (CHX018, which absorbed the local CHX002)


class TestGlobalRandom:
    def test_flags_random_module_call(self):
        result = lint_one(
            "import random\nx = random.randint(0, 9)\n", "CHX018"
        )
        assert rule_ids(result) == ["CHX018"]

    def test_flags_np_random_legacy_call(self):
        result = lint_one(
            "import numpy as np\nx = np.random.rand(4)\n", "CHX018"
        )
        assert rule_ids(result) == ["CHX018"]

    def test_flags_from_random_import(self):
        result = lint_one(
            "from random import shuffle\n\ndef f(xs):\n    shuffle(xs)\n",
            "CHX018",
        )
        assert rule_ids(result) == ["CHX018"]
        assert result.findings[0].line == 4

    def test_applies_everywhere_not_just_sim_packages(self):
        result = lint_one(
            "import random\nrandom.random()\n", "CHX018",
            path="graph/fixture.py",
        )
        assert rule_ids(result) == ["CHX018"]

    @pytest.mark.parametrize(
        "source",
        ["import os\nb = os.urandom(8)\n",
         "from os import urandom\nb = urandom(8)\n",
         "import uuid\nu = uuid.uuid4()\n",
         "import uuid\nu = uuid.uuid1()\n",
         "import secrets\nt = secrets.token_hex(8)\n",
         "import random\nrng = random.SystemRandom()\n",
         "import random\nrng = random.SystemRandom(7)\n"],
    )
    def test_flags_host_entropy_everywhere(self, source):
        # Host entropy replays under no seed, in any module.
        result = lint_one(source, "CHX018", path="graph/fixture.py")
        assert rule_ids(result) == ["CHX018"]
        assert "host entropy" in result.findings[0].message

    def test_allows_seeded_constructors(self):
        result = lint_one(
            "import random\nimport numpy as np\n"
            "rng = random.Random(7)\ngen = np.random.default_rng(7)\n",
            "CHX018",
        )
        assert result.clean

    def test_allows_generator_methods(self):
        result = lint_one(
            "def f(rng):\n    return rng.integers(0, 9)\n", "CHX018"
        )
        assert result.clean


# ---------------------------------------------------------------------------
# CHX003: StorageEngine mediation


class TestStorageMediation:
    def test_flags_device_reach_through(self):
        result = lint(
            "def f(store):\n    return store.device.service(100)\n",
            path=COMPUTE_PATH,
        )
        assert rule_ids(result) == ["CHX003"]

    def test_flags_backend_reach_through(self):
        result = lint(
            "def f(store):\n    return store.backend.fetch_any(0, kind)\n",
            path=COMPUTE_PATH,
        )
        assert rule_ids(result) == ["CHX003"]

    def test_flags_device_alias(self):
        result = lint(
            "def f(store):\n    dev = store.device\n    return dev\n",
            path=COMPUTE_PATH,
        )
        assert rule_ids(result) == ["CHX003"]

    def test_allows_device_spec_reads(self):
        result = lint(
            "def f(config):\n    return config.device.bandwidth\n",
            path=COMPUTE_PATH,
        )
        assert result.clean

    def test_allows_storage_engine_methods(self):
        result = lint(
            "def f(store):\n    return store.local_input_read(100)\n",
            path=COMPUTE_PATH,
        )
        assert result.clean

    def test_ignores_outside_compute_packages(self):
        result = lint(
            "def f(store):\n    return store.device.service(100)\n",
            path=OUTSIDE_PATH,
        )
        assert result.clean


# ---------------------------------------------------------------------------
# Simulator-process hygiene (CHX011, which absorbed the local CHX004)


class TestProcessHygiene:
    def test_flags_discarded_wait(self):
        result = lint_one(
            "def f(barrier):\n    barrier.wait()\n", "CHX011"
        )
        assert rule_ids(result) == ["CHX011"]

    def test_flags_unscheduled_generator_call(self):
        source = (
            "def worker(sim):\n"
            "    yield sim.timeout(1)\n"
            "\n"
            "def start(sim):\n"
            "    worker(sim)\n"
        )
        result = lint_one(source, "CHX011")
        assert rule_ids(result) == ["CHX011"]
        assert result.findings[0].line == 5

    def test_allows_yielded_wait(self):
        result = lint_one(
            "def f(barrier):\n    yield barrier.wait()\n", "CHX011"
        )
        assert result.clean

    def test_allows_scheduled_generator(self):
        source = (
            "def worker(sim):\n"
            "    yield sim.timeout(1)\n"
            "\n"
            "def start(sim):\n"
            "    sim.process(worker(sim))\n"
        )
        result = lint_one(source, "CHX011")
        assert result.clean

    def test_plain_function_call_statement_is_fine(self):
        source = (
            "def note(x):\n"
            "    return x\n"
            "\n"
            "def start():\n"
            "    note(1)\n"
        )
        result = lint_one(source, "CHX011")
        assert result.clean


# ---------------------------------------------------------------------------
# CHX005: nondeterministic ordering hazards


class TestNondetOrder:
    def test_flags_mutable_default(self):
        result = lint("def f(items=[]):\n    return items\n")
        assert rule_ids(result) == ["CHX005"]

    def test_flags_dict_call_default(self):
        result = lint("def f(table=dict()):\n    return table\n")
        assert rule_ids(result) == ["CHX005"]

    def test_flags_direct_set_iteration(self):
        result = lint(
            "def f():\n    for x in {3, 1, 2}:\n        consume(x)\n"
        )
        assert rule_ids(result) == ["CHX005"]

    def test_flags_set_call_comprehension(self):
        result = lint("def f(xs):\n    return [x for x in set(xs)]\n")
        assert rule_ids(result) == ["CHX005"]

    def test_flags_set_assigned_then_iterated(self):
        source = (
            "def f(xs):\n"
            "    pending = set(xs)\n"
            "    for x in pending:\n"
            "        consume(x)\n"
        )
        result = lint(source)
        assert rule_ids(result) == ["CHX005"]

    def test_allows_sorted_set_iteration(self):
        source = (
            "def f(xs):\n"
            "    pending = set(xs)\n"
            "    for x in sorted(pending):\n"
            "        consume(x)\n"
        )
        result = lint(source)
        assert result.clean

    def test_allows_none_default(self):
        result = lint("def f(items=None):\n    return items or []\n")
        assert result.clean

    def test_ignores_outside_sim_packages(self):
        result = lint("def f(items=[]):\n    return items\n",
                      path=OUTSIDE_PATH)
        assert result.clean


# ---------------------------------------------------------------------------
# CHX006: broad exception handlers that can swallow Interrupt


class TestBroadExcept:
    def test_flags_bare_except(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        pass\n"
        )
        result = lint(source)
        assert rule_ids(result) == ["CHX006"]
        assert result.findings[0].line == 4

    @pytest.mark.parametrize("exc", ["Exception", "BaseException"])
    def test_flags_broad_catch(self, exc):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            f"    except {exc}:\n"
            "        log()\n"
        )
        result = lint(source)
        assert rule_ids(result) == ["CHX006"]

    def test_flags_broad_catch_in_tuple(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, Exception) as error:\n"
            "        log(error)\n"
        )
        result = lint(source)
        assert rule_ids(result) == ["CHX006"]

    def test_flags_in_faults_package(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    pass\n"
        )
        result = lint(source, path="src/repro/faults/fixture.py")
        assert rule_ids(result) == ["CHX006"]

    def test_allows_reraise(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        cleanup()\n"
            "        raise\n"
        )
        result = lint(source)
        assert result.clean

    def test_allows_specific_exceptions(self):
        source = (
            "def f():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, KeyError):\n"
            "        pass\n"
        )
        result = lint(source)
        assert result.clean

    def test_ignores_outside_engine_packages(self):
        source = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    pass\n"
        )
        result = lint(source, path=OUTSIDE_PATH)
        assert result.clean


# ---------------------------------------------------------------------------
# CHX007: ad-hoc telemetry in engine packages


class TestAdHocTelemetry:
    def test_flags_print_in_engine_package(self):
        result = lint("print('scatter done')\n", path=COMPUTE_PATH)
        assert rule_ids(result) == ["CHX007"]
        assert "Tracer" in result.findings[0].message

    def test_flags_logging_import(self):
        result = lint("import logging\n")
        assert rule_ids(result) == ["CHX007"]

    def test_flags_from_logging_import(self):
        result = lint("from logging import getLogger\n")
        assert rule_ids(result) == ["CHX007"]

    def test_flags_logging_calls(self):
        result = lint(
            "import logging\nlogging.info('iteration %d', i)\n"
        )
        assert rule_ids(result) == ["CHX007", "CHX007"]

    def test_flags_stderr_write(self):
        result = lint("import sys\nsys.stderr.write('oops')\n")
        assert rule_ids(result) == ["CHX007"]

    def test_flags_stdout_write_in_obs(self):
        result = lint(
            "import sys\nsys.stdout.write('x')\n",
            path="src/repro/obs/fixture.py",
        )
        assert rule_ids(result) == ["CHX007"]

    def test_ignores_cli_and_benchmark_layers(self):
        # The CLI and graph/analysis layers own the terminal; only the
        # simulated-clock engine packages must stay silent.
        assert lint("print('ok')\n", path="src/repro/cli.py").clean
        assert lint("print('ok')\n", path=OUTSIDE_PATH).clean

    def test_ignores_tracer_and_counter_use(self):
        source = (
            "def f(track, registry, sim):\n"
            "    track.instant('phase.done')\n"
            "    registry.add('m0.bytes', sim.now, 42.0)\n"
        )
        assert lint(source, path=COMPUTE_PATH).clean

    def test_suppression_names_the_rule(self):
        result = lint(
            "print('x')  # chaos: ignore[CHX007] debug aid\n",
            path=COMPUTE_PATH,
        )
        assert result.clean
        assert result.suppressed[0].rule_id == "CHX007"


# ---------------------------------------------------------------------------
# Engine mechanics: suppression, syntax errors, path walking


class TestSuppression:
    def test_matching_id_suppresses(self):
        result = lint(
            "t0 = time.time()  # chaos: ignore[CHX001] profiling shim\n"
        )
        assert result.clean
        assert len(result.suppressed) == 1
        assert result.suppressed[0].rule_id == "CHX001"

    def test_wrong_id_does_not_suppress(self):
        result = lint(
            "t0 = time.time()  # chaos: ignore[CHX007]\n"
        )
        assert rule_ids(result) == ["CHX001"]
        assert not result.suppressed

    def test_multiple_ids(self):
        result = lint(
            "print(time.time())"
            "  # chaos: ignore[CHX001, CHX007]\n"
        )
        assert result.clean
        assert len(result.suppressed) == 2

    def test_import_needs_its_own_suppression(self):
        # Suppressing the call does not cover the ``import time`` line:
        # the import is a separate finding on a separate statement.
        result = lint(
            "import time\n"
            "t0 = time.time()  # chaos: ignore[CHX001] profiling shim\n"
        )
        assert rule_ids(result) == ["CHX001"]
        assert result.findings[0].line == 1
        assert len(result.suppressed) == 1

    def test_comment_on_closing_paren_of_multiline_call(self):
        # The finding reports at the statement's first line; the comment
        # naturally lands on the closing paren.  Span matching bridges it.
        result = lint(
            "t0 = time.time(\n"
            ")  # chaos: ignore[CHX001] host profiling shim\n"
        )
        assert result.clean, result.findings
        assert len(result.suppressed) == 1
        assert result.suppressed[0].line == 1

    def test_comment_mid_span_of_multiline_statement(self):
        # Finding at the statement's first line, comment two lines down
        # inside the same statement span.
        result = lint(
            "total = time.time() + (\n"
            "    1\n"
            ")  # chaos: ignore[CHX001] fixture\n"
        )
        assert result.clean, result.findings
        assert len(result.suppressed) == 1

    def test_comment_inside_function_body_does_not_cover_def_line(self):
        # A suppression buried in a compound statement's body must not
        # widen to the header: only the header span bridges.
        result = lint(
            "def helper():\n"
            "    x = 1  # chaos: ignore[CHX001] unrelated\n"
            "    return time.time()\n"
        )
        assert rule_ids(result) == ["CHX001"]
        assert result.findings[0].line == 3


class TestEngine:
    def test_syntax_error_reported_as_chx000(self):
        result = lint("def broken(:\n")
        assert rule_ids(result) == ["CHX000"]

    def test_rule_filtering(self):
        rules = [r for r in default_rules() if r.rule_id == "CHX007"]
        engine = LintEngine(rules=rules)
        result = engine.check_source(
            "import time\n"
            "time.time()\nprint('x')\n",
            path=SIM_PATH,
        )
        assert rule_ids(result) == ["CHX007"]

    def test_check_paths_walks_directories(self, tmp_path):
        package = tmp_path / "sim"
        package.mkdir()
        (package / "bad.py").write_text("time.time()\n")
        (package / "good.py").write_text("x = 1\n")
        result = LintEngine().check_paths([str(tmp_path)])
        assert result.files_checked == 2
        assert rule_ids(result) == ["CHX001"]

    def test_rule_table_covers_all_rules(self):
        # Removed ids are never reused (test_removed_rule_ids_are_unknown_again).
        kept = [f"CHX{n:03d}" for n in (1, 3, 5, 6, 7, 10, 11, 16, 18, 20, 21)]
        assert [rule.rule_id for rule in default_rules()] == kept
        assert sorted(RULE_TABLE) == kept
        assert LintEngine().check_source("x = 1\n").clean

    def test_syntax_error_reported_whatever_rules_are_selected(self, tmp_path):
        # The index used to drop an unparsable file silently, so a
        # whole-program --rules subset passed it.
        write_tree(tmp_path, {"core/bad.py": "def f(:\n", "core/ok.py": "x = 1\n"})
        for rule_id in ("CHX001", "CHX021"):
            rules = [r for r in default_rules() if r.rule_id == rule_id]
            result = LintEngine(rules).check_paths([str(tmp_path)])
            assert rule_ids(result) == ["CHX000"]
            assert result.findings[0].file.endswith("bad.py")
            assert result.files_checked == 2

    def test_overlapping_paths_check_each_file_once(self, tmp_path):
        write_tree(
            tmp_path, {"core/w.py": "import time\nt0 = time.time()\n"}
        )
        result = LintEngine().check_paths(
            [str(tmp_path), str(tmp_path / "core"), str(tmp_path / "core/w.py")]
        )
        assert [(f.rule_id, f.line) for f in result.findings] == [
            ("CHX001", 1), ("CHX001", 2),
        ]
        assert result.files_checked == 1

    def test_same_dotted_name_in_two_directories_reaches_every_rule(
        self, tmp_path
    ):
        # Neither directory is a package, so both files are module "a".
        source = "import random\nx = random.random()\n"
        write_tree(tmp_path, {"x/core/a.py": source, "y/core/a.py": source})
        result = LintEngine().check_paths([str(tmp_path)])
        assert [
            (Path(f.file).relative_to(tmp_path).as_posix(), f.rule_id)
            for f in result.findings
        ] == [("x/core/a.py", "CHX018"), ("y/core/a.py", "CHX018")]
        assert result.files_checked == 2


# ---------------------------------------------------------------------------
# Output formats


class TestFormats:
    FINDINGS = [
        Finding(file="src/repro/sim/x.py", line=3, rule_id="CHX001",
                severity="error", message="wall-clock call, bad: really"),
    ]

    def test_text_format(self):
        text = format_text(self.FINDINGS)
        assert text == (
            "src/repro/sim/x.py:3: CHX001 [error] "
            "wall-clock call, bad: really"
        )

    def test_json_format_round_trips(self):
        document = json.loads(format_json(self.FINDINGS, suppressed=2))
        assert document["count"] == 1
        assert document["suppressed"] == 2
        assert document["findings"][0]["rule_id"] == "CHX001"
        assert document["findings"][0]["line"] == 3

    def test_github_format_escapes_properties(self):
        line = format_github(self.FINDINGS)
        assert line.startswith(
            "::error file=src/repro/sim/x.py,line=3,title=CHX001::"
        )
        assert "wall-clock call%2C bad%3A really" in line

    def test_empty_findings_format_empty(self):
        assert format_text([]) == ""
        assert format_github([]) == ""


# ---------------------------------------------------------------------------
# CLI entry point


class TestCheckCommand:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["check", str(tmp_path)]) == 0

    def test_exit_nonzero_on_findings(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text("import time\ntime.time()\n")
        assert main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "CHX001" in out

    def test_json_format(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text("time.time()\n")
        assert main(["check", str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 1

    def test_github_format(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text("import time\ntime.time()\n")
        assert main(["check", str(tmp_path), "--format", "github"]) == 1
        assert capsys.readouterr().out.startswith("::error file=")

    def test_rules_filter(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text("import time\ntime.time()\n")
        assert main(["check", str(tmp_path), "--rules", "CHX003"]) == 0

    def test_unknown_rule_id_exits_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path), "--rules", "CHX999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule ids: CHX999" in err
        assert "CHX011" in err  # project rule ids are known too

    @pytest.mark.parametrize(
        "rule_id",
        [f"CHX{n:03d}" for n in (2, 4, 8, 9, 12, 13, 14, 15, 17, 19, 22, 23)],
    )
    def test_removed_rule_ids_are_unknown_again(
        self, tmp_path, capsys, rule_id
    ):
        assert main(["check", str(tmp_path), "--rules", rule_id]) == 2
        assert f"unknown rule ids: {rule_id}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--rules", "CHX001"], ["--rules", "CHX021"]],
        ids=["local", "deep"],
    )
    def test_missing_path_exits_2_without_traceback(
        self, tmp_path, capsys, extra
    ):
        missing = str(tmp_path / "nonexistent")
        assert main(["check", missing, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"check: no such file or directory: {missing}\n"
        )
        assert captured.out == ""

    def test_stats_prints_per_rule_counts(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text(
            "time.time()\n"
            "time.monotonic()  # chaos: ignore[CHX001] fixture\n"
        )
        assert main(["check", str(tmp_path), "--stats"]) == 1
        err = capsys.readouterr().err
        assert "CHX001: 1 finding(s), 1 suppressed" in err

    def test_stats_in_json_document(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "bad.py").write_text("time.time()\n")
        assert main(["check", str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["rule_stats"]["CHX001"]["findings"] == 1

    def test_whole_program_rule_id_runs_alone(self, tmp_path, capsys):
        # A whole-program id never silently checks nothing.
        node = tmp_path / "sim" / "node.py"
        node.parent.mkdir()
        node.write_text(
            "def fetch(network):\n"
            "    delivered = network.send(\n"
            "        src=0, dst=1, service='w', kind='read', size=8,\n"
            "    )\n"
            "    yield delivered\n"
        )
        code = main(
            ["check", str(tmp_path), "--rules", "CHX021", "--format", "json"]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["rule_id"] for f in document["findings"]] == ["CHX021"]

    @pytest.mark.parametrize("flag", ["--deep", "--cache-dir=x"])
    def test_engine_options_are_gone(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", str(tmp_path), flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_overlapping_path_arguments_report_once(self, tmp_path, capsys):
        write_tree(
            tmp_path, {"core/w.py": "import time\nt0 = time.time()\n"}
        )
        assert main(["check", str(tmp_path), str(tmp_path / "core")]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("CHX001") == 2
        assert "2 finding(s), 0 suppressed, 1 file(s) checked" in captured.err


# ---------------------------------------------------------------------------
# Docs: README's rule table lists exactly the rules that exist


def test_readme_rule_table_matches_the_engine():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = set(
        re.findall(r"^\| (CHX\d{3}) \|", readme.read_text(), re.MULTILINE)
    )
    assert documented == set(RULE_TABLE)


# ---------------------------------------------------------------------------
# Self-host: the repository's own source must be clean (tier 1)


class TestSelfHost:
    def test_repro_source_tree_has_no_unsuppressed_findings(self):
        """The repo self-hosts every rule: no finding at all, and no
        baseline to hide one in."""
        source_root = Path(repro.__file__).parent
        result = LintEngine().check_paths([str(source_root)])
        assert result.findings == [], format_text(result.findings)
        assert result.files_checked > 50
        # Known, justified suppressions only (each carries an inline
        # ``chaos: ignore`` with a reason next to it in the source): the
        # fuzzer's host-side crash classifier (CHX006), the CHX010 barrier
        # branch, the two integer-sum CHX016 folds and the engine main
        # process's three bare waits (CHX021), which the rollback fence
        # or a fault-free run make safe.
        assert sorted(f.rule_id for f in result.suppressed) == [
            "CHX006", "CHX010", "CHX016", "CHX016",
            "CHX021", "CHX021", "CHX021",
        ]
        assert result.resolution["project_resolution_fraction"] >= 0.95
