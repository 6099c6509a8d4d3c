"""Protocol facts, trace conformance and the protocol rules.

Two layers of :mod:`repro.analysis.protocol` plus its rule/CLI surface:

* the fact-finding helper sees service registrations (epoch fences)
  in fixture packages, asserted through the findings of CHX020
  (``tests/test_rule_mutations.py`` plants the same defects in the real
  ``src/`` registrations); blocking waits are not judged, because the
  rollback fence ends every wait of a failed epoch;
* the conformance checker replays causal DAGs — real traced runs and
  synthetic event lists — against the declared message kinds
  (``repro.net.transport.MESSAGE_KINDS``);
* rule CHX020 fires exactly on planted fixture sites and honors
  suppressions, and the ``trace conform`` CLI verb exits and reports
  correctly.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import PageRank
from repro.analysis import RULE_TABLE
from repro.analysis.protocol import conform
from repro.cli import main
from repro.core.runtime import run_algorithm
from repro.faults.fuzz import ChaosFuzzer
from repro.net.transport import MESSAGE_KINDS
from repro.obs import Tracer, write_chrome_trace
from repro.obs.causal import causal_events_from_trace
from repro.obs.export import chrome_trace_dict

from tests.conftest import assert_usage_error, fast_config
from tests.test_flow import build_pkg, check_tree, findings_of


# ---------------------------------------------------------------------------
# Registrations and waits in a fixture package
# ---------------------------------------------------------------------------


PROTOCOL_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/wire.py": """\
        SERVICE_ALPHA = "alpha"
        KIND_PING = "ping"


        def patient_sleep(seconds):
            return seconds


        class Message:
            def __init__(self, src, dst, service, kind, size):
                self.kind = kind
        """,
    "proj/sim/node.py": """\
        from proj.sim import wire


        class Server:
            def __init__(self, network, machine):
                self.epoch = 0
                network.register(
                    machine, wire.SERVICE_ALPHA,
                    {"ping": self._ping, "share": self._share},
                    self._admit,
                )

            def _admit(self, message):
                return message.epoch == self.epoch

            def _ping(self, message):
                self._count = 1

            def _share(self, message):
                self._count = 2


        class Client:
            def __init__(self, network):
                self.network = network

            def ping(self, src, dst, epoch):
                delivered = self.network.send(
                    src=src, dst=dst, service="alpha",
                    kind=wire.KIND_PING, size=8, epoch=epoch,
                )
                yield delivered

            def offer(self, src, dst, big):
                kind = "share" if big else "accept"
                self.network.send(
                    src=src, dst=dst, service="alpha", kind=kind, size=8,
                )

            def patient_ping(self, src, dst):
                delivered = self.network.send(
                    src=src, dst=dst, service="alpha", kind="ping",
                    size=8,
                )
                wire.patient_sleep(0.1)
                yield delivered

            def local_ping(self, src):
                delivered = self.network.send(
                    src=src, dst=src, service="alpha", kind="ping",
                    size=8,
                )
                yield delivered


        class Bystander:
            def quiet(self):
                return 1
        """,
}


#: The Server's epoch fence, which :func:`_unfence` deletes.
FENCE = "                    self._admit,\n"


def _protocol_findings(tmp_path, files=PROTOCOL_FIXTURE):
    """``(rule id, reporting function, line)`` of each CHX020 finding,
    sorted."""
    build_pkg(tmp_path, files)
    result = check_tree(tmp_path, rules={"CHX020"})
    return sorted(
        (f.rule_id, f.message.split(" ")[0].rsplit(".", 1)[-1], f.line)
        for f in result.findings
    )


def _unfence(files=PROTOCOL_FIXTURE):
    node = files["proj/sim/node.py"]
    assert node.count(FENCE) == 1
    return {**files, "proj/sim/node.py": node.replace(FENCE, "")}


class TestExtraction:
    def test_roles_pruned_to_protocol_participants(self, tmp_path):
        # Only the class with a registration can report: the Client's
        # bare waits and the Bystander never do, even unfenced.
        findings = _protocol_findings(tmp_path, _unfence())
        assert {name for _, name, _ in findings} == {"__init__"}

    def test_receive_loop_epoch_guard(self, tmp_path):
        # The fenced registration of an epoch-aware role is clean;
        # without its fence the same registration reports.
        assert _protocol_findings(tmp_path) == []
        unfenced = _protocol_findings(tmp_path / "unfenced", _unfence())
        assert [f[:2] for f in unfenced] == [("CHX020", "__init__")]


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------


def _msg(cat, src=0, dst=1, t1=1.0, ident=0):
    return {
        "kind": "msg", "cat": cat, "src": src, "dst": dst,
        "size": 8, "t0": 0.0, "t1": t1, "id": ident,
    }


def _arrive(machine, ident, barrier="e0/loop/0", t0=0.5):
    return {
        "kind": "arrive", "cat": "barrier", "machine": machine,
        "barrier": barrier, "id": ident, "t0": t0,
    }


def _release(parents, barrier="e0/loop/0", t0=1.0, ident=99):
    return {
        "kind": "release", "cat": "barrier", "barrier": barrier,
        "parents": list(parents), "id": ident, "t0": t0,
    }


#: Every kind some service declares (a trace records no service).
DECLARED = frozenset().union(*MESSAGE_KINDS.values())


class TestConformance:
    def test_modeled_traffic_conforms(self):
        report = conform(
            [_msg(kind, ident=i) for i, kind in enumerate(sorted(DECLARED))]
        )
        assert report.ok
        assert not report.stuck
        assert report.unmodeled == []
        assert report.observed == {kind: 1 for kind in DECLARED}
        assert report.unobserved == []

    def test_unmodeled_kind_fails(self):
        report = conform([_msg("write_ack"), _msg("write_akc", ident=1)])
        assert not report.ok
        assert report.unmodeled == ["write_akc"]
        assert "UNMODELED" in report.format_text()

    def test_unobserved_kinds_are_coverage_not_failure(self):
        report = conform([_msg("steal_request")])
        assert report.ok
        assert report.unobserved == sorted(DECLARED - {"steal_request"})
        assert "never observed" in report.format_text()

    def test_release_missing_arrival_parent_is_violation(self):
        events = [_arrive(0, 1), _arrive(1, 2), _release([1])]
        report = conform(events)
        assert not report.ok
        (violation,) = report.barrier_violations
        assert "machine 1" in violation
        assert "missing from release parents" in violation

    def test_arrival_after_release_is_violation(self):
        events = [
            _arrive(0, 1),
            _arrive(1, 2, t0=2.0),  # arrives after the release stamp
            _release([1, 2], t0=1.0),
        ]
        report = conform(events)
        assert not report.ok
        (violation,) = report.barrier_violations
        assert "after release" in violation

    def test_consistent_barrier_round_passes(self):
        events = [_arrive(0, 1), _arrive(1, 2), _release([1, 2])]
        report = conform(events)
        assert report.ok and not report.barrier_violations

    def test_stuck_message_named_for_deadlock_capture(self):
        report = conform([_msg("steal_request", t1=None)])
        assert report.ok  # incomplete, not nonconforming
        assert report.stuck
        assert report.stuck_messages == ["steal_request m0->m1"]
        assert "never delivered" in report.format_text()

    def test_stuck_barrier_names_the_waiters(self):
        report = conform([_arrive(0, 1), _arrive(1, 2)])
        assert report.stuck
        (stuck,) = report.stuck_barriers
        assert stuck == "e0/loop/0 waited on by m0, m1"

    def test_real_traced_run_conforms_to_self_host_model(self, small_graph):
        tracer = Tracer(sample_interval=None)
        config = fast_config(2, seed=11)
        run_algorithm(
            PageRank(iterations=2), small_graph, config, tracer=tracer
        )
        events = causal_events_from_trace(chrome_trace_dict(tracer))
        report = conform(events)
        assert report.ok, report.format_text()
        assert report.unmodeled == []
        assert not report.barrier_violations
        assert report.observed  # messages actually flowed


# ---------------------------------------------------------------------------
# Protocol rule CHX020
# ---------------------------------------------------------------------------


CHX020_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/node.py": """\
        class Fenced:
            def __init__(self, network, machine):
                self.epoch = 0
                network.register(machine, "work", {"task": self._task},
                                 self._admit)

            def _admit(self, message):
                return message.epoch >= self.epoch

            def _task(self, message):
                self.epoch += 1


        class Unfenced:
            def __init__(self, network, machine):
                self.epoch = 0
                network.register(machine, "jobs", {"task": self._task})

            def _task(self, message):
                self.epoch += 1


        class NoneFenced:
            def __init__(self, network, machine):
                self.epoch = 0
                network.register(machine, "jobs", {"task": print}, fence=None)


        class OpenFenced:
            def __init__(self, network, machine):
                self.epoch = 0
                network.register(machine, "jobs", {"task": print}, self._open)

            def _open(self, message):
                return message.size >= 0


        class LentFence:
            def __init__(self, network, machine, fence):
                self.epoch = 0
                network.register(machine, "jobs", {"task": print}, fence)


        class Carefree:
            def __init__(self, network, machine):
                network.register(machine, "beat", {"beat": self._beat})

            def _beat(self, message):
                self._last = message
        """,
}


class TestCHX020:
    def test_only_the_unfenced_epoch_aware_loop_reports(self, tmp_path):
        build_pkg(tmp_path, CHX020_FIXTURE)
        result = check_tree(tmp_path, rules={"CHX020"})
        found = findings_of(result, "CHX020")
        assert [f.message.split(" ")[0] for f in found] == [
            "proj.sim.node.Unfenced.__init__",
            "proj.sim.node.NoneFenced.__init__",
            "proj.sim.node.OpenFenced.__init__",
        ]
        assert all("message.epoch" in f.message for f in found)
        assert all(f.severity == "error" for f in found)

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX020_FIXTURE)
        node = files["proj/sim/node.py"]
        for line in (
            '                network.register(machine, "jobs", {"task": self._task})\n',
            '                network.register(machine, "jobs", {"task": print}, fence=None)\n',
            '                network.register(machine, "jobs", {"task": print}, self._open)\n',
        ):
            assert node.count(line) == 1
            node = node.replace(
                line, line[:-1] + "  # chaos: ignore[CHX020] fixture\n"
            )
        files["proj/sim/node.py"] = node
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX020"})
        assert findings_of(result, "CHX020") == []


LOPSIDED_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/eng.py": """\
        class Engine:
            def __init__(self, barrier):
                self.barrier = barrier

            def lopsided(self, flag):
                if flag:
                    self.barrier.wait()
                return 1

            def uneven_counts(self, flag):
                if flag:
                    self.barrier.wait()
                    self.barrier.wait()
                else:
                    self.barrier.wait()
                return 1
        """,
}


class TestCHX022:
    """CHX022 (removed) flagged the presence-vs-absence subset of
    CHX010's divergences; CHX010 reports every such ``if`` at the same
    line, so the lopsided shape stays covered by CHX010 alone."""

    def test_chx010_still_sees_the_sequence_mismatch(self, tmp_path):
        # Both the lopsided arrive (line 6) and the count divergence
        # (line 11) are CHX010 findings.
        build_pkg(tmp_path, LOPSIDED_FIXTURE)
        result = check_tree(tmp_path, rules={"CHX010"})
        assert [f.line for f in findings_of(result, "CHX010")] == [6, 11]

    def test_suppression_honored(self, tmp_path):
        files = dict(LOPSIDED_FIXTURE)
        files["proj/sim/eng.py"] = files["proj/sim/eng.py"].replace(
            "                if flag:\n"
            "                    self.barrier.wait()\n"
            "                return 1",
            "                if flag:  # chaos: ignore[CHX010] fixture\n"
            "                    self.barrier.wait()\n"
            "                return 1",
            1,
        )
        build_pkg(tmp_path, files)
        result = check_tree(tmp_path, rules={"CHX010"})
        assert [f.line for f in findings_of(result, "CHX010")] == [11]
        assert [f.line for f in result.suppressed] == [6]


class TestRuleRegistration:
    def test_protocol_rules_in_table_with_titles(self):
        assert RULE_TABLE["CHX020"] == (
            "service registered without an epoch fence"
        )
        assert "CHX021" not in RULE_TABLE


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestProtocolCLI:
    def test_trace_conform_cli_passes_on_real_trace(
        self, tmp_path, small_graph, capsys
    ):
        tracer = Tracer(sample_interval=None)
        run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(2, seed=11),
            tracer=tracer,
        )
        trace_path = tmp_path / "run.trace.json"
        write_chrome_trace(tracer, str(trace_path))

        report_path = tmp_path / "conformance.json"
        code = main([
            "trace", "conform", str(trace_path),
            "--report-json", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace conformance: PASS" in out
        assert "unmodeled transitions: none" in out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["unmodeled"] == []

    def test_trace_conform_fails_on_unmodeled_traffic(
        self, tmp_path, small_graph, capsys
    ):
        tracer = Tracer(sample_interval=None)
        run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(2, seed=11),
            tracer=tracer,
        )
        trace = chrome_trace_dict(tracer)
        for event in trace["causalEvents"]:
            if event.get("kind") == "msg":
                event["cat"] = "write_akc"
                break
        trace_path = tmp_path / "doctored.trace.json"
        trace_path.write_text(json.dumps(trace))
        code = main(["trace", "conform", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "write_akc" in out

    @pytest.mark.parametrize("flag", ["--src", "--cache-dir", "--model-json"])
    def test_source_options_are_gone(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "conform", str(tmp_path / "t.json"), flag, "x"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_trace_conform_rejects_causal_less_trace(self, tmp_path, capsys):
        stub = tmp_path / "plain.trace.json"
        stub.write_text(json.dumps({"traceEvents": []}))
        assert_usage_error(
            capsys, ["trace", "conform", str(stub)],
            "causalEvents",
        )

    def test_trace_conform_rejects_unreadable_trace(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.trace.json"
        garbage.write_text("{not json")
        for path in (garbage, tmp_path / "missing.trace.json"):
            assert_usage_error(
                capsys, ["trace", "conform", str(path)],
                f"cannot read trace {str(path)!r}",
            )


# ---------------------------------------------------------------------------
# Fuzz deadlock capture
# ---------------------------------------------------------------------------


class TestFuzzTraceCapture:
    def test_capture_trace_writes_causal_events(self, tmp_path, small_graph):
        fuzzer = ChaosFuzzer(
            lambda: PageRank(iterations=2),
            small_graph,
            fast_config(2, checkpointing=True, seed=7),
            seed=3, max_specs=2, max_iteration=1,
        )
        path = tmp_path / "episode.trace.json"
        outcome = fuzzer.capture_trace(None, str(path))
        assert outcome == "ok"
        trace = json.loads(path.read_text())
        assert trace["causalEvents"]
        assert conform(causal_events_from_trace(trace)).ok

    def test_fuzz_cli_writes_trace_next_to_deadlock_reproducer(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.faults import FaultPlan, parse_fault_spec
        from repro.faults import fuzz as fuzz_mod

        plan = FaultPlan([parse_fault_spec("crash-restart:0@iter=1")])
        violation = fuzz_mod.Violation(
            episode=fuzz_mod.EpisodeResult(
                index=4, plan=plan, outcome=fuzz_mod.OUTCOME_DEADLOCK,
                detail="wedged", recoveries=0,
            ),
            shrunk=plan,
            shrunk_outcome=fuzz_mod.OUTCOME_DEADLOCK,
            shrink_runs=1,
        )
        report = fuzz_mod.FuzzReport(
            seed=3, episodes=[violation.episode],
            violations=[violation],
        )
        monkeypatch.setattr(
            fuzz_mod.ChaosFuzzer, "run_campaign",
            lambda self, episodes: report,
        )
        captured = {}

        def fake_capture(self, shrunk_plan, path):
            captured["plan"] = shrunk_plan
            captured["path"] = path
            return fuzz_mod.OUTCOME_DEADLOCK

        monkeypatch.setattr(
            fuzz_mod.ChaosFuzzer, "capture_trace", fake_capture
        )
        code = main([
            "fuzz", "--episodes", "1", "--scale", "6", "--seed", "3",
            "--out-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 1  # violations fail the campaign
        assert captured["plan"] is plan
        assert captured["path"] == str(
            tmp_path / "fuzz-repro-s3-e4.trace.json"
        )
        assert "deadlock causal trace ->" in out
        # The reproducer itself still lands beside the trace.
        assert (tmp_path / "fuzz-repro-s3-e4.faults").exists()
