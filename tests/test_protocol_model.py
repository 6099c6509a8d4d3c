"""Protocol state-machine extraction, model checking, conformance.

Four layers of :mod:`repro.analysis.protocol` plus its rule/CLI
surface:

* the extractor lifts per-role machines from fixture packages (mailbox
  bindings, dispatch loops, epoch fences, sends, barriers, waits, and
  ``PROTOCOL_TRANSITIONS`` annotations) and from ``src/`` itself;
* the bounded model checker proves the self-hosted model deadlock-free
  at m=2 and reports counterexamples when override knobs plant
  violations (lost wakeup, skipped arrive, premature release, dropped
  epoch guard);
* the conformance checker replays causal DAGs — real traced runs and
  synthetic event lists — against the model;
* rules CHX019-CHX023 fire exactly on planted fixture sites, honor
  suppressions, and the ``check --protocol`` / ``trace conform`` CLI
  verbs exit and export correctly.
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import PageRank
from repro.analysis.flow import DeepEngine, ProjectIndex
from repro.analysis.flow.rules import ANALYZER_VERSION, DEEP_RULE_TABLE
from repro.analysis.protocol import (
    BarrierOp,
    ProtocolModel,
    ReceiveLoop,
    SendOp,
    check_protocol,
    conform,
    conform_trace,
    extract_model,
)
from repro.cli import main
from repro.core.runtime import run_algorithm
from repro.faults.fuzz import ChaosFuzzer
from repro.obs import Tracer, write_chrome_trace
from repro.obs.causal import causal_events_from_trace
from repro.obs.export import chrome_trace_dict

from tests.conftest import fast_config
from tests.test_flow import build_pkg, deep_check, findings_of


@pytest.fixture(scope="module")
def src_index():
    return ProjectIndex.build(["src"])


@pytest.fixture(scope="module")
def src_model(src_index):
    return extract_model(src_index)


# ---------------------------------------------------------------------------
# Extraction on a fixture package
# ---------------------------------------------------------------------------


PROTOCOL_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/wire.py": """\
        SERVICE_ALPHA = "alpha"
        KIND_PING = "ping"

        PROTOCOL_TRANSITIONS = {
            "send": "msg.send",
            "patient_sleep": "timeout.backoff",
        }


        class Message:
            def __init__(self, src, dst, service, kind, size):
                self.kind = kind
        """,
    "proj/sim/node.py": """\
        from proj.sim import wire


        class Server:
            def __init__(self, network, machine):
                self.epoch = 0
                self._mailbox = network.register(
                    machine, wire.SERVICE_ALPHA
                )

            def _serve(self):
                while True:
                    message = yield self._mailbox.get()
                    if message.epoch != self.epoch:
                        continue
                    kind = message.kind
                    if kind == "ping":
                        self._count = 1
                    elif kind in ("share", "accept"):
                        self._count = 2


        class Client:
            def __init__(self, network, host):
                self.network = network
                self.host = host

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

            def loop(self):
                self.host.barrier_arrive("step")
                self.host.barrier.wait()


        class Bystander:
            def quiet(self):
                return 1
        """,
}


def _fixture_model(tmp_path, files=PROTOCOL_FIXTURE):
    build_pkg(tmp_path, files)
    return extract_model(ProjectIndex.build([str(tmp_path)]))


class TestExtraction:
    def test_roles_pruned_to_protocol_participants(self, tmp_path):
        model = _fixture_model(tmp_path)
        assert set(model.roles) == {"Server", "Client"}

    def test_mailbox_binding_names_the_service(self, tmp_path):
        model = _fixture_model(tmp_path)
        assert model.roles["Server"].services == ("alpha",)
        assert model.service_owner("alpha") == "Server"

    def test_receive_loop_kinds_and_epoch_guard(self, tmp_path):
        model = _fixture_model(tmp_path)
        (loop,) = model.roles["Server"].receives
        assert loop.service == "alpha"
        assert loop.kinds == ("accept", "ping", "share")
        assert not loop.wildcard
        assert loop.epoch_guard
        assert loop.epoch_aware
        assert loop.handles("ping") and not loop.handles("nudge")

    def test_send_kind_resolution_paths(self, tmp_path):
        model = _fixture_model(tmp_path)
        sends = {op.qualname.rsplit(".", 1)[-1]: op
                 for op in model.roles["Client"].sends}
        # Imported-constant kind + epoch stamp.
        assert sends["ping"].kinds == ("ping",)
        assert sends["ping"].kinds_complete
        assert sends["ping"].has_epoch
        assert sends["ping"].remote
        assert sends["ping"].service == "alpha"
        # Conditional-expression kind resolves both arms.
        assert sends["offer"].kinds == ("accept", "share")
        assert sends["offer"].kinds_complete
        # Same src and dst expression: not remote.
        assert not sends["local_ping"].remote

    def test_waits_remote_and_timeout_flags(self, tmp_path):
        model = _fixture_model(tmp_path)
        waits = {w.qualname.rsplit(".", 1)[-1]: w
                 for w in model.all_waits()}
        assert set(waits) == {"ping", "patient_ping", "local_ping"}
        assert waits["ping"].remote and not waits["ping"].has_timeout
        # Declared timeout helper (PROTOCOL_TRANSITIONS label) counts
        # as a liveness escape.
        assert waits["patient_ping"].has_timeout
        assert not waits["local_ping"].remote

    def test_barrier_ops_extracted(self, tmp_path):
        model = _fixture_model(tmp_path)
        ops = sorted(op.op for op in model.all_barriers())
        assert ops == ["arrive", "wait"]

    def test_declared_annotations_collected(self, tmp_path):
        model = _fixture_model(tmp_path)
        assert model.declared["proj.sim.wire"] == {
            "send": "msg.send",
            "patient_sleep": "timeout.backoff",
        }

    def test_alphabet_and_stats(self, tmp_path):
        model = _fixture_model(tmp_path)
        assert model.alphabet() == {"ping", "share", "accept"}
        stats = model.stats()
        assert stats["roles"] == 2
        assert stats["sends"] == 4
        assert stats["receives"] == 1
        assert stats["barriers"] == 2
        assert stats["waits"] == 3
        assert stats["kinds"] == 3

    def test_to_dict_is_json_serializable(self, tmp_path):
        model = _fixture_model(tmp_path)
        blob = json.loads(json.dumps(model.to_dict(), sort_keys=True))
        assert blob["model_version"] == 1
        assert blob["alphabet"] == ["accept", "ping", "share"]
        assert set(blob["roles"]) == {"Server", "Client"}

    def test_to_dot_draws_the_message_graph(self, tmp_path):
        dot = _fixture_model(tmp_path).to_dot()
        assert dot.startswith("digraph protocol {")
        assert dot.rstrip().endswith("}")
        # Epoch-stamped ping edge from sender to service owner.
        assert '"Client" -> "Server" [label="ping [e]"]' in dot
        assert '"Client" -> "barrier"' in dot
        assert '"barrier" [shape=doublecircle' in dot


class TestSelfHostExtraction:
    def test_every_surviving_role_has_protocol_ops(self, src_model):
        for role in src_model.roles.values():
            assert (
                role.sends or role.receives or role.barriers
                or role.waits or role.services
            ), f"empty role {role.name} survived pruning"

    def test_core_protocol_vocabulary_extracted(self, src_model):
        assert {
            "steal_request", "steal_reply", "read", "read_reply",
            "write", "write_ack", "accum",
        } <= src_model.alphabet()

    def test_engine_services_bound_to_owners(self, src_model):
        assert src_model.service_owner("directory") is not None
        assert src_model.handlers_for("directory")

    def test_transport_and_retry_annotations_declared(self, src_model):
        assert (
            src_model.declared["repro.net.transport"]["send"]
            == "msg.send"
        )
        assert (
            src_model.declared["repro.net.retry"]["jittered_delay"]
            == "timeout.backoff"
        )

    def test_epoch_fences_extracted_from_dispatch_loops(self, src_model):
        guarded = [
            loop for loop in src_model.all_receives()
            if loop.epoch_aware and loop.epoch_guard
        ]
        assert guarded, "no epoch-guarded receive loop extracted"

    def test_steal_sends_carry_liveness_escape(self, src_model):
        steal_sends = [
            op for op in src_model.all_sends()
            if "steal_request" in op.kinds
        ]
        assert steal_sends
        assert all(op.liveness for op in steal_sends)


# ---------------------------------------------------------------------------
# Bounded model checker
# ---------------------------------------------------------------------------


def _mc_model(liveness=True, guard=True, steal=True, barrier=True):
    """A hand-built minimal model with the Chaos protocol features."""
    model = ProtocolModel()
    role = model.role("Compute")
    role.services = ("compute",)
    kinds = ("steal_request", "steal_reply") if steal else ()
    for kind in kinds:
        role.sends.append(SendOp(
            role="Compute", qualname=f"Compute.send_{kind}", file="x.py",
            line=1, service="compute", kinds=(kind,), kinds_complete=True,
            has_epoch=True, remote=True, liveness=liveness,
        ))
    role.receives.append(ReceiveLoop(
        role="Compute", qualname="Compute._serve", file="x.py", line=2,
        service="compute", kinds=kinds, wildcard=not kinds,
        epoch_guard=guard, epoch_aware=True,
    ))
    if barrier:
        role.barriers.append(BarrierOp(
            role="Compute", qualname="Compute.loop", file="x.py",
            line=3, op="arrive",
        ))
    return model


def _prop(result, name):
    (prop,) = [p for p in result.properties if p.name == name]
    return prop


class TestModelChecker:
    def test_minimal_model_passes_all_properties(self):
        result = check_protocol(_mc_model(), machines=2)
        assert result.ok
        assert result.states > 10
        assert result.transitions > result.states
        assert [p.ok for p in result.properties] == [True] * 5
        assert result.features == {
            "steal_stage": True,
            "steal_timeout": True,
            "barrier": True,
            "stale_injection": True,
        }

    def test_barrier_only_model_passes(self):
        result = check_protocol(_mc_model(steal=False), machines=2)
        assert result.ok
        assert not result.features["steal_stage"]
        assert not result.features["stale_injection"]

    def test_missing_timeout_loses_wakeups_and_deadlocks(self):
        result = check_protocol(
            _mc_model(), machines=2, override={"steal_timeout": False}
        )
        assert not result.ok
        wakeup = _prop(result, "no_lost_wakeup")
        assert not wakeup.ok
        assert wakeup.counterexample  # a concrete interleaving
        assert any("lose" in step for step in wakeup.counterexample)
        assert not _prop(result, "deadlock_freedom").ok

    def test_skipped_arrive_deadlocks_the_barrier(self):
        result = check_protocol(
            _mc_model(), machines=2, override={"skip_arrive": True}
        )
        deadlock = _prop(result, "deadlock_freedom")
        assert not deadlock.ok
        assert any(
            "WITHOUT arrive" in step for step in deadlock.counterexample
        )

    def test_premature_release_breaks_consensus(self):
        result = check_protocol(
            _mc_model(), machines=2, override={"premature_release": True}
        )
        assert not _prop(result, "barrier_consensus").ok

    def test_dropped_epoch_guard_admits_stale_traffic(self):
        result = check_protocol(
            _mc_model(), machines=2, override={"drop_epoch_guard": True}
        )
        fencing = _prop(result, "epoch_fencing")
        assert not fencing.ok
        assert any("ACCEPTED" in step for step in fencing.counterexample)

    def test_unguarded_model_fails_fencing_without_override(self):
        result = check_protocol(_mc_model(guard=False), machines=2)
        assert not _prop(result, "epoch_fencing").ok

    def test_state_budget_enforced(self):
        with pytest.raises(RuntimeError, match="state space exceeded"):
            check_protocol(_mc_model(), machines=3, max_states=20)

    def test_format_text_and_to_dict(self):
        result = check_protocol(_mc_model(), machines=2)
        text = result.format_text()
        assert "model check: m=2" in text
        assert "verdict: PASS" in text
        blob = json.loads(json.dumps(result.to_dict()))
        assert blob["ok"] is True
        assert len(blob["properties"]) == 5

        bad = check_protocol(
            _mc_model(), machines=2, override={"premature_release": True}
        )
        assert "verdict: FAIL" in bad.format_text()
        assert "[FAIL]" in bad.format_text()

    def test_self_hosted_model_is_deadlock_free_at_m2(self, src_model):
        result = check_protocol(src_model, machines=2)
        assert result.ok, result.format_text()
        assert result.states > 100
        assert result.features["steal_stage"]
        assert result.features["steal_timeout"]
        assert result.features["barrier"]


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


class TestConformance:
    def test_modeled_traffic_conforms(self):
        report = conform(
            [_msg("steal_request"), _msg("steal_reply", src=1, dst=0)],
            _mc_model(),
        )
        assert report.ok
        assert not report.stuck
        assert report.unmodeled == []
        assert report.observed == {"steal_request": 1, "steal_reply": 1}
        assert report.unobserved == []

    def test_unmodeled_kind_fails(self):
        report = conform([_msg("mystery")], _mc_model())
        assert not report.ok
        assert report.unmodeled == ["mystery"]
        assert "UNMODELED" in report.format_text()

    def test_unobserved_kinds_are_coverage_not_failure(self):
        report = conform([_msg("steal_request")], _mc_model())
        assert report.ok
        assert report.unobserved == ["steal_reply"]
        assert "never observed" in report.format_text()

    def test_release_missing_arrival_parent_is_violation(self):
        events = [_arrive(0, 1), _arrive(1, 2), _release([1])]
        report = conform(events, _mc_model())
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
        report = conform(events, _mc_model())
        assert not report.ok
        (violation,) = report.barrier_violations
        assert "after release" in violation

    def test_consistent_barrier_round_passes(self):
        events = [_arrive(0, 1), _arrive(1, 2), _release([1, 2])]
        report = conform(events, _mc_model())
        assert report.ok and not report.barrier_violations

    def test_stuck_message_named_for_deadlock_capture(self):
        report = conform([_msg("steal_request", t1=None)], _mc_model())
        assert report.ok  # incomplete, not nonconforming
        assert report.stuck
        assert report.stuck_messages == ["steal_request m0->m1"]
        assert "never delivered" in report.format_text()

    def test_stuck_barrier_names_the_waiters(self):
        report = conform([_arrive(0, 1), _arrive(1, 2)], _mc_model())
        assert report.stuck
        (stuck,) = report.stuck_barriers
        assert stuck == "e0/loop/0 waited on by m0, m1"

    def test_conform_trace_skips_causal_less_traces(self):
        assert conform_trace({"traceEvents": []}, _mc_model()) is None

    def test_real_traced_run_conforms_to_self_host_model(
        self, small_graph, src_model
    ):
        tracer = Tracer(sample_interval=None)
        config = fast_config(2, seed=11)
        run_algorithm(
            PageRank(iterations=2), small_graph, config, tracer=tracer
        )
        report = conform_trace(chrome_trace_dict(tracer), src_model)
        assert report is not None
        assert report.ok, report.format_text()
        assert report.unmodeled == []
        assert not report.barrier_violations
        assert report.observed  # messages actually flowed


# ---------------------------------------------------------------------------
# Deep rules CHX019-CHX023
# ---------------------------------------------------------------------------


CHX019_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/node.py": """\
        class Server:
            SERVICE = "alpha"

            def __init__(self, network, machine):
                self._mailbox = network.register(machine, self.SERVICE)

            def _serve(self):
                while True:
                    message = yield self._mailbox.get()
                    if message.kind == "ping":
                        self._count = 1


        class Client:
            def __init__(self, network):
                self.network = network

            def good(self, src, dst):
                self.network.send(
                    src=src, dst=dst, service="alpha", kind="ping",
                    size=8,
                )

            def bad(self, src, dst):
                self.network.send(
                    src=src, dst=dst, service="alpha", kind="pong",
                    size=8,
                )

            def opaque(self, src, dst, kind):
                self.network.send(
                    src=src, dst=dst, service="alpha", kind=kind,
                    size=8,
                )
        """,
}


class TestCHX019:
    def test_exactly_the_unhandled_kind_reports(self, tmp_path):
        build_pkg(tmp_path, CHX019_FIXTURE)
        result = deep_check(tmp_path, rules={"CHX019"})
        (found,) = findings_of(result, "CHX019")
        assert "Client.bad" in found.message
        assert "'pong'" in found.message
        assert found.severity == "error"

    def test_send_to_unregistered_service_reports(self, tmp_path):
        files = dict(CHX019_FIXTURE)
        files["proj/sim/lost.py"] = (
            "class Stray:\n"
            "    def __init__(self, network):\n"
            "        self.network = network\n"
            "\n"
            "    def shout(self, src, dst):\n"
            "        self.network.send(\n"
            "            src=src, dst=dst, service='void', kind='ping',\n"
            "            size=8,\n"
            "        )\n"
        )
        build_pkg(tmp_path, files)
        result = deep_check(tmp_path, rules={"CHX019"})
        messages = [f.message for f in findings_of(result, "CHX019")]
        assert any("no receive loop drains" in m for m in messages)

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX019_FIXTURE)
        files["proj/sim/node.py"] = files["proj/sim/node.py"].replace(
            '            def bad(self, src, dst):\n'
            '                self.network.send(\n',
            '            def bad(self, src, dst):\n'
            '                self.network.send('
            '  # chaos: ignore[CHX019] fixture\n',
        )
        build_pkg(tmp_path, files)
        result = deep_check(tmp_path, rules={"CHX019"})
        assert findings_of(result, "CHX019") == []
        assert len(result.result.suppressed) == 1


CHX020_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/node.py": """\
        class Fenced:
            def __init__(self, network, machine):
                self.epoch = 0
                self._mailbox = network.register(machine, "work")

            def _serve(self):
                while True:
                    message = yield self._mailbox.get()
                    if message.epoch < self.epoch:
                        continue
                    if message.kind == "task":
                        self.epoch += 1


        class Unfenced:
            def __init__(self, network, machine):
                self.epoch = 0
                self._box = network.register(machine, "jobs")

            def _serve(self):
                while True:
                    message = yield self._box.get()
                    if message.kind == "task":
                        self.epoch += 1


        class Carefree:
            def __init__(self, network, machine):
                self._box = network.register(machine, "beat")

            def _serve(self):
                while True:
                    message = yield self._box.get()
                    self._last = message
        """,
}


class TestCHX020:
    def test_only_the_unfenced_epoch_aware_loop_reports(self, tmp_path):
        build_pkg(tmp_path, CHX020_FIXTURE)
        result = deep_check(tmp_path, rules={"CHX020"})
        (found,) = findings_of(result, "CHX020")
        assert "Unfenced._serve" in found.message
        assert "message.epoch" in found.message
        assert found.severity == "error"

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX020_FIXTURE)
        files["proj/sim/node.py"] = files["proj/sim/node.py"].replace(
            "                    message = yield self._box.get()\n"
            "                    if message.kind == \"task\":",
            "                    message = yield self._box.get()"
            "  # chaos: ignore[CHX020] fixture\n"
            "                    if message.kind == \"task\":",
        )
        build_pkg(tmp_path, files)
        result = deep_check(tmp_path, rules={"CHX020"})
        assert findings_of(result, "CHX020") == []


CHX021_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/node.py": """\
        class Requester:
            def __init__(self, network, env):
                self.network = network
                self.env = env

            def fetch(self, src, dst):
                delivered = self.network.send(
                    src=src, dst=dst, service="w", kind="read", size=8,
                )
                yield delivered

            def fetch_guarded(self, src, dst):
                delivered = self.network.send(
                    src=src, dst=dst, service="w", kind="read", size=8,
                )
                yield self.env.any_of(
                    delivered, self.env.timeout(1.0)
                )
                yield delivered

            def fetch_local(self, src):
                delivered = self.network.send(
                    src=src, dst=src, service="w", kind="read", size=8,
                )
                yield delivered
        """,
}


class TestCHX021:
    def test_only_the_untimed_remote_wait_reports(self, tmp_path):
        build_pkg(tmp_path, CHX021_FIXTURE)
        result = deep_check(tmp_path, rules={"CHX021"})
        (found,) = findings_of(result, "CHX021")
        assert ".fetch yields" in found.message
        assert "'delivered'" in found.message
        assert found.severity == "warning"

    def test_declared_timeout_helper_exempts_the_wait(self, tmp_path):
        # patient_ping in the extraction fixture waits behind a helper
        # declared ``timeout.backoff`` in PROTOCOL_TRANSITIONS; only the
        # bare ping wait fires.
        build_pkg(tmp_path, PROTOCOL_FIXTURE)
        result = deep_check(tmp_path, rules={"CHX021"})
        (found,) = findings_of(result, "CHX021")
        assert "Client.ping" in found.message

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX021_FIXTURE)
        files["proj/sim/node.py"] = files["proj/sim/node.py"].replace(
            "                yield delivered\n\n"
            "            def fetch_guarded",
            "                yield delivered"
            "  # chaos: ignore[CHX021] fixture\n\n"
            "            def fetch_guarded",
        )
        build_pkg(tmp_path, files)
        result = deep_check(tmp_path, rules={"CHX021"})
        assert findings_of(result, "CHX021") == []


CHX022_FIXTURE = {
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
    def test_fires_only_on_presence_vs_absence(self, tmp_path):
        build_pkg(tmp_path, CHX022_FIXTURE)
        result = deep_check(tmp_path, rules={"CHX022"})
        (found,) = findings_of(result, "CHX022")
        assert found.line == 6  # lopsided's if; uneven_counts exempt
        assert "never arrive" in found.message
        assert found.severity == "error"

    def test_chx010_still_sees_the_sequence_mismatch(self, tmp_path):
        # The count divergence CHX022 ignores stays a CHX010 finding:
        # the rules partition by shape, not by site.
        build_pkg(tmp_path, CHX022_FIXTURE)
        result = deep_check(tmp_path, rules={"CHX010"})
        assert [f.line for f in findings_of(result, "CHX010")] == [6, 11]

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX022_FIXTURE)
        files["proj/sim/eng.py"] = files["proj/sim/eng.py"].replace(
            "                if flag:\n"
            "                    self.barrier.wait()\n"
            "                return 1",
            "                if flag:  # chaos: ignore[CHX022] fixture\n"
            "                    self.barrier.wait()\n"
            "                return 1",
            1,
        )
        build_pkg(tmp_path, files)
        result = deep_check(tmp_path, rules={"CHX022"})
        assert findings_of(result, "CHX022") == []


CHX023_FIXTURE = {
    "proj/__init__.py": "",
    "proj/sim/__init__.py": "",
    "proj/sim/wire.py": """\
        class Message:
            def __init__(self, src, dst, service, kind, size):
                self.kind = kind
        """,
    "proj/sim/node.py": """\
        from proj.sim.wire import Message


        class Server:
            def __init__(self, network, machine):
                self._mailbox = network.register(machine, "alpha")

            def _serve(self):
                while True:
                    message = yield self._mailbox.get()
                    if message.kind == "ping":
                        self._count = 1


        class Forge:
            def craft_ok(self):
                return Message(0, 1, "alpha", "ping", 8)

            def craft_ghost(self):
                return Message(0, 1, "alpha", "phantom", 8)

            def craft_kw(self):
                return Message(0, 1, "alpha", kind="wraith", size=8)
        """,
}


class TestCHX023:
    def test_ghost_kinds_report_modeled_kind_does_not(self, tmp_path):
        build_pkg(tmp_path, CHX023_FIXTURE)
        result = deep_check(tmp_path, rules={"CHX023"})
        found = findings_of(result, "CHX023")
        kinds = sorted(
            m.split("'")[1] for m in (f.message for f in found)
        )
        assert kinds == ["phantom", "wraith"]
        assert all(f.severity == "warning" for f in found)
        assert all("bypasses the extracted protocol" in f.message
                   for f in found)

    def test_suppression_honored(self, tmp_path):
        files = dict(CHX023_FIXTURE)
        files["proj/sim/node.py"] = files["proj/sim/node.py"].replace(
            '                return Message(0, 1, "alpha", "phantom", 8)',
            '                return Message(0, 1, "alpha", "phantom", 8)'
            "  # chaos: ignore[CHX023] fixture",
        )
        build_pkg(tmp_path, files)
        result = deep_check(tmp_path, rules={"CHX023"})
        found = findings_of(result, "CHX023")
        assert ["wraith" in f.message for f in found] == [True]


class TestRuleRegistration:
    def test_protocol_rules_in_table_with_titles(self):
        assert DEEP_RULE_TABLE["CHX019"] == (
            "send with no matching receive handler"
        )
        assert DEEP_RULE_TABLE["CHX020"] == (
            "receive loop missing epoch guard"
        )
        assert DEEP_RULE_TABLE["CHX021"] == (
            "blocking wait with no timeout/liveness path"
        )
        assert DEEP_RULE_TABLE["CHX022"] == (
            "barrier arrive reachable on one branch but not its sibling"
        )
        assert DEEP_RULE_TABLE["CHX023"] == (
            "message kind constructed but absent from the extracted model"
        )


class TestAnalyzerVersionCache:
    def test_analyzer_version_bumped_for_protocol_rules(self):
        assert ANALYZER_VERSION >= 4  # 6 since CHX016 looks for exact_add_at

    def test_version_bump_invalidates_pickled_deep_index(
        self, tmp_path, monkeypatch
    ):
        """A cache written by the previous analyzer revision must not
        be served once ANALYZER_VERSION moves (the protocol model rides
        in DeepContext, so stale caches would hide CHX019-023)."""
        pkg = tmp_path / "pkg"
        build_pkg(pkg, CHX020_FIXTURE)
        cache = tmp_path / "cache"

        engine = DeepEngine()
        monkeypatch.setattr(
            "repro.analysis.flow.engine.ANALYZER_VERSION",
            ANALYZER_VERSION - 1,
        )
        first = engine.check_paths([str(pkg)], cache_dir=str(cache))
        assert first.cache_hit is False
        assert engine.check_paths(
            [str(pkg)], cache_dir=str(cache)
        ).cache_hit is True

        monkeypatch.setattr(
            "repro.analysis.flow.engine.ANALYZER_VERSION",
            ANALYZER_VERSION,
        )
        bumped = engine.check_paths([str(pkg)], cache_dir=str(cache))
        assert bumped.cache_hit is False
        assert findings_of(bumped, "CHX020")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestProtocolCLI:
    def test_check_protocol_exits_zero_and_exports(
        self, tmp_path, capsys
    ):
        build_pkg(tmp_path / "pkg", PROTOCOL_FIXTURE)
        dot = tmp_path / "model.dot"
        blob = tmp_path / "model.json"
        code = main([
            "check", str(tmp_path / "pkg"), "--protocol",
            "--machines", "2",
            "--model-dot", str(dot), "--model-json", str(blob),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "protocol model:" in out
        assert "model check: m=2" in out
        assert "states=" in out
        assert "verdict: PASS" in out
        assert dot.read_text().startswith("digraph protocol {")
        exported = json.loads(blob.read_text())
        assert exported["alphabet"] == ["accept", "ping", "share"]

    def test_check_protocol_json_format(self, tmp_path, capsys):
        build_pkg(tmp_path / "pkg", PROTOCOL_FIXTURE)
        code = main([
            "check", str(tmp_path / "pkg"), "--protocol",
            "--format", "json",
        ])
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["check"]["ok"] is True
        assert blob["check"]["machines"] == 2
        assert blob["model"]["model_version"] == 1

    def test_check_protocol_shares_deep_index_cache(
        self, tmp_path, capsys
    ):
        build_pkg(tmp_path / "pkg", PROTOCOL_FIXTURE)
        cache = tmp_path / "cache"
        argv = ["check", str(tmp_path / "pkg"), "--protocol",
                "--cache-dir", str(cache)]
        assert main(argv) == 0
        (pickled,) = cache.glob("deepindex-*.pkl")
        stamp = pickled.stat().st_mtime_ns
        assert main(argv) == 0  # served from the pickled index
        assert pickled.stat().st_mtime_ns == stamp
        capsys.readouterr()

    def test_check_protocol_rejects_silly_machine_counts(self, capsys):
        assert main(["check", "src", "--protocol",
                     "--machines", "5"]) == 2
        assert main(["check", "src", "--protocol",
                     "--machines", "0"]) == 2
        assert "--machines" in capsys.readouterr().err

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
        model_path = tmp_path / "model.json"
        code = main([
            "trace", "conform", str(trace_path), "--src", "src",
            "--report-json", str(report_path),
            "--model-json", str(model_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace conformance: PASS" in out
        assert "unmodeled transitions: none" in out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["unmodeled"] == []
        model = json.loads(model_path.read_text())
        assert "steal_request" in model["alphabet"]

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
                event["cat"] = "off_the_books"
                break
        trace_path = tmp_path / "doctored.trace.json"
        trace_path.write_text(json.dumps(trace))
        code = main(["trace", "conform", str(trace_path),
                     "--src", "src"])
        out = capsys.readouterr().out
        assert code == 1
        assert "off_the_books" in out

    def test_trace_conform_rejects_causal_less_trace(self, tmp_path):
        stub = tmp_path / "plain.trace.json"
        stub.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(SystemExit, match="causalEvents"):
            main(["trace", "conform", str(stub), "--src", "src"])


# ---------------------------------------------------------------------------
# Fuzz deadlock capture
# ---------------------------------------------------------------------------


class TestFuzzTraceCapture:
    def test_capture_trace_writes_causal_events(
        self, tmp_path, small_graph, src_model
    ):
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
        report = conform_trace(trace, src_model)
        assert report is not None and report.ok

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
