"""Causal message-level tracing: recorder, chains, query, CLI.

Covers the four contracts of :mod:`repro.obs.causal`:

* recording is a passive annotation — traced runs are byte-identical to
  untraced runs per (config, seed), and traced runs serialize
  deterministically;
* the slowest-chain analyzer reconciles with critpath's interval
  decomposition: the chain terminates at the barrier-bound machine and
  explains its measured barrier wait within 5% (exactly, in practice —
  both derive from the same simulated events);
* the query language filters the DAG and walks backward chains;
* the Chrome exporter emits ``flow`` arrow pairs that round-trip and a
  lossless ``causalEvents`` document.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import _check_open_spans, run_algorithm
from repro.graph import rmat_graph
from repro.net.topology import GIGE_40_BENCH
from repro.obs import (
    NULL,
    Tracer,
    analyze_tracer,
    dumps_chrome_trace,
    trace_report,
    write_chrome_trace,
    write_counters_csv,
)
from repro.obs import causal as causal_mod
from repro.obs.causal import (
    CausalError,
    CausalRecorder,
    barrier_chains,
    causal_events_from_trace,
    chain_of,
    cross_check,
    event_duration,
    filter_events,
    format_chain,
    format_chain_table,
    format_event,
    parse_duration,
    parse_where,
    slowest_chains,
)
from repro.obs.export import chrome_trace_dict
from repro.store.device import SSD_BENCH

from tests.conftest import assert_usage_error, fast_config


class _StubTracer:
    """Minimal tracer stand-in: a controllable monotonic clock."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


def _traced_run(graph, config, iterations=3, tracer=None):
    tracer = tracer if tracer is not None else Tracer(sample_interval=None)
    result = run_algorithm(
        PageRank(iterations=iterations), graph, config, tracer=tracer
    )
    return result, tracer


# ---------------------------------------------------------------------------
# Recorder unit tests
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_send_records_edge_and_returns_context(self):
        rec = CausalRecorder(_StubTracer())
        ctx = rec.on_send("read", src=0, dst=1, size=64)
        assert ctx == (0, 0, None)
        (event,) = rec.events
        assert event["kind"] == "msg"
        assert event["cat"] == "read"
        assert (event["src"], event["dst"], event["size"]) == (0, 1, 64)
        assert event["t1"] is None

    def test_deliver_stamps_first_arrival_only(self):
        tracer = _StubTracer()
        rec = CausalRecorder(tracer)
        ctx = rec.on_send("read", 0, 1, 64)
        tracer.t = 1.0
        rec.on_deliver(ctx)
        tracer.t = 2.0
        rec.on_deliver(ctx)  # byzantine duplicate: keeps first arrival
        assert rec.events[0]["t1"] == 1.0
        assert event_duration(rec.events[0]) == 1.0

    def test_sends_default_parent_to_chain_head(self):
        rec = CausalRecorder(_StubTracer())
        first = rec.on_send("read", 0, 1, 64)
        rec.on_dispatch(1, first)
        reply = rec.on_send("read_reply", 1, 0, 128)
        assert reply[2] == first[1]

    def test_explicit_parent_wins_over_head(self):
        rec = CausalRecorder(_StubTracer())
        a = rec.on_send("read", 0, 1, 64)
        b = rec.on_send("write", 0, 2, 64)
        rec.on_dispatch(1, b)
        reply = rec.on_send("read_reply", 1, 0, 32, parent=a)
        assert reply[2] == a[1]

    def test_mark_args_may_use_any_key(self):
        # ``args`` keys share a namespace with the event's own fields;
        # "self" once collided with the recorder's parameter name.
        rec = CausalRecorder(_StubTracer())
        event = rec.mark("ckpt", machine=0, args={"self": None, "note": 1})
        assert event["self"] is None and event["note"] == 1

    def test_barrier_release_names_straggler_and_moves_heads(self):
        tracer = _StubTracer()
        rec = CausalRecorder(tracer)
        rec.barrier_arrive(0, epoch=0, label="1", phase="scatter")
        tracer.t = 5.0
        rec.barrier_arrive(1, epoch=0, label="1", phase="scatter")
        release = rec.barrier_release(1, epoch=0, label="1", phase="scatter")
        again = rec.barrier_release(0, epoch=0, label="1", phase="scatter")
        assert release is again  # one release event per round
        assert release["machine"] == 1  # the last arriver
        assert rec.head(0) == release["id"]
        assert rec.head(1) == release["id"]

    def test_attempt_annotation(self):
        rec = CausalRecorder(_StubTracer())
        rec.on_send("read", 0, 1, 64, attempt=2)
        assert rec.events[0]["attempt"] == 2
        rec.on_send("read", 0, 1, 64)
        assert "attempt" not in rec.events[1]

    def test_bind_resets_heads_but_keeps_events(self):
        rec = CausalRecorder(_StubTracer())
        ctx = rec.on_send("read", 0, 1, 64)
        rec.on_dispatch(1, ctx)
        rec.on_bind()
        assert rec.trace_id == 1
        assert rec.head(1) is None
        assert len(rec.events) == 1

    def test_null_recorder_is_inert(self):
        assert NULL.causal is NULL
        assert NULL.on_send("read", 0, 1, 64) is None
        assert NULL.barrier_release(0, 0, "1", "scatter") is None
        assert NULL.mark("x") is None
        assert not NULL.enabled
        assert NULL.events == []


# ---------------------------------------------------------------------------
# Chain analysis on a synthetic DAG
# ---------------------------------------------------------------------------


def _synthetic_dag():
    """msg(0) -> dispatch -> msg(1) -> arrival m1 (straggler) -> release."""
    tracer = _StubTracer()
    rec = CausalRecorder(tracer)
    a = rec.on_send("read", 0, 1, 64)
    tracer.t = 1.0
    rec.on_deliver(a)
    rec.on_dispatch(1, a)
    b = rec.on_send("read_reply", 1, 0, 128)
    tracer.t = 2.0
    rec.on_deliver(b)
    rec.barrier_arrive(0, 0, "0", "scatter")
    tracer.t = 5.0
    rec.on_dispatch(1, b)  # m1 kept working until t=5
    rec.barrier_arrive(1, 0, "0", "scatter")
    rec.barrier_release(1, 0, "0", "scatter")
    rec.barrier_release(0, 0, "0", "scatter")
    return rec.events


class TestChainAnalysis:
    def test_chain_walks_through_straggler_arrival(self):
        events = _synthetic_dag()
        (chain,) = barrier_chains(events)
        assert chain.machine == 1
        kinds = [link["kind"] for link in chain.links]
        assert kinds == ["msg", "msg", "arrive", "release"]
        assert chain.links[0]["cat"] == "read"

    def test_waits_and_explained_wait(self):
        events = _synthetic_dag()
        (chain,) = barrier_chains(events)
        assert chain.waits() == {0: 3.0, 1: 0.0}
        # chain starts at t=0 (the root message), so it fully explains
        # machine 0's wait on [2, 5].
        assert chain.explained_wait(0) == pytest.approx(3.0)
        assert chain.explained_wait(1) == pytest.approx(0.0)
        assert chain.explained_wait(7) is None
        assert chain.duration == pytest.approx(5.0)

    def test_slowest_chains_orders_by_duration(self):
        events = _synthetic_dag()
        assert [c.barrier for c in slowest_chains(events, 3)] == [
            "e0/0/scatter"
        ]

    def test_chain_of_unknown_id_raises(self):
        with pytest.raises(CausalError):
            chain_of(_synthetic_dag(), 999)

    def test_to_dict_is_json_safe(self):
        events = _synthetic_dag()
        (chain,) = barrier_chains(events)
        json.dumps(chain.to_dict())  # must not raise

    def test_formatters_render(self):
        events = _synthetic_dag()
        (chain,) = barrier_chains(events)
        assert "e0/0/scatter" in format_chain(chain)
        assert "barrier" in format_chain_table([chain.to_dict()])
        for event in events:
            assert f"#{event['id']}" in format_event(event)


# ---------------------------------------------------------------------------
# Query language
# ---------------------------------------------------------------------------


class TestQueryLanguage:
    def test_parse_duration_units(self):
        assert parse_duration("5ms") == pytest.approx(5e-3)
        assert parse_duration("2us") == pytest.approx(2e-6)
        assert parse_duration("7ns") == pytest.approx(7e-9)
        assert parse_duration("1.5s") == pytest.approx(1.5)
        assert parse_duration("0.25") == pytest.approx(0.25)

    def test_parse_duration_rejects_garbage(self):
        with pytest.raises(CausalError):
            parse_duration("fastms")
        with pytest.raises(CausalError):
            parse_duration("5 furlongs")

    def test_where_filters_compound_clauses(self):
        events = _synthetic_dag()
        hits = filter_events(events, "kind=msg and src=1")
        assert [e["cat"] for e in hits] == ["read_reply"]

    def test_where_duration_comparison(self):
        events = _synthetic_dag()
        assert len(filter_events(events, "dur>=1s and kind=msg")) == 2
        assert filter_events(events, "dur>1s and kind=msg") == []

    def test_machine_field_means_receiver_for_messages(self):
        events = _synthetic_dag()
        hits = filter_events(events, "machine=1")
        cats = sorted(e["cat"] for e in hits)
        assert cats == ["barrier", "barrier", "read"]

    def test_ordered_comparison_against_none_is_false(self):
        rec = CausalRecorder(_StubTracer())
        rec.on_send("read", 0, 1, 64)  # undelivered: dur is None
        assert filter_events(rec.events, "dur>0") == []
        assert len(filter_events(rec.events, "t1=none")) == 1

    def test_unknown_field_and_missing_operator_raise(self):
        with pytest.raises(CausalError):
            parse_where("bogus=1")
        with pytest.raises(CausalError):
            parse_where("kind is msg")
        with pytest.raises(CausalError):
            parse_where("kind= and src=1")


# ---------------------------------------------------------------------------
# Traced-run invariants (the standing byte-identity guarantee)
# ---------------------------------------------------------------------------


class TestTracedRunInvariants:
    def test_traced_run_byte_identical_to_untraced(self, medium_graph):
        config = fast_config(machines=4, seed=3)
        plain = run_algorithm(PageRank(iterations=3), medium_graph, config)
        traced, tracer = _traced_run(medium_graph, config)
        assert plain.to_json() == traced.to_json()
        assert set(plain.values) == set(traced.values)
        for name in plain.values:
            assert np.array_equal(plain.values[name], traced.values[name])
        assert len(tracer.causal.events) > 0

    def test_trace_serialization_deterministic(self, medium_graph):
        config = fast_config(machines=4, seed=3)
        _, t1 = _traced_run(medium_graph, config)
        _, t2 = _traced_run(medium_graph, config)
        assert dumps_chrome_trace(t1) == dumps_chrome_trace(t2)

    def test_every_protocol_kind_is_traced(self, medium_graph):
        config = fast_config(machines=4, seed=3, checkpointing=True)
        _, tracer = _traced_run(medium_graph, config)
        cats = {e["cat"] for e in tracer.causal.events if e["kind"] == "msg"}
        # Chunk I/O, steal protocol and accumulator shipping all appear.
        assert {"read", "read_reply", "steal_request", "steal_reply"} <= cats
        kinds = {e["kind"] for e in tracer.causal.events}
        assert {"msg", "arrive", "release"} <= kinds

    def test_recovery_path_emits_checkpoint_marks(self, medium_graph):
        from repro.faults import FaultPlan

        tracer = Tracer(sample_interval=None)
        run_algorithm(
            PageRank(iterations=3),
            medium_graph,
            fast_config(machines=4, seed=3, checkpointing=True),
            tracer=tracer,
            fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
        )
        marks = {e["cat"] for e in tracer.causal.events if e["kind"] == "mark"}
        assert {"ckpt_durable", "ckpt_round"} <= marks

    def test_replies_are_parented_to_their_requests(self, medium_graph):
        config = fast_config(machines=4, seed=3)
        _, tracer = _traced_run(medium_graph, config)
        events = tracer.causal.events
        by_id = {e["id"]: e for e in events}
        replies = [
            e for e in events
            if e["kind"] == "msg" and e["cat"] == "read_reply"
        ]
        assert replies
        for reply in replies:
            parent = by_id[reply["parent"]]
            # the reply's parent is the read it answers, cross-machine:
            assert parent["cat"] in ("read", "vread")
            assert parent["dst"] == reply["src"]


# ---------------------------------------------------------------------------
# The acceptance-criterion scenario: pr_m4 cross-check
# ---------------------------------------------------------------------------


class TestCrossCheck:
    @pytest.fixture(scope="class")
    def pr_m4(self):
        """The tracked bench scenario: PageRank x3, RMAT-12, 4 machines."""
        config = ClusterConfig(
            machines=4,
            device=SSD_BENCH,
            network=GIGE_40_BENCH,
            chunk_bytes=4096,
            batch_factor=8,
            seed=1,
        )
        graph = rmat_graph(12, seed=1)
        return _traced_run(graph, config)

    def test_chains_reconcile_with_critpath(self, pr_m4):
        _, tracer = pr_m4
        report = analyze_tracer(tracer)
        records = cross_check(tracer.causal.events, report)
        # one scatter + one gather barrier per iteration
        assert len(records) == 6
        for record in records:
            assert record["straggler_ok"], record
            assert record["wait_ok"], record
            assert record["ok"], record
            assert record["rel_err"] is not None
            assert record["rel_err"] <= 0.05

    def test_slowest_chain_terminates_at_bound_machine(self, pr_m4):
        _, tracer = pr_m4
        report = analyze_tracer(tracer)
        waits = report.barrier_waits
        for chain in barrier_chains(tracer.causal.events):
            if not chain.label.isdigit():
                continue
            crit = {
                m: waits.get((m, chain.label, chain.phase), 0.0)
                for m in chain.waits()
            }
            # the chain terminus is critpath's minimum-wait machine
            assert crit[chain.machine] <= min(crit.values()) + 1e-9

    def test_report_exports_barrier_waits(self, pr_m4):
        _, tracer = pr_m4
        report = analyze_tracer(tracer)
        assert report.barrier_waits
        rows = report.to_dict()["barrier_waits"]
        assert rows == sorted(
            rows, key=lambda r: (r["machine"], r["label"], r["phase"])
        )
        assert all(r["wait"] >= 0.0 for r in rows)


# ---------------------------------------------------------------------------
# Multi-run drivers: every run records its own barrier rounds
# ---------------------------------------------------------------------------


class TestMultiRunDrivers:
    """MCST and SCC run several simulations on one tracer; each reuses
    the ``(epoch, label, phase)`` keys of the one before.  Until PR 22
    run 1's release answered for every later run."""

    @pytest.fixture(scope="class", params=["MCST", "SCC"])
    def driver_tracer(self, request):
        from repro.algorithms.mcst import run_mcst
        from repro.algorithms.scc import run_scc
        from repro.graph import to_undirected

        tracer = Tracer(sample_interval=None)
        if request.param == "MCST":
            graph = to_undirected(rmat_graph(7, seed=3, weighted=True))
            result = run_mcst(graph, machines=2, chunk_bytes=4096, tracer=tracer)
        else:
            result = run_scc(
                rmat_graph(7, seed=3), machines=2, chunk_bytes=4096,
                tracer=tracer,
            )
        assert len(result.jobs) > 1
        return tracer

    def test_every_round_of_every_run_has_its_own_release(self, driver_tracer):
        events = driver_tracer.causal.events
        arrivals, releases = {}, {}
        for event in events:
            key = (event["trace"], event.get("barrier"))
            if event["kind"] == "arrive":
                arrivals.setdefault(key, []).append(event["id"])
            elif event["kind"] == "release":
                releases.setdefault(key, []).append(event)
        assert len({trace for trace, _ in arrivals}) > 1
        assert set(arrivals) == set(releases)
        for key, ids in arrivals.items():
            (release,) = releases[key]
            assert release["parents"] == ids
        assert causal_mod.unreleased_barriers(events) == []
        # Keys are unique on the whole timeline; run 1 keeps the plain form.
        barriers = [r["barrier"] for rs in releases.values() for r in rs]
        assert len(set(barriers)) == len(barriers)
        assert all(
            r["barrier"].startswith("e") == (r["trace"] == 1)
            for rs in releases.values() for r in rs
        )

    def test_no_cause_follows_its_effect(self, driver_tracer):
        events = driver_tracer.causal.events
        by_id = {event["id"]: event for event in events}
        checked = 0
        for event in events:
            parents = list(event.get("parents") or [])
            if event.get("parent") is not None:
                parents.append(event["parent"])
            for parent in map(by_id.__getitem__, parents):
                assert parent["trace"] == event["trace"]
                # A handler may send while the message that woke it is
                # still stamped undelivered only in fault runs; here
                # every parent has landed before its child starts.
                assert parent["t1"] is not None
                assert parent["t1"] <= event["t0"]
                checked += 1
        assert checked > len(events) // 2

    def test_cross_check_reconciles_every_barrier(self, driver_tracer):
        report = analyze_tracer(driver_tracer)
        records = cross_check(driver_tracer.causal.events, report)
        assert records and all(record["ok"] for record in records), [
            record for record in records if not record["ok"]
        ]
        assert any(record["instances"] > 1 for record in records)
        assert "e0/preprocess/preprocess " in format_chain_table(
            [chain.to_dict() for chain in barrier_chains(driver_tracer.causal.events)]
        )


# ---------------------------------------------------------------------------
# Leaked-span detection (satellite: open_span_count at clean-run end)
# ---------------------------------------------------------------------------


class TestOpenSpanWarning:
    def test_clean_run_leaves_no_open_spans(self, medium_graph):
        _, tracer = _traced_run(medium_graph, fast_config(machines=2))
        assert tracer.open_span_count() == 0

    def test_clean_run_emits_no_warning(self, medium_graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _traced_run(medium_graph, fast_config(machines=2))

    def test_deliberately_leaked_span_warns(self, medium_graph):
        tracer = Tracer(sample_interval=None)
        _, tracer = _traced_run(
            medium_graph, fast_config(machines=2), tracer=tracer
        )
        track = tracer.thread(0, 1, "engine0")
        track.begin("leaked", cat="barrier")  # never ended
        assert tracer.open_span_count() == 1
        with pytest.warns(RuntimeWarning, match="still open"):
            _check_open_spans(tracer)


# ---------------------------------------------------------------------------
# Exporter edge cases (satellite: empty CSV, nested args, flow round-trip)
# ---------------------------------------------------------------------------


class TestExporterEdgeCases:
    def test_empty_trace_to_csv(self, tmp_path):
        tracer = Tracer(sample_interval=None)
        path = tmp_path / "empty.csv"
        assert write_counters_csv(tracer, str(path)) == 0
        assert path.read_text() == "series,ts,value\n"

    def test_empty_trace_chrome_document(self):
        tracer = Tracer(sample_interval=None)
        doc = chrome_trace_dict(tracer)
        assert doc["traceEvents"] == []
        assert "causalEvents" not in doc
        report = trace_report(doc)
        assert report["summary"]["total_events"] == 0
        assert report["attribution"] is None

    def test_instant_with_nested_args_round_trips(self, tmp_path):
        tracer = Tracer(sample_interval=None)
        tracer.bind_run(lambda: 0.5)
        track = tracer.thread(0, 0, "job")
        nested = {"ckpt": [0, 1, 2], "detail": {"slot": 1, "ok": True}}
        track.instant("job.milestone", args=nested)
        path = tmp_path / "t.json"
        write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        (event,) = [
            e for e in doc["traceEvents"] if e.get("name") == "job.milestone"
        ]
        assert event["args"] == nested
        assert event["s"] == "t"
        summary = trace_report(doc)["summary"]
        assert summary["instants"]["job.milestone"] == 1

    def test_flow_events_round_trip(self, medium_graph, tmp_path):
        _, tracer = _traced_run(medium_graph, fast_config(machines=2))
        path = tmp_path / "t.json"
        write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        flows = [
            e for e in doc["traceEvents"] if e.get("ph") in ("s", "f")
        ]
        assert flows and len(flows) % 2 == 0
        # The lossy Perfetto view of the DAG: one s/f pair per delivered
        # message edge, matched by id (times in microseconds).
        edges = {}
        for flow in flows:
            machine, time = ("src", "t0") if flow["ph"] == "s" else ("dst", "t1")
            edge = edges.setdefault(flow["id"], {"name": flow["name"]})
            edge[machine], edge[time] = flow["pid"], flow["ts"] * 1e-6
        delivered = [
            e
            for e in causal_events_from_trace(doc)
            if e["kind"] == "msg" and e["t1"] is not None
        ]
        assert len(edges) == len(delivered)
        for msg in delivered:
            edge = edges[msg["id"]]
            assert edge["src"] == msg["src"]
            assert edge["dst"] == msg["dst"]
            assert edge["name"] == msg["cat"]
            assert edge["t0"] == pytest.approx(msg["t0"], abs=1e-9)
            assert edge["t1"] == pytest.approx(msg["t1"], abs=1e-9)

    def test_causal_events_key_is_lossless(self, medium_graph, tmp_path):
        _, tracer = _traced_run(medium_graph, fast_config(machines=2))
        path = tmp_path / "t.json"
        write_chrome_trace(tracer, str(path))
        doc = json.loads(path.read_text())
        assert doc["causalEvents"] == json.loads(
            json.dumps(tracer.causal.events)
        )

    def test_pre_causal_trace_raises_causal_error(self):
        with pytest.raises(CausalError, match="causalEvents"):
            causal_events_from_trace({"traceEvents": []})


# ---------------------------------------------------------------------------
# Report integration (satellites: integrity surfacing, JSON report)
# ---------------------------------------------------------------------------


class TestReportIntegration:
    def test_job_result_carries_integrity_counters(self, medium_graph):
        result = run_algorithm(
            PageRank(iterations=2), medium_graph, fast_config(machines=2)
        )
        assert "messages_corrupted" in result.integrity
        assert "write_rejects" in result.integrity
        assert result.to_dict()["integrity"] == result.integrity

    def test_summary_mentions_nonzero_integrity_only(self, medium_graph):
        result = run_algorithm(
            PageRank(iterations=2), medium_graph, fast_config(machines=2)
        )
        assert "integrity[" not in result.summary()  # clean run: all zero
        result.integrity["messages_corrupted"] = 2
        assert "integrity[messages_corrupted=2]" in result.summary()

    def test_trace_carries_integrity_instant(self, medium_graph):
        _, tracer = _traced_run(medium_graph, fast_config(machines=2))
        doc = chrome_trace_dict(tracer)
        summary = trace_report(doc)["summary"]
        assert summary["instants"]["job.integrity"] == 1
        assert "messages_corrupted" in summary["integrity"]

    def test_trace_report_json_sections(self, medium_graph):
        _, tracer = _traced_run(medium_graph, fast_config(machines=2))
        doc = trace_report(chrome_trace_dict(tracer))
        assert set(doc) == {
            "summary",
            "attribution",
            "slowest_chains",
            "cross_check",
            "host",
            "host_skew",
        }
        assert doc["attribution"] is not None
        assert doc["slowest_chains"]
        assert doc["cross_check"] and all(
            r["ok"] for r in doc["cross_check"]
        )
        assert doc["host"] is None and doc["host_skew"] is None
        assert doc["summary"]["top_spans"]
        json.dumps(doc)  # fully JSON-safe

    def test_trace_report_json_without_causal_events(self, medium_graph):
        _, tracer = _traced_run(medium_graph, fast_config(machines=2))
        doc = chrome_trace_dict(tracer)
        del doc["causalEvents"]
        report = trace_report(doc)
        assert report["slowest_chains"] is None
        assert report["cross_check"] is None

    def test_prometheus_integrity_family(self):
        from repro.obs import to_prometheus, validate_prometheus
        from repro.obs.host import HostProfiler

        doc = HostProfiler().to_dict()
        text = to_prometheus(
            doc, integrity={"messages_corrupted": 2, "retransmits": 1}
        )
        assert 'chaos_integrity_events_total{kind="messages_corrupted"} 2' \
            in text
        assert 'chaos_integrity_events_total{kind="retransmits"} 1' in text
        assert validate_prometheus(text) == []
        assert "chaos_integrity" not in to_prometheus(doc)


# ---------------------------------------------------------------------------
# CLI: repro trace query / trace-report --format json
# ---------------------------------------------------------------------------


class TestTraceQueryCli:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        from repro.cli import main

        path = tmp_path_factory.mktemp("causal") / "run.trace.json"
        code = main(
            [
                "run", "--algorithm", "PR", "--scale", "9",
                "--machines", "2", "--iterations", "2", "--chunk-kb", "4",
                "--trace", str(path), "--trace-sample-interval", "0",
            ]
        )
        assert code == 0
        return str(path)

    def test_slowest_chains_text(self, trace_path, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["trace", "query", trace_path,
                     "--slowest-chains", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip()
        assert "released at" in out
        assert "barrier e0/" in out

    def test_slowest_chains_json(self, trace_path, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["trace", "query", trace_path, "--slowest-chains", "2",
                     "--format", "json"]) == 0
        chains = json.loads(capsys.readouterr().out)
        assert len(chains) == 2
        assert chains[0]["duration"] >= chains[1]["duration"]

    def test_where_filter(self, trace_path, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["trace", "query", trace_path,
                     "--where", "kind=msg and dur>0s"]) == 0
        out = capsys.readouterr().out
        assert "event(s) matched" in out

    def test_chain_of(self, trace_path, capsys):
        from repro.cli import main

        trace = json.load(open(trace_path))
        release = next(
            e for e in trace["causalEvents"] if e["kind"] == "release"
        )
        capsys.readouterr()
        assert main(["trace", "query", trace_path,
                     "--chain-of", str(release["id"])]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1].split()[1] == "release"

    def test_bad_where_exits_nonzero(self, trace_path, capsys):
        capsys.readouterr()
        assert_usage_error(
            capsys, ["trace", "query", trace_path, "--where", "bogus=1"],
            "trace query: ",
        )

    def test_requires_exactly_one_mode(self, trace_path, capsys):
        capsys.readouterr()
        assert_usage_error(
            capsys, ["trace", "query", trace_path],
            "pass exactly one of --where, --chain-of, --slowest-chains",
        )

    def test_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert_usage_error(
            capsys,
            ["trace", "query", str(tmp_path / "nope.json"),
             "--slowest-chains"],
            "cannot read trace",
        )

    def test_trace_report_json_format(self, trace_path, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["trace-report", trace_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["slowest_chains"]
        assert all(r["ok"] for r in doc["cross_check"])

    def test_trace_report_text_has_chain_table(self, trace_path, capsys):
        from repro.cli import main

        capsys.readouterr()
        assert main(["trace-report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "slowest barrier chains" in out
        assert "cross-check" in out
