"""The templated trace writer *is* ``json.dumps`` — proven, not assumed.

``repro.obs.export`` formats the Chrome-trace text straight from the
event log's columns.  This file keeps the dict-building exporter the
writer replaced (PR 22) as the reference: the document is rebuilt event
by event from the read-only ``events`` views and must serialize, through
``json.dumps(sort_keys=True, separators=(",", ":"))``, to the very text
the writer produced — on real jobs and on hypothesis-built logs whose
names need escapes, whose ``args`` nest, and whose numbers sit at the
edges of the format.  The one sanctioned difference (non-finite floats
become strings) and the log -> JSON -> loader -> log round trip are
pinned here too.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph
from repro.obs import Tracer, chrome_trace_dict, dumps_chrome_trace
from repro.obs.critpath import analyze_chrome_trace, analyze_tracer
from repro.obs.log import log_from_document
from repro.obs.tracer import TID_NIC_RX, TID_NIC_TX

US = 1e6


def reference_document(tracer, host_metrics=None) -> dict:
    """The Trace Event Format document, built the slow obvious way."""
    events = []
    for pid in sorted(tracer.processes):
        events.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                       "args": {"name": tracer.processes[pid]}})
    for pid, tid in sorted(tracer.threads):
        events.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                       "args": {"name": tracer.threads[(pid, tid)]}})
    timed = []
    for raw in tracer.events:
        event = dict(raw)
        event["ts"] = raw["ts"] * US
        if "dur" in event:
            event["dur"] = raw["dur"] * US
        if event["ph"] == "i":
            event["s"] = "t"
        timed.append(event)
    causal_events = list(tracer.causal.events)
    for event in causal_events:
        if event.get("kind") != "msg" or event.get("t1") is None:
            continue
        common = {"cat": "causal", "name": event.get("cat") or "msg",
                  "id": event["id"]}
        timed.append({"ph": "s", "pid": event["src"], "tid": TID_NIC_TX,
                      "ts": event["t0"] * US, **common})
        timed.append({"ph": "f", "bp": "e", "pid": event["dst"],
                      "tid": TID_NIC_RX, "ts": event["t1"] * US, **common})
    events.extend(sorted(timed, key=lambda e: e["ts"]))
    document = {"displayTimeUnit": "ms", "traceEvents": events}
    if causal_events:
        document["causalEvents"] = causal_events
    if host_metrics is not None:
        document["hostMetrics"] = host_metrics
    return document


def reference_text(tracer, host_metrics=None) -> str:
    return json.dumps(
        reference_document(tracer, host_metrics),
        sort_keys=True, separators=(",", ":"),
    )


def _traced_job(**overrides):
    config = dict(machines=3, chunk_bytes=4 * 1024, seed=5)
    plan = overrides.pop("fault", None)
    config.update(overrides)
    tracer = Tracer()
    ChaosCluster(ClusterConfig(**config), tracer=tracer).run(
        PageRank(iterations=2), rmat_graph(8, seed=5),
        fault_plan=FaultPlan.parse([plan]) if plan else None,
    )
    return tracer


@pytest.fixture(scope="module", params=["clean", "crash"])
def job_tracer(request):
    if request.param == "clean":
        return _traced_job()
    return _traced_job(checkpointing=True, fault="crash:1@iter=1")


# ---------------------------------------------------------------------------
# Writer == json.dumps of the reference document
# ---------------------------------------------------------------------------


def test_real_job_text_equals_the_reference(job_tracer):
    host = {"coverage": 0.5, "phases": [], "job": {"algorithm": "PR"}}
    assert dumps_chrome_trace(job_tracer) == reference_text(job_tracer)
    assert dumps_chrome_trace(job_tracer, host_metrics=host) == reference_text(
        job_tracer, host
    )
    assert chrome_trace_dict(job_tracer) == json.loads(reference_text(job_tracer))


NASTY_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\n\t\x00\x1f", "é→𝄞", " ", "</script>"]
)
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1 / 3,
     1e16, 1.7976931348623157e308, 123456.789e-6]
)
NUMBERS = (
    st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | EDGE_FLOATS
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | NASTY_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(NASTY_TEXT, inner, max_size=3),
    max_leaves=6,
)
ARGS = st.none() | st.dictionaries(NASTY_TEXT, JSON_VALUES, min_size=1, max_size=4)
#: Few distinct times, so equal timestamps (stable order) are the rule.
TIMES = st.sampled_from([0.0, -0.0, 5e-324, 1e-9, 0.25, 0.25000000000000006, 3.0, 1e9])
LANE = st.tuples(st.integers(0, 3), st.integers(0, 5))

TRACE_ROWS = st.one_of(
    st.tuples(st.sampled_from("BEi"), LANE, NASTY_TEXT, TIMES, st.just(0.0),
              st.none() | NASTY_TEXT, st.none(), ARGS),
    st.tuples(st.just("X"), LANE, NASTY_TEXT, TIMES, TIMES,
              st.none() | NASTY_TEXT, st.none() | NUMBERS | st.booleans(),
              st.none()),
    st.tuples(st.just("X"), LANE, NASTY_TEXT, TIMES, TIMES,
              st.none() | NASTY_TEXT, st.none(), ARGS),
    st.tuples(st.just("C"), LANE, NASTY_TEXT, TIMES, st.just(0.0), st.none(),
              NUMBERS | st.booleans(), st.none()),
)
CAUSAL_STEPS = st.one_of(
    st.tuples(st.just("send"), NASTY_TEXT, st.integers(0, 3), st.integers(0, 3),
              st.integers(0, 2**60), st.integers(0, 2), TIMES, st.booleans()),
    st.tuples(st.just("mark"), NASTY_TEXT, st.none() | st.integers(0, 3),
              ARGS, TIMES),
    st.tuples(st.just("barrier"), st.integers(0, 3), NASTY_TEXT, TIMES),
)


def _is_canonical(row) -> bool:
    """Rows as the recorders write them: a lone ``bytes`` / ``value``
    payload lives in the value column, never in an ``args`` dict."""
    ph, args = row[0], row[-1]
    lone = {"X": "bytes", "C": "value"}.get(ph)
    return not (args is not None and len(args) == 1 and lone in args)


def _build(trace_rows, causal_steps, names) -> Tracer:
    tracer = Tracer()
    clock = [0.0]
    tracer.bind_run(lambda: clock[0])
    for (pid, tid), name in names:
        tracer.set_process(pid, name)
        tracer.thread(pid, tid, name)
    for ph, (pid, tid), name, ts, dur, cat, value, args in trace_rows:
        tracer.log.rows.append((ph, pid, tid, name, ts, dur, cat, value, args))
    for step in causal_steps:
        if step[0] == "send":
            _, cat, src, dst, size, attempt, at, deliver = step
            clock[0] = at
            ctx = tracer.causal.on_send(cat, src, dst, size, attempt=attempt)
            if deliver:
                tracer.causal.on_dispatch(dst, ctx)
                tracer.causal.on_deliver(ctx)
                tracer.causal.on_deliver(ctx)  # a duplicate: first wins
        elif step[0] == "mark":
            _, cat, machine, args, clock[0] = step
            tracer.causal.mark(cat, machine=machine, args=args)
        else:
            _, machine, label, clock[0] = step
            tracer.causal.barrier_arrive(machine, 0, label, "scatter")
            tracer.causal.barrier_release(machine, 0, label, "scatter")
    return tracer


LOGS = st.builds(
    _build,
    st.lists(TRACE_ROWS.filter(_is_canonical), max_size=12),
    st.lists(CAUSAL_STEPS, max_size=8),
    st.lists(st.tuples(LANE, NASTY_TEXT), max_size=3),
)


@settings(max_examples=150)
@given(LOGS, st.none() | st.dictionaries(NASTY_TEXT, JSON_VALUES, max_size=3))
def test_writer_equals_json_dumps(tracer, host_metrics):
    text = dumps_chrome_trace(tracer, host_metrics=host_metrics)
    assert text == reference_text(tracer, host_metrics)
    json.loads(text, parse_constant=pytest.fail)


# ---------------------------------------------------------------------------
# The one difference: non-finite floats
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_floats_are_written_as_strings(value):
    tracer = Tracer()
    track = tracer.thread(0, 1)
    track.instant("job.config", args={"steal_alpha": value, "nested": [value]})
    track.append(("C", 0, 0, "gauge", 1.0, 0.0, None, value, None))
    track.append(("X", 0, 2, "io", value, 1.0, None, 7, None))
    tracer.causal.mark("m", args={"x": value})
    text = dumps_chrome_trace(tracer, host_metrics={"rate": value})
    for token in ("Infinity", "NaN"):
        assert token not in text
    document = json.loads(text, parse_constant=pytest.fail)
    name = str(value)
    config = document["traceEvents"][-3:]
    assert {"steal_alpha": name, "nested": [name]} in [e.get("args") for e in config]
    assert document["hostMetrics"] == {"rate": name}
    assert document["causalEvents"][0]["x"] == name
    assert float(name) == value or value != value


def test_alpha_inf_trace_loads_and_attributes():
    tracer = _traced_job(steal_alpha=float("inf"))
    document = json.loads(
        dumps_chrome_trace(tracer), parse_constant=pytest.fail
    )
    report = analyze_chrome_trace(document)
    assert report.config["steal_alpha"] == "inf"
    assert report.closure_error() <= 1e-5
    assert [s.machine for s in report.stragglers] == [
        s.machine for s in analyze_tracer(tracer).stragglers
    ]


# ---------------------------------------------------------------------------
# log -> JSON -> loader -> log
# ---------------------------------------------------------------------------


def _assert_same_columns(original, loaded):
    a, b = original.trace, loaded.trace
    # The file holds the events by timestamp (ties in recording order).
    order = np.argsort(a.ts * US, kind="stable")
    for field in ("ph", "pid", "tid"):
        assert np.array_equal(getattr(a, field)[order], getattr(b, field))
    for field in ("name", "cat", "value", "args"):
        assert getattr(a, field)[order].tolist() == getattr(b, field).tolist()
    assert [a.lanes[code] for code in a.lane[order]] == [
        b.lanes[code] for code in b.lane
    ]
    # Times cross the file in microseconds: x * 1e6 * 1e-6 is x to the
    # last bit or the one before it; everything else is exact.
    for field in ("ts", "dur"):
        np.testing.assert_array_max_ulp(
            getattr(a, field)[order], getattr(b, field), 2
        )
    for field in original.messages.__slots__:
        assert getattr(original.messages, field) == getattr(loaded.messages, field)
    assert [row[-1] for row in original.causal_rows if row[0] == "e"] == [
        row[-1] for row in loaded.causal_rows if row[0] == "e"
    ]
    assert original.causal_events == loaded.causal_events


def test_real_job_log_round_trips_through_the_file(job_tracer):
    document = json.loads(dumps_chrome_trace(job_tracer))
    _assert_same_columns(
        job_tracer.log.columns(), log_from_document(document).columns()
    )


@settings(max_examples=100)
@given(LOGS)
def test_log_round_trips_through_the_file(tracer):
    document = json.loads(dumps_chrome_trace(tracer))
    _assert_same_columns(
        tracer.log.columns(), log_from_document(document).columns()
    )
