"""Tests for the observability subsystem (repro.obs).

Covers the tracer primitives, the determinism guarantee (same seed →
byte-identical trace JSON), span nesting balance, the report's ledger
against the engines' ``Breakdown``, the counter samplers and both
exporters.
"""

import json

import pytest

from repro import PageRank, rmat_graph, run_algorithm
from repro.algorithms import run_mcst
from repro.core.metrics import LEDGER_CATEGORIES
from repro.graph.convert import to_undirected
from repro.obs import (
    NULL,
    CounterRegistry,
    ResourceSampler,
    TraceError,
    Tracer,
    chrome_trace_dict,
    dumps_chrome_trace,
    format_trace_report,
    load_trace,
    trace_report,
    write_chrome_trace,
    write_counters_csv,
)
from repro.obs.tracer import TID_DEVICE, TID_ENGINE, TID_JOB
from repro.sim.engine import Simulator


def _traced_run(sample_interval=1e-3, iterations=3, machines=2):
    graph = rmat_graph(8, seed=1)
    tracer = Tracer(sample_interval=sample_interval)
    result = run_algorithm(
        PageRank(iterations=iterations),
        graph,
        machines=machines,
        chunk_bytes=4096,
        tracer=tracer,
    )
    return tracer, result


class TestTracerPrimitives:
    def test_nested_spans_balance(self):
        tracer = Tracer()
        track = tracer.thread(0, TID_ENGINE)
        track.begin("outer")
        track.begin("inner", cat="copy")
        assert tracer.open_span_count() == 2
        track.end()
        track.end()
        assert tracer.open_span_count() == 0
        phases = [e["ph"] for e in tracer.events]
        assert phases == ["B", "B", "E", "E"]
        # The E event carries the name/cat popped from the stack.
        assert tracer.events[2]["name"] == "inner"
        assert tracer.events[2]["cat"] == "copy"

    def test_end_without_begin_raises(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.thread(0, TID_ENGINE).end()

    def test_negative_complete_duration_raises(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.thread(0, TID_DEVICE).complete("io", start=1.0, duration=-0.5)

    def test_bind_run_rebases_subsequent_runs(self):
        tracer = Tracer()
        tracer.bind_run(lambda: 2.0)
        tracer.thread(0, TID_JOB).instant("first")
        assert tracer.end_time == 2.0
        tracer.bind_run(lambda: 1.0)  # new run, clock restarts
        tracer.thread(0, TID_JOB).instant("second")
        assert tracer.events[1]["ts"] == pytest.approx(3.0)
        assert tracer.end_time == pytest.approx(3.0)

    def test_recording_after_a_read_lands_in_the_next_read(self):
        # Reading materialises columns; the log stays open for appends
        # and every defined error stays defined afterwards.
        tracer = Tracer()
        track = tracer.thread(0, TID_ENGINE)
        track.instant("a")
        first = tracer.events
        assert [e["name"] for e in first] == ["a"]
        assert tracer.events is first  # cached until a row is added
        assert tracer.end_time == 0.0
        tracer.bind_run(lambda: 4.0)
        track.begin("b", args={"k": 1})
        device = tracer.thread(0, TID_DEVICE)
        device.complete("io", start=1.0, duration=2.0)
        assert [e["name"] for e in tracer.events] == ["a", "b", "io"]
        assert [e["name"] for e in first] == ["a"]  # a snapshot
        assert tracer.end_time == 4.0
        assert '"name":"b"' in dumps_chrome_trace(tracer)
        with pytest.raises(TraceError):
            device.end()
        with pytest.raises(TraceError):
            track.complete("io", 0.0, -1e-9)
        assert len(tracer.events) == 3  # the failed calls recorded nothing
        track.end()
        assert tracer.open_span_count() == 0
        assert tracer.events[-1]["ph"] == "E"
        tracer.counter(0, "c", 1.5, ts=0.5)
        assert tracer.registry.get("c").samples == [(0.5, 1.5)]
        assert tracer.registry.get("missing") is None

    def test_null_objects_are_inert(self):
        assert not NULL.enabled
        track = NULL.thread(0, TID_ENGINE)
        assert track is NULL
        track.begin("x")
        track.end()
        track.complete("x", 0.0, 1.0)
        track.instant("x")
        NULL.counter(0, "c", 1.0)
        NULL.bind_run(lambda: 0.0)

    def test_invalid_sample_interval(self):
        with pytest.raises(ValueError):
            Tracer(sample_interval=0.0)
        with pytest.raises(ValueError):
            Tracer(sample_interval=-1.0)


class TestCounters:
    def test_registry_rows_are_series_sorted(self):
        registry = CounterRegistry()
        registry.add("b", 0.0, 1.0)
        registry.add("a", 0.5, 2.0)
        registry.add("a", 1.0, 3.0)
        rows = list(registry.rows())
        assert rows == [("a", 0.5, 2.0), ("a", 1.0, 3.0), ("b", 0.0, 1.0)]
        assert registry.get("a").mean() == pytest.approx(2.5)
        assert registry.get("a").peak() == pytest.approx(3.0)

    def test_sampler_busy_fraction(self):
        sim = Simulator()
        tracer = Tracer(sample_interval=1.0)
        tracer.bind_run(lambda: sim.now)
        busy = {"t": 0.0}
        sampler = ResourceSampler(sim, tracer, interval=1.0)
        sampler.add_probe("dev.busy", 0, lambda: busy["t"],
                          mode="busy_fraction")
        sampler.start()

        def load():
            yield sim.timeout(0.5)
            busy["t"] = 0.5  # 50% busy over the first interval
            yield sim.timeout(2.0)

        done = sim.process(load()).finished
        sim.run_until(done)
        series = tracer.registry.get("dev.busy")
        assert series.samples[0] == (1.0, pytest.approx(0.5))
        assert series.samples[1] == (2.0, pytest.approx(0.0))

    def test_final_partial_sample_has_correct_fraction(self):
        # A run shorter than one sampling interval only ever sees the
        # finish-line sample the runtime takes; the fraction must use
        # the *actual* elapsed time, not the nominal interval.
        sim = Simulator()
        tracer = Tracer(sample_interval=10.0)
        tracer.bind_run(lambda: sim.now)
        busy = {"t": 0.0}
        sampler = ResourceSampler(sim, tracer, interval=10.0)
        sampler.add_probe("dev.busy", 0, lambda: busy["t"],
                          mode="busy_fraction")
        sampler.start()

        def load():
            yield sim.timeout(2.5)
            busy["t"] = 0.5

        done = sim.process(load()).finished
        sim.run_until(done)
        sampler.sample()  # what the runtime does at the finish line
        series = tracer.registry.get("dev.busy")
        assert series.samples == [(2.5, pytest.approx(0.5 / 2.5))]
        assert series.integral() == pytest.approx(0.5)

    def test_busy_series_integrates_to_span_total(self):
        # Regression: the sampler used to truncate the tail past the
        # last whole interval, so the busy-fraction series integrated
        # short of the device's true busy time.
        tracer, _result = _traced_run(sample_interval=1e-4, machines=2)
        for machine in range(2):
            span_busy = sum(
                e["dur"]
                for e in tracer.events
                if e["ph"] == "X"
                and e["pid"] == machine
                and e["tid"] == TID_DEVICE
            )
            series = tracer.registry.get(f"m{machine}.device.busy")
            assert series.integral() == pytest.approx(span_busy, rel=1e-12)


class TestTracedRun:
    def test_trace_is_deterministic(self):
        tracer_a, result_a = _traced_run()
        tracer_b, result_b = _traced_run()
        text_a = dumps_chrome_trace(tracer_a)
        text_b = dumps_chrome_trace(tracer_b)
        assert text_a == text_b
        assert result_a.runtime == result_b.runtime

    def test_all_spans_closed_after_run(self):
        tracer, _ = _traced_run()
        assert tracer.open_span_count() == 0
        summary = trace_report(chrome_trace_dict(tracer))["summary"]
        assert summary["unbalanced_spans"] == 0
        phases = [event["ph"] for event in tracer.events]
        assert phases.count("B") == phases.count("E") > 0

    def test_tracing_does_not_change_results(self):
        graph = rmat_graph(8, seed=1)
        plain = run_algorithm(PageRank(iterations=3), graph, machines=2,
                              chunk_bytes=4096)
        tracer = Tracer(sample_interval=1e-3)
        traced = run_algorithm(PageRank(iterations=3), graph, machines=2,
                               chunk_bytes=4096, tracer=tracer)
        assert traced.runtime == plain.runtime
        assert traced.storage_bytes == plain.storage_bytes
        assert traced.network_bytes == plain.network_bytes

    def test_chrome_trace_structure(self):
        tracer, _ = _traced_run()
        trace = chrome_trace_dict(tracer)
        events = trace["traceEvents"]
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)
        assert any(e["ph"] == "M" and e["name"] == "thread_name"
                   for e in events)
        data = [e for e in events if e["ph"] not in ("M",)]
        assert all("ts" in e and "pid" in e and "tid" in e and "name" in e
                   for e in data)
        # Data events are time-ordered (microseconds).
        ts = [e["ts"] for e in data]
        assert ts == sorted(ts)
        instants = [e for e in data if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)
        assert any(e["ph"] == "X" and e["dur"] >= 0 for e in data)

    def test_counter_series_sampled(self):
        tracer, _ = _traced_run()
        names = tracer.registry.names()
        assert "m0.device.busy" in names
        assert "m0.nic.tx.busy" in names
        assert "m1.cores.busy" in names
        busy = tracer.registry.get("m0.device.busy")
        assert 0.0 <= busy.peak() <= 1.0
        assert busy.samples  # periodic + final snapshot

    def test_sampling_disabled_keeps_spans(self):
        tracer, _ = _traced_run(sample_interval=None)
        assert tracer.registry.names() == []
        assert any(e["ph"] == "B" for e in tracer.events)


class TestExportAndReport:
    def test_file_roundtrip_and_report(self, tmp_path):
        tracer, _ = _traced_run()
        path = str(tmp_path / "out.json")
        size = write_chrome_trace(tracer, path)
        assert size > 0
        with open(path) as handle:
            assert json.load(handle)["traceEvents"]
        doc = trace_report(load_trace(path))
        report = format_trace_report(doc)
        assert "per-device utilization" in report
        assert "breakdown categories" in report
        assert "gp_master" in report

    @pytest.mark.parametrize("job", ["fault-free", "crash:1@iter=2", "mcst"])
    def test_report_ledger_is_the_breakdown(self, job, tmp_path):
        """The report's ledger is the engines' own, read back from a
        saved file: each run's ``job.ledger`` instant, summed over the
        runs of a multi-run driver, equals ``total_breakdown()``."""
        from repro.faults import FaultPlan
        from tests.conftest import fast_config

        tracer = Tracer(sample_interval=None)
        if job == "mcst":
            graph = to_undirected(rmat_graph(7, seed=3, weighted=True))
            result = run_mcst(graph, machines=2, chunk_bytes=4096, tracer=tracer)
            assert len(result.jobs) > 1
        else:
            result = run_algorithm(
                PageRank(iterations=5), rmat_graph(8, seed=5),
                fast_config(3, seed=5, checkpointing=True), tracer=tracer,
                fault_plan=FaultPlan.parse([job]) if job != "fault-free" else None,
            )
        path = str(tmp_path / "out.json")
        write_chrome_trace(tracer, path)
        ledger = trace_report(load_trace(path))["summary"]["ledger"]
        assert ledger == result.total_breakdown().seconds()
        crashed = job.startswith("crash")
        assert (ledger["rollback"] > 0, ledger["restore"] > 0) == (crashed, crashed)

    def test_report_renders_a_foreign_ledger(self):
        """A ``job.ledger`` from another version of the program (a
        category missing, one unknown) prints as zeros and is ignored."""
        ledger = {"ph": "i", "s": "t", "ts": 0.0, "pid": 0, "tid": TID_JOB,
                  "name": "job.ledger", "args": {"gp_master": 1.0, "idle": 2.0}}
        text = format_trace_report(trace_report({"traceEvents": [ledger]}))
        assert "gp_master       1.000000s  100.0%" in text
        assert "restore         0.000000s" in text and "idle" not in text

    def test_counters_csv(self, tmp_path):
        tracer, _ = _traced_run()
        path = str(tmp_path / "out.csv")
        rows = write_counters_csv(tracer, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "series,ts,value"
        assert len(lines) == rows + 1
        name, ts, value = lines[1].split(",")
        float(ts), float(value)  # parseable

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_trace(str(path))

    @pytest.mark.parametrize("text", ["5", "null", "[]", '{"traceEvents": 3}'])
    def test_load_trace_rejects_json_that_is_not_a_trace(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a Chrome trace"):
            load_trace(str(path))


class TestDriversAndRecovery:
    def test_mcst_traces_all_rounds(self):
        graph = to_undirected(rmat_graph(7, seed=3, weighted=True))
        tracer = Tracer(sample_interval=None)
        result = run_mcst(graph, machines=2, chunk_bytes=4096, tracer=tracer)
        assert tracer.open_span_count() == 0
        done = [e for e in tracer.events
                if e["ph"] == "i" and e["name"] == "job.done"]
        assert len(done) == len(result.jobs)
        # Runs are laid out sequentially: job.done markers strictly increase.
        stamps = [e["ts"] for e in done]
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)


    def test_rollback_fence_closes_the_killed_epoch_spans(self, tmp_path, capsys):
        """The fence ends every span its kill cuts short, tagged
        ``fenced``: the crashed run's report warns of no unbalanced
        span (it warned of 9 while the fence left them open)."""
        from repro.cli import main

        path = str(tmp_path / "crash.trace.json")
        assert main([
            "run", "--algorithm", "PR", "--scale", "8", "--machines", "3",
            "--seed", "5", "--checkpoint", "--inject-fault", "crash:1@iter=2",
            "--trace", path,
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", path]) == 0
        assert "unbalanced" not in capsys.readouterr().out
        assert main(["trace-report", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["unbalanced_spans"] == 0
        fenced = [
            event for event in load_trace(path)["traceEvents"]
            if event.get("ph") == "E" and (event.get("args") or {}).get("fenced")
        ]
        assert len(fenced) == 9


class TestResultSurface:
    def test_job_result_json(self):
        _, result = _traced_run()
        payload = json.loads(result.to_json())
        assert payload["algorithm"] == "PR"
        assert payload["machines"] == 2
        assert payload["network_bytes"] == result.network_bytes
        assert list(payload["breakdown"]) == sorted(LEDGER_CATEGORIES)
        assert sum(payload["breakdown"].values()) == pytest.approx(
            payload["machines"] * payload["runtime"], abs=1e-9
        )
        assert len(payload["iteration_stats"]) == result.iterations
        assert "rank" in payload["value_keys"]
        # Deterministic serialization.
        assert result.to_json() == result.to_json()

    def test_summary_includes_network_and_checkpoints(self):
        graph = rmat_graph(8, seed=1)
        result = run_algorithm(PageRank(iterations=2), graph, machines=2,
                               chunk_bytes=4096, checkpointing=True)
        text = result.summary()
        assert "net=" in text
        assert f"checkpoints={result.checkpoints}" in text
        assert result.checkpoints > 0

    def test_driver_result_json(self):
        graph = to_undirected(rmat_graph(7, seed=3, weighted=True))
        result = run_mcst(graph, machines=2, chunk_bytes=4096)
        payload = json.loads(result.to_json())
        assert payload["algorithm"] == "MCST"
        assert payload["rounds"] == result.rounds
        assert len(payload["jobs"]) == len(result.jobs)
        assert payload["network_bytes"] == result.network_bytes
