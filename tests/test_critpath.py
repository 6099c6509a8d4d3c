"""Tests for the bottleneck-attribution analyzer (repro.obs.critpath).

The load-bearing property is *closure*: the per-machine category
seconds must sum to the trace duration exactly, on crafted traces and
on real runs alike (normal, network-bound, multi-algorithm,
fault-injected).  On top of that the analyzer must name the right
binding resource for storage- vs network-bound hardware, measure a
steady-state storage utilization within 5% of the analytic rho(m, k)
(Eq. 4), and flag stragglers only when stealing is off.
"""

import pytest

from repro import PageRank, rmat_graph, run_algorithm
from repro.algorithms import SSSP, WCC
from repro.faults import FaultPlan
from repro.net.topology import GIGE_1_BENCH, GIGE_40_BENCH
from repro.obs import (
    ATTRIBUTION_CATEGORIES,
    AttributionError,
    Tracer,
    analyze_chrome_trace,
    analyze_events,
    analyze_tracer,
    chrome_trace_dict,
    format_attribution_report,
    format_iteration_table,
)
from repro.obs.tracer import TID_DEVICE, TID_ENGINE, TID_JOB
from repro.store.device import SSD_BENCH

from tests.conftest import fast_config

CLOSURE_TOL = 1e-9


def _engine(ph, ts, name, pid=0, cat=None, args=None):
    event = {"ph": ph, "ts": ts, "pid": pid, "tid": TID_ENGINE, "name": name}
    if cat is not None:
        event["cat"] = cat
    if args is not None:
        event["args"] = args
    return event


def _device(ts, dur, pid=0):
    return {
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": TID_DEVICE,
        "name": "io",
        "cat": "storage",
    }


class TestCraftedTraces:
    """Hand-built event lists with known attributions."""

    def test_storage_and_queue_split(self):
        # Engine demands for [0, 8), barrier for [8, 10).  The device
        # serves [0, 4) then back-to-back [4, 8): the second request
        # queued, so its service time is the queueing share.
        events = [
            _engine("B", 0.0, "scatter", args={"iteration": 0}),
            _device(0.0, 4.0),
            _device(4.0, 4.0),
            _engine("B", 8.0, "barrier", cat="barrier"),
            _engine("E", 10.0, "barrier"),
            _engine("E", 10.0, "scatter"),
        ]
        report = analyze_events(events, duration=10.0)
        machine = report.per_machine[0].seconds
        assert machine["storage_busy"] == pytest.approx(4.0)
        assert machine["storage_queue"] == pytest.approx(4.0)
        assert machine["barrier"] == pytest.approx(2.0)
        assert report.closure_error() <= CLOSURE_TOL
        assert report.bottleneck == "storage"
        assert report.dominant_category in ("storage_busy", "storage_queue")

    def test_steal_cpu_and_net_wait(self):
        # merge_wait is steal overhead, merge_apply is cpu, and demand
        # with no local resource busy falls through to net_wait.
        events = [
            _engine("B", 0.0, "gather", args={"iteration": 1}),
            _engine("B", 0.0, "merge_wait", cat="merge_wait"),
            _engine("E", 3.0, "merge_wait"),
            _engine("B", 3.0, "merge_apply", cat="merge"),
            _engine("E", 5.0, "merge_apply"),
            _engine("E", 10.0, "gather"),
        ]
        report = analyze_events(events, duration=10.0)
        machine = report.per_machine[0].seconds
        assert machine["steal"] == pytest.approx(3.0)
        assert machine["cpu"] == pytest.approx(2.0)
        assert machine["net_wait"] == pytest.approx(5.0)
        assert report.closure_error() <= CLOSURE_TOL

    @pytest.mark.parametrize("name, cat, role, expected", [
        ("steal_propose", "steal_propose", None, {"steal": 4.0, "net_wait": 6.0}),
        ("ship_accum", "copy", "stealer", {"steal": 4.0, "net_wait": 6.0}),
        ("preprocess.barrier", "preprocess", None,
         {"barrier": 4.0, "net_wait": 6.0}),
        ("unlabelled", None, None, {"net_wait": 10.0}),
    ])
    def test_ledger_category_sets_the_engine_state(self, name, cat, role,
                                                   expected):
        # The innermost span's ledger category decides the state, with
        # two refinements: a stealer's copy is steal, and the
        # pre-processing barrier is barrier.  A span without a category
        # is demand (net_wait here: nothing busy).
        lane = [_engine("B", 2.0, name, cat=cat), _engine("E", 6.0, name)]
        if role is not None:
            lane = [_engine("B", 2.0, "partition3", args={"role": role}),
                    *lane, _engine("E", 6.0, "partition3")]
        events = [_engine("B", 0.0, "gather", args={"iteration": 1}), *lane,
                  _engine("E", 10.0, "gather")]
        report = analyze_events(events, duration=10.0)
        machine = report.per_machine[0].seconds
        assert {c: machine[c] for c in expected} == pytest.approx(expected)
        assert report.closure_error() <= CLOSURE_TOL

    def test_stealer_vertex_load_counts_as_steal(self):
        events = [
            _engine("B", 0.0, "scatter", args={"iteration": 0}),
            _engine("B", 0.0, "partition3", args={"role": "stealer"}),
            _engine("B", 0.0, "vertex_load", cat="copy"),
            _engine("E", 4.0, "vertex_load"),
            _engine("E", 4.0, "partition3"),
            _engine("B", 4.0, "partition0", args={"role": "master"}),
            _engine("B", 4.0, "vertex_load", cat="copy"),
            _engine("E", 6.0, "vertex_load"),
            _engine("E", 6.0, "partition0"),
            _engine("E", 10.0, "scatter"),
        ]
        report = analyze_events(events, duration=10.0)
        machine = report.per_machine[0].seconds
        # Stealer-side copy is stealing overhead; the master's own
        # vertex load is ordinary demand (net_wait here: nothing busy).
        assert machine["steal"] == pytest.approx(4.0)
        assert machine["net_wait"] == pytest.approx(6.0)
        assert report.closure_error() <= CLOSURE_TOL

    def test_recovery_window_wins_over_everything(self):
        # Machine count comes from the engine track; the job track
        # lives at pid == machines.  The lost window overlaps a barrier
        # — recovery has priority.
        events = [
            _engine("B", 0.0, "scatter", args={"iteration": 0}),
            _engine("B", 2.0, "barrier", cat="barrier"),
            _engine("E", 8.0, "barrier"),
            _engine("E", 10.0, "scatter"),
            {
                "ph": "X",
                "ts": 4.0,
                "dur": 3.0,
                "pid": 1,
                "tid": TID_JOB,
                "name": "lost",
                "cat": "lost",
            },
        ]
        report = analyze_events(events, duration=10.0)
        machine = report.per_machine[0].seconds
        assert machine["recovery"] == pytest.approx(3.0)
        assert machine["barrier"] == pytest.approx(3.0)  # 6 - overlap
        assert report.closure_error() <= CLOSURE_TOL

    def test_killed_engine_spans_do_not_leak_past_restart(self):
        # An engine killed at t=2 has its scatter/barrier spans ended by
        # the rollback fence there (tagged "fenced"); the restarted
        # epoch restores inside the rollback window and resumes at its
        # end.  Post-restart time is classified by the new epoch's
        # spans alone — idle time after they pop off is demand of the
        # *new* iteration, not barrier time of the dead epoch.
        fenced = {"fenced": True}
        events = [
            _engine("B", 0.0, "scatter", args={"iteration": 0}),
            _engine("B", 1.0, "barrier", cat="barrier"),
            _engine("E", 2.0, "barrier", args=fenced),
            _engine("E", 2.0, "scatter", args=fenced),
            {
                "ph": "X",
                "ts": 2.0,
                "dur": 3.0,
                "pid": 1,
                "tid": TID_JOB,
                "name": "lost",
                "cat": "lost",
            },
            # The restarted epoch's restore step and its barrier.
            _engine("B", 3.0, "restore", cat="restore"),
            _engine("E", 4.0, "restore"),
            _engine("B", 4.0, "restore.barrier", cat="restore"),
            _engine("E", 5.0, "restore.barrier"),
            # Restarted epoch resumes at the window end.
            _engine("B", 5.0, "scatter", args={"iteration": 1}),
            _engine("E", 7.0, "scatter"),
            # [7, 10): nothing on the stack.
        ]
        report = analyze_events(events, duration=10.0)
        machine = report.per_machine[0].seconds
        assert machine["recovery"] == pytest.approx(3.0)
        # Only [1, 2) is barrier — [7, 10) must not inherit the dead
        # epoch's barrier span.
        assert machine["barrier"] == pytest.approx(1.0)
        assert machine["net_wait"] == pytest.approx(6.0)
        # Post-restart idle is charged to the restarted iteration.
        per_iter = {it.label: it.total() for it in report.per_iteration}
        assert per_iter["0"] == pytest.approx(5.0)
        assert per_iter["1"] == pytest.approx(5.0)
        assert report.closure_error() <= CLOSURE_TOL

    def test_per_iteration_buckets(self):
        events = [
            _engine("B", 0.0, "scatter", args={"iteration": 0}),
            _engine("E", 4.0, "scatter"),
            _engine("B", 4.0, "scatter", args={"iteration": 1}),
            _engine("E", 10.0, "scatter"),
        ]
        report = analyze_events(events, duration=10.0)
        labels = [it.label for it in report.per_iteration]
        assert labels == ["0", "1"]
        assert report.per_iteration[0].total() == pytest.approx(4.0)
        assert report.per_iteration[1].total() == pytest.approx(6.0)

    def test_empty_trace_raises(self):
        with pytest.raises(AttributionError):
            analyze_events([])
        with pytest.raises(AttributionError):
            analyze_events(
                [_engine("B", 0.0, "scatter"), _engine("E", 0.0, "scatter")],
                duration=0.0,
            )


def _attributed_run(algorithm, graph, **overrides):
    tracer = Tracer(sample_interval=None)
    result = run_algorithm(algorithm, graph, tracer=tracer, **overrides)
    return analyze_tracer(tracer), tracer, result


class TestRealRunClosure:
    """The closure invariant on live simulated runs."""

    def test_pagerank_closure(self, small_graph):
        report, _tracer, result = _attributed_run(
            PageRank(iterations=3), small_graph, config=fast_config(4)
        )
        assert report.machines == 4
        assert report.duration == pytest.approx(result.runtime, rel=1e-9)
        assert report.closure_error() <= CLOSURE_TOL
        for m in report.per_machine:
            for category in ATTRIBUTION_CATEGORIES:
                assert m.seconds.get(category, 0.0) >= 0.0

    def test_wcc_closure(self, small_undirected_graph):
        report, _tracer, _result = _attributed_run(
            WCC(), small_undirected_graph, config=fast_config(2)
        )
        assert report.closure_error() <= CLOSURE_TOL

    def test_sssp_closure(self, small_undirected_graph):
        report, _tracer, _result = _attributed_run(
            SSSP(root=0), small_undirected_graph, config=fast_config(2)
        )
        assert report.closure_error() <= CLOSURE_TOL

    def test_fault_injected_closure_and_recovery(self, small_graph):
        report, _tracer, _result = _attributed_run(
            PageRank(iterations=4),
            small_graph,
            config=fast_config(4, checkpointing=True, seed=7),
            fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
        )
        assert report.closure_error() <= CLOSURE_TOL
        assert report.cluster_seconds["recovery"] > 0.0

    def test_chrome_roundtrip_matches_live_analysis(self, small_graph):
        tracer = Tracer(sample_interval=None)
        run_algorithm(
            PageRank(iterations=2),
            small_graph,
            tracer=tracer,
            config=fast_config(2),
        )
        live = analyze_tracer(tracer)
        loaded = analyze_chrome_trace(chrome_trace_dict(tracer))
        assert loaded.closure_error() <= 1e-5  # us rounding in export
        assert loaded.bottleneck == live.bottleneck
        for category in ATTRIBUTION_CATEGORIES:
            assert loaded.cluster_seconds[category] == pytest.approx(
                live.cluster_seconds[category], abs=1e-4
            )

    def test_disabled_tracer_rejected(self):
        from repro.obs import NULL

        with pytest.raises(AttributionError):
            analyze_tracer(NULL)


class TestBottleneckNaming:
    def test_ssd_40gige_is_storage_bound(self):
        report, _tracer, _result = _attributed_run(
            PageRank(iterations=3),
            rmat_graph(11, seed=1),
            machines=2,
            chunk_bytes=4096,
            batch_factor=8,
            partitions_per_machine=1,
            device=SSD_BENCH,
            network=GIGE_40_BENCH,
        )
        assert report.bottleneck == "storage"
        assert report.closure_error() <= CLOSURE_TOL

    def test_ssd_1gige_is_network_bound(self):
        report, _tracer, _result = _attributed_run(
            PageRank(iterations=3),
            rmat_graph(11, seed=1),
            machines=2,
            chunk_bytes=4096,
            batch_factor=8,
            partitions_per_machine=1,
            device=SSD_BENCH,
            network=GIGE_1_BENCH,
        )
        assert report.bottleneck == "network"
        assert report.closure_error() <= CLOSURE_TOL


class TestRhoMeasurement:
    @pytest.mark.parametrize("machines", [2, 4, 8])
    def test_measured_rho_tracks_eq4(self, machines):
        # The tracked bench configuration: deep request window (phi*k=8)
        # keeps the devices in the Eq. 4 steady-state regime.
        report, _tracer, _result = _attributed_run(
            PageRank(iterations=3),
            rmat_graph(12, seed=1),
            machines=machines,
            chunk_bytes=4096,
            batch_factor=8,
            partitions_per_machine=1,
            device=SSD_BENCH,
            network=GIGE_40_BENCH,
        )
        assert report.measured_rho is not None
        assert report.analytic_rho == pytest.approx(1.0)
        assert report.rho_error() < 0.05


class TestStragglerDetection:
    def test_stealing_disabled_flags_stragglers(self, medium_graph):
        report, _tracer, _result = _attributed_run(
            PageRank(iterations=3),
            medium_graph,
            config=fast_config(4, steal_alpha=0.0),
        )
        assert report.stragglers, "alpha=0 run should show stragglers"
        for flag in report.stragglers:
            assert flag.wait > flag.bound

    def test_stealing_enabled_bounds_barrier_wait(self, medium_graph):
        report, _tracer, _result = _attributed_run(
            PageRank(iterations=3), medium_graph, config=fast_config(4)
        )
        assert not report.stragglers, (
            "stealing should keep every barrier wait under the bound"
        )


class TestRendering:
    def test_report_text_sections(self, small_graph):
        report, _tracer, _result = _attributed_run(
            PageRank(iterations=2), small_graph, config=fast_config(2)
        )
        text = format_attribution_report(report)
        assert "bottleneck attribution" in text
        assert "binding resource" in text
        assert "closure error" in text
        assert "per-machine attribution" in text
        table = format_iteration_table(report.to_dict())
        assert any("per-iteration" in line for line in table)
        # One row per iteration label plus header lines.
        assert len(table) == 2 + len(report.per_iteration)

    def test_to_dict_is_json_ready(self, small_graph):
        import json

        report, _tracer, _result = _attributed_run(
            PageRank(iterations=2), small_graph, config=fast_config(2)
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["machines"] == 2
        assert set(payload["cluster_seconds"]) == set(ATTRIBUTION_CATEGORIES)
        assert payload["closure_error"] <= 1e-9
