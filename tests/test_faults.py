"""Tests for in-simulation fault injection (:mod:`repro.faults`).

The acceptance invariant of the subsystem: for a fixed
``(config, seed)``, a fault-injected run's final vertex values are
**byte-identical** to the undisturbed run's — across algorithms and
fault kinds — and the recovery timeline decomposes into
useful/lost/restore time that reconciles with the tracer's category
totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    KCore,
    PageRank,
)
from repro.core.runtime import ChaosCluster
from repro.faults import (
    CheckpointRegistry,
    FaultKind,
    FaultPlan,
    parse_fault_spec,
)
from repro.faults.registry import SLOT_BASES
from repro.faults.supervisor import ClusterSupervisor

from tests.conftest import fast_config


def _fault_config(**overrides):
    defaults = dict(checkpointing=True, seed=7)
    defaults.update(overrides)
    return fast_config(4, **defaults)


def _assert_byte_identical(faulted, baseline):
    assert set(faulted.values) == set(baseline.values)
    for name in baseline.values:
        a, b = faulted.values[name], baseline.values[name]
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


# ---------------------------------------------------------------------------
# Spec parsing and validation
# ---------------------------------------------------------------------------


class TestSpecParsing:
    def test_crash_with_iteration_trigger(self):
        spec = parse_fault_spec("crash:1@iter=3")
        assert spec.kind is FaultKind.CRASH
        assert spec.machine == 1
        assert spec.at_iteration == 3
        assert spec.at_time is None
        assert spec.describe() == "crash:1@iter=3"

    def test_crash_restart_with_time_and_down(self):
        spec = parse_fault_spec("crash-restart:0@t=0.02,down=0.01")
        assert spec.kind is FaultKind.CRASH_RESTART
        assert spec.at_time == pytest.approx(0.02)
        assert spec.down == pytest.approx(0.01)

    def test_partition_with_duration(self):
        spec = parse_fault_spec("partition:2@iter=2,for=0.05")
        assert spec.kind is FaultKind.PARTITION
        assert spec.duration == pytest.approx(0.05)

    def test_slow_device(self):
        spec = parse_fault_spec("slow-device:1@t=0.01,factor=8,for=0.02")
        assert spec.kind is FaultKind.SLOW_DEVICE
        assert spec.factor == pytest.approx(8.0)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("bogus:1@iter=3", "unknown kind"),
            ("crash:1", "missing @trigger"),
            ("crash:x@iter=3", "bad machine id"),
            ("crash:1@when=3", "trigger must be"),
            ("crash:1@iter=oops", "bad iter="),
            ("crash:1@t=soon", "bad t="),
            ("crash:1@iter=3,color=red", "unknown option"),
        ],
    )
    def test_parse_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_fault_spec(text)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("crash:9@iter=3", "outside"),
            ("crash:1@iter=3,for=0.05", "down="),
            ("partition:1@iter=3,for=0.000001", "shorter than two leases"),
            ("partition:1@iter=3,down=0.01", "only applies to crashes"),
            ("slow-device:1@t=0.01,for=0.02", "factor="),
            ("slow-device:1@t=0.01,factor=0.5,for=0.02", "factor="),
            ("crash:1@t=-1", "t= must be"),
        ],
    )
    def test_validation_errors(self, text, match):
        config = _fault_config()
        with pytest.raises(ValueError, match=match):
            parse_fault_spec(text).validate(config)

    def test_partition_needs_two_machines(self):
        config = fast_config(1, checkpointing=True)
        with pytest.raises(ValueError, match="two machines"):
            parse_fault_spec("partition:0@iter=1").validate(config)

    def test_plan_parse_and_bool(self):
        plan = FaultPlan.parse(["crash:1@iter=3", "partition:0@t=0.1"])
        assert len(plan.specs) == 2
        assert bool(plan)
        assert not FaultPlan()


# ---------------------------------------------------------------------------
# Checkpoint registry (two-phase double buffer)
# ---------------------------------------------------------------------------


class TestCheckpointRegistry:
    def test_first_round_uses_slot_zero(self):
        registry = CheckpointRegistry(num_partitions=2)
        assert registry.round_slot((0, 0, 0), 0) == 0
        # Same round, second caller: same slot.
        assert registry.round_slot((0, 0, 0), 0) == 0

    def test_round_durable_after_all_partitions(self):
        registry = CheckpointRegistry(num_partitions=2)
        key = (0, 0, 1)
        registry.round_slot(key, 1)
        registry.note_durable(key, 0, now=1.0)
        assert registry.latest_durable() is None
        registry.note_durable(key, 1, now=2.0)
        generation = registry.latest_durable()
        assert generation is not None
        assert generation.key == key
        assert generation.resume_iteration == 1
        assert generation.durable_at == pytest.approx(2.0)

    def test_next_round_never_reuses_durable_slot(self):
        registry = CheckpointRegistry(num_partitions=1)
        registry.round_slot((0, 0, 0), 0)
        registry.note_durable((0, 0, 0), 0, now=1.0)
        assert registry.latest_durable().slot == 0
        # The in-progress round must write to the *other* slot so a
        # crash mid-round can still restore the durable generation.
        assert registry.round_slot((0, 1, 0), 1) == 1
        registry.note_durable((0, 1, 0), 0, now=2.0)
        assert registry.latest_durable().slot == 1
        assert registry.round_slot((0, 2, 0), 2) == 0
        assert registry.rounds_completed == 2

    def test_unopened_round_rejected(self):
        registry = CheckpointRegistry(num_partitions=1)
        with pytest.raises(KeyError):
            registry.note_durable((0, 0, 0), 0, now=1.0)

    def test_slot_bases_clear_working_indices(self):
        registry = CheckpointRegistry(num_partitions=1)
        assert registry.base_for_slot(0) == SLOT_BASES[0]
        assert registry.base_for_slot(1) == SLOT_BASES[1]
        assert SLOT_BASES[0] > 100_000 and SLOT_BASES[1] > SLOT_BASES[0]


# ---------------------------------------------------------------------------
# Byte-identity across algorithms x fault kinds (acceptance invariant)
# ---------------------------------------------------------------------------

FAULTS = [
    "crash:1@iter=2",
    "crash-restart:1@iter=2,down=0.01",
    "partition:2@iter=2,for=0.05",
]

#: Algorithms whose vertex state carries the iteration number: only a
#: rollback that resumes at the checkpoint's iteration (not at 0)
#: reproduces them byte for byte.
STAMPED = {
    "BFS": lambda: BFS(root=0),
    "KCore": lambda: KCore(2),
    "BP": lambda: BeliefPropagation(iterations=4),
    "MIS": MIS,
}
STAMPED_FAULTS = [
    "crash:1@iter=1",
    "crash:1@iter=2",
    "crash-restart:2@iter=1,down=0.001",
]


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def baselines(self, small_graph, small_undirected_graph):
        config = _fault_config()
        runs = {
            "PR": ChaosCluster(config).run(
                PageRank(iterations=5), small_graph
            ),
            "WCC": ChaosCluster(config).run(WCC(), small_undirected_graph),
            "SSSP": ChaosCluster(config).run(
                SSSP(root=0), small_undirected_graph
            ),
        }
        for name, make in STAMPED.items():
            algorithm = make()
            graph = (
                small_undirected_graph
                if algorithm.needs_undirected
                else small_graph
            )
            runs[name] = (ChaosCluster(config).run(algorithm, graph), graph)
        return runs

    @pytest.mark.parametrize("fault", FAULTS)
    def test_pagerank(self, fault, small_graph, baselines, backend):
        config = _fault_config()
        result = ChaosCluster(config, backend_factory=backend).run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse([fault]),
        )
        _assert_byte_identical(result, baselines["PR"])

    @pytest.mark.parametrize("fault", FAULTS)
    def test_wcc(self, fault, small_undirected_graph, baselines):
        config = _fault_config()
        result = ChaosCluster(config).run(
            WCC(), small_undirected_graph,
            fault_plan=FaultPlan.parse([fault]),
        )
        _assert_byte_identical(result, baselines["WCC"])

    @pytest.mark.parametrize("fault", FAULTS)
    def test_sssp(self, fault, small_undirected_graph, baselines):
        config = _fault_config()
        result = ChaosCluster(config).run(
            SSSP(root=0), small_undirected_graph,
            fault_plan=FaultPlan.parse([fault]),
        )
        _assert_byte_identical(result, baselines["SSSP"])

    @pytest.mark.parametrize("fault", STAMPED_FAULTS)
    @pytest.mark.parametrize("algorithm", sorted(STAMPED))
    def test_iteration_stamped(self, algorithm, fault, baselines):
        baseline, graph = baselines[algorithm]
        result = ChaosCluster(_fault_config()).run(
            STAMPED[algorithm](), graph, fault_plan=FaultPlan.parse([fault])
        )
        _assert_byte_identical(result, baseline)
        assert result.iterations == baseline.iterations

    def test_resumed_then_crashed_counts_this_runs_iterations(
        self, small_graph
    ):
        """``JobResult.iterations`` is how far *this run* advanced the
        job, with or without a rollback on the way."""
        config = _fault_config()
        plain = ChaosCluster(config).run(
            PageRank(iterations=5), small_graph, start_iteration=3
        )
        faulted = ChaosCluster(config).run(
            PageRank(iterations=5), small_graph, start_iteration=3,
            fault_plan=FaultPlan.parse(["crash:1@iter=4"]),
        )
        _assert_byte_identical(faulted, plain)
        assert [s.iteration for s in faulted.iteration_stats] == [3, 4, 4]
        assert faulted.iterations == plain.iterations == 2

    def test_crash_without_checkpointing_restarts_from_initial(
        self, small_graph, baselines
    ):
        config = _fault_config(checkpointing=False)
        baseline = ChaosCluster(config).run(
            PageRank(iterations=5), small_graph
        )
        cluster = ChaosCluster(config)
        result = cluster.run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
        )
        _assert_byte_identical(result, baseline)
        round_ = cluster.last_fault_timeline.rounds[0]
        assert not round_.from_checkpoint
        assert round_.resume_iteration == 0

    def test_replicated_checkpoints(self, small_graph, baselines):
        config = _fault_config(vertex_replicas=2)
        baseline = ChaosCluster(config).run(
            PageRank(iterations=5), small_graph
        )
        result = ChaosCluster(config).run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
        )
        _assert_byte_identical(result, baseline)

    def test_two_sequential_crashes(self, small_graph, baselines):
        config = _fault_config()
        cluster = ChaosCluster(config)
        result = cluster.run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(
                ["crash:1@iter=1", "crash:2@iter=3"]
            ),
        )
        _assert_byte_identical(result, baselines["PR"])
        assert len(cluster.last_fault_timeline.rounds) == 2

    def test_slow_device_triggers_no_recovery(self, small_graph, baselines):
        config = _fault_config()
        cluster = ChaosCluster(config)
        result = cluster.run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(
                ["slow-device:1@t=0.002,factor=8,for=0.01"]
            ),
        )
        _assert_byte_identical(result, baselines["PR"])
        timeline = cluster.last_fault_timeline
        assert len(timeline.faults) == 1
        assert timeline.rounds == []
        assert timeline.lost_seconds == 0.0


class TestRollbackFence:
    """Recovery is cluster-wide (Section 6.6): the rollback fence kills
    every engine main and dispatch process of the failed epoch, crashed
    or not.  The CHX021 suppressions on the main process's bare waits
    (``core/compute.py``) rely on it — a wait no process is parked on
    cannot hang."""

    @pytest.mark.parametrize(
        "fault", ["crash:1@iter=1", "partition:2@iter=1,for=0.05"]
    )
    def test_rollback_finishes_every_process_of_the_failed_epoch(
        self, fault, small_graph, monkeypatch
    ):
        fenced, alive = [], []
        recover = ClusterSupervisor._recover

        def recover_and_inspect(supervisor):
            processes = list(supervisor.processes) + [
                engine.dispatch_process for engine in supervisor.engines
            ]
            resume = recover(supervisor)
            fenced.extend(processes)
            alive.extend(p.name for p in processes if p.alive)
            return resume

        monkeypatch.setattr(ClusterSupervisor, "_recover", recover_and_inspect)
        config = _fault_config()
        cluster = ChaosCluster(config)
        cluster.run(
            PageRank(iterations=3), small_graph,
            fault_plan=FaultPlan.parse([fault]),
        )
        assert len(cluster.last_fault_timeline.rounds) == 1
        assert len(fenced) == 2 * config.machines
        assert alive == []


# ---------------------------------------------------------------------------
# Timeline decomposition and tracer reconciliation
# ---------------------------------------------------------------------------


class TestTimeline:
    @pytest.fixture(scope="class")
    def traced_run(self, small_graph):
        from repro.obs import Tracer, chrome_trace_dict, summarize_trace

        config = _fault_config()
        tracer = Tracer(sample_interval=None)
        cluster = ChaosCluster(config, tracer=tracer)
        result = cluster.run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
        )
        summary = summarize_trace(chrome_trace_dict(tracer))
        return cluster.last_fault_timeline, result, summary

    def test_decomposition_sums_to_total(self, traced_run):
        timeline, result, _ = traced_run
        assert timeline.total_runtime == pytest.approx(result.runtime)
        assert timeline.useful_seconds > 0
        assert timeline.lost_seconds > 0
        assert timeline.restore_seconds > 0
        assert (
            timeline.useful_seconds
            + timeline.lost_seconds
            + timeline.restore_seconds
        ) == pytest.approx(timeline.total_runtime)

    def test_iteration_rows_keep_the_killed_epochs(self, traced_run):
        """``iteration_stats`` concatenates every epoch's rows, the
        killed epoch's partial iteration 2 included (host edges/sec
        sums ``edges_streamed`` over them: re-streamed edges count);
        ``iterations`` is the logical count."""
        _, result, _ = traced_run
        rows = [stats.iteration for stats in result.iteration_stats]
        assert rows == [0, 1, 2, 2, 3, 4]
        assert result.iterations == 5

    def test_round_fields(self, traced_run):
        timeline, _, _ = traced_run
        assert len(timeline.faults) == 1
        assert len(timeline.rounds) == 1
        round_ = timeline.rounds[0]
        assert round_.suspects == (1,)
        assert round_.from_checkpoint
        assert round_.detected_at >= timeline.faults[0].fired_at
        assert round_.resumed_at == pytest.approx(
            round_.detected_at + round_.restore_seconds
        )
        assert "useful" in timeline.summary()

    def test_tracer_categories_reconcile(self, traced_run):
        """The lost/restore spans on the cluster job track sum to the
        timeline's decomposition exactly (ISSUE acceptance)."""
        timeline, _, summary = traced_run
        assert summary.category_seconds["lost"] == pytest.approx(
            timeline.lost_seconds
        )
        assert summary.category_seconds["restore"] == pytest.approx(
            timeline.restore_seconds
        )

    def test_trace_report_shows_recovery_rows(self, traced_run):
        from repro.obs import format_trace_report

        _, _, summary = traced_run
        report = format_trace_report(summary)
        assert "recovery decomposition" in report
        assert "lost" in report and "restore" in report

    def test_fault_instants_traced(self, traced_run):
        _, _, summary = traced_run
        assert summary.instants.get("fault.suspect", 0) >= 1


# ---------------------------------------------------------------------------
# Rejected combinations
# ---------------------------------------------------------------------------


class TestRejections:
    def test_sanitizer_mutually_exclusive(self, small_graph):
        from repro.analysis import Sanitizer

        config = _fault_config()
        with pytest.raises(ValueError, match="sanitizer"):
            ChaosCluster(config, sanitizer=Sanitizer()).run(
                PageRank(iterations=2), small_graph,
                fault_plan=FaultPlan.parse(["crash:1@iter=1"]),
            )

    def test_centralized_placement_rejected(self, small_graph):
        config = _fault_config(placement="centralized")
        with pytest.raises(ValueError, match="centralized"):
            ChaosCluster(config).run(
                PageRank(iterations=2), small_graph,
                fault_plan=FaultPlan.parse(["crash:1@iter=1"]),
            )

    def test_invalid_plan_rejected_before_running(self, small_graph):
        config = _fault_config()
        with pytest.raises(ValueError, match="outside"):
            ChaosCluster(config).run(
                PageRank(iterations=2), small_graph,
                fault_plan=FaultPlan.parse(["crash:9@iter=1"]),
            )

    def test_empty_plan_is_a_plain_run(self, small_graph):
        config = _fault_config()
        cluster = ChaosCluster(config)
        result = cluster.run(
            PageRank(iterations=3), small_graph, fault_plan=FaultPlan()
        )
        assert cluster.last_fault_timeline is None
        baseline = ChaosCluster(config).run(
            PageRank(iterations=3), small_graph
        )
        _assert_byte_identical(result, baseline)
