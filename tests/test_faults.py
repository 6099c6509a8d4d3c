"""Tests for in-simulation fault injection (:mod:`repro.faults`).

The acceptance invariant of the subsystem: for a fixed
``(config, seed)``, a fault-injected run's final vertex values are
**byte-identical** to the undisturbed run's — across algorithms and
fault kinds — and the recovery timeline decomposes into
useful/lost/restore time that reconciles with the tracer's category
totals.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    KCore,
    PageRank,
)
from repro.core.compute import ComputationEngine
from repro.core.config import HEARTBEAT_INTERVAL, RESTART_SECONDS
from repro.core.runtime import ChaosCluster
from repro.faults import (
    BYZANTINE_KINDS,
    CheckpointRegistry,
    FaultKind,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from repro.faults.plan import FAULT_TABLE
from repro.faults.supervisor import ClusterSupervisor
from repro.net.transport import Network
from repro.store.placement import SLOT_BASES

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

    @pytest.mark.parametrize(
        "text",
        [
            "crash:1@t=nan",
            "crash-restart:1@iter=1,down=inf",
            "partition:1@iter=1,for=inf",
            "slow-device:1@iter=1,factor=inf,for=0.01",
            "msg-reorder:1@iter=1,delay=nan",
        ],
        ids=["t", "down", "for", "factor", "delay"],
    )
    def test_non_finite_values_rejected(self, text):
        with pytest.raises(ValueError, match="non-finite"):
            parse_fault_spec(text).validate(_fault_config())


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fault_specs(draw):
    """Any kind, one trigger, any subset of options, any finite values."""
    trigger, values = draw(st.sampled_from(
        [("at_time", _FINITE), ("at_iteration", st.integers(0, 10**9))]
    ))
    fields = {trigger: draw(values)}
    for name, values in (
        ("down", _FINITE), ("duration", _FINITE), ("factor", _FINITE),
        ("count", st.integers(-10, 10**9)), ("delay", _FINITE),
    ):
        if draw(st.booleans()):
            fields[name] = draw(values)
    return FaultSpec(
        kind=draw(st.sampled_from(list(FaultKind))),
        machine=draw(st.integers(0, 64)),
        **fields,
    )


@given(spec=fault_specs())
@example(spec=FaultSpec(kind=FaultKind.CRASH, machine=1, at_time=0.1234567))
@settings(max_examples=300)
def test_describe_round_trips(spec):
    """What the trace, the timeline and a reproducer file name is what
    was injected: ``describe()`` parses back to an equal spec."""
    assert parse_fault_spec(spec.describe()) == spec


def test_readme_fault_tables_match_the_fault_table():
    """README's two kind tables list exactly the declared kinds and, per
    kind, exactly the option keys the table gives it; the second table
    is the byzantine family."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    tables = readme.read_text().split("| Kind | Semantics | Keys |\n")[1:]
    documented = []
    for table in tables:
        rows = re.findall(r"^\| `([a-z-]+)` \|.*\| (.*) \|$",
                          table.split("\n\n")[0], re.MULTILINE)
        documented.append(
            {kind: set(re.findall(r"`([a-z]+)=`", keys)) for kind, keys in rows}
        )
    assert len(documented) == 2
    assert set(documented[1]) == {k.value for k in BYZANTINE_KINDS}
    assert {**documented[0], **documented[1]} == {
        kind.value: set(row.keys) for kind, row in FAULT_TABLE.items()
    }


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


class TestDetectionBound:
    """The lease detector alone bounds detection: a lost machine is
    suspected within 1.5 leases (the watch looks every half lease) plus
    one heartbeat (the last one may still be in flight) of the fault,
    however the other machines wait on it.  No second failure signal is
    needed, at the phase barrier either.  One recovery round, and the
    fault-free values."""

    @staticmethod
    def _config():
        return fast_config(3, checkpointing=True, seed=7)

    def _recover(self, graph, plan, monkeypatch):
        """Run ``plan``; the number of parties standing at the phase
        barrier when the first suspicion fires."""
        waiting = []
        on_suspect = ClusterSupervisor._on_suspect

        def note_waiting(supervisor, machine):
            if not supervisor.failure.triggered:
                waiting.append(supervisor.engines[0].barrier.waiting)
            on_suspect(supervisor, machine)

        monkeypatch.setattr(ClusterSupervisor, "_on_suspect", note_waiting)
        config = self._config()
        cluster = ChaosCluster(config)
        result = cluster.run(
            PageRank(iterations=3), graph, fault_plan=FaultPlan.parse(plan)
        )
        (fault,) = cluster.last_fault_timeline.faults
        (recovery,) = cluster.last_fault_timeline.rounds
        latency = recovery.detected_at - fault.fired_at
        lease = config.effective_lease_timeout()
        assert 0 <= latency <= 1.5 * lease + HEARTBEAT_INTERVAL
        baseline = ChaosCluster(config).run(PageRank(iterations=3), graph)
        _assert_byte_identical(result, baseline)
        return waiting[0]

    @pytest.mark.parametrize("spec", ["crash:1@iter=1", "partition:1@iter=1"])
    def test_fault_at_iteration_start(self, spec, small_graph, monkeypatch):
        # The fault strikes as the iteration's scatter begins: the other
        # machines block on the lost machine's store, not at the barrier.
        assert self._recover(small_graph, [spec], monkeypatch) == 0

    @pytest.mark.parametrize("kind", ["crash", "partition"])
    def test_fault_while_the_others_wait_at_the_barrier(
        self, kind, small_graph, monkeypatch
    ):
        # Place the fault in the first phase barrier whose last party
        # arrives after the other two, from a run whose one fault never
        # fires (so heartbeats and detector shape its timing too).
        arrivals = []
        enter = ComputationEngine._enter_barrier

        def recording(engine, *args, **kwargs):
            arrivals.append((engine.sim.now, engine.machine))
            return (yield from enter(engine, *args, **kwargs))

        monkeypatch.setattr(ComputationEngine, "_enter_barrier", recording)
        ChaosCluster(self._config()).run(
            PageRank(iterations=3), small_graph,
            fault_plan=FaultPlan.parse(["msg-dup:1@iter=99"]),
        )
        monkeypatch.undo()
        rounds = [arrivals[i:i + 3] for i in range(0, len(arrivals), 3)]
        (_, _), (second, _), (last_at, last) = next(
            r for r in rounds if r[1][0] < r[2][0]
        )
        at = (second + last_at) / 2
        plan = [f"{kind}:{last}@t={at!r}"]
        assert self._recover(small_graph, plan, monkeypatch) == 2


class TestRollbackFence:
    """Recovery is cluster-wide (Section 6.6): the rollback fence kills
    every engine main process and compute registration of the failed
    epoch, crashed or not.  Every bare wait of the main process
    (``core/compute.py``) relies on it — a wait no process is parked on
    cannot hang."""

    @pytest.mark.parametrize(
        "fault", ["crash:1@iter=1", "partition:2@iter=1,for=0.05"]
    )
    def test_rollback_finishes_every_process_of_the_failed_epoch(
        self, fault, small_graph, monkeypatch
    ):
        fenced, alive, receiving = [], [], []
        recover = ClusterSupervisor._recover

        def recover_and_inspect(supervisor):
            processes = list(supervisor.processes) + [
                engine.endpoint for engine in supervisor.engines
            ]
            resume = recover(supervisor)
            fenced.extend(processes)
            alive.extend(p.name for p in processes if p.alive)
            receiving.extend(
                m for m, engine in enumerate(supervisor.engines)
                if engine.endpoint.receiving
            )
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
        assert receiving == []

    def test_rollback_ends_a_steal_proposal_to_a_crashed_master(
        self, small_graph, monkeypatch
    ):
        """With stealing always on (alpha = inf), the first steal
        proposal's master crashes while the proposal is in flight.  The
        proposer waits on the reply with no timeout; the rollback, not
        the proposer, ends that wait, and the job still ends with the
        fault-free values."""
        config = _fault_config(steal_alpha=math.inf)
        supervisors, proposal, at_rollback = [], {}, {}
        run_epoch, send = ClusterSupervisor._run_epoch, Network.send
        recover = ClusterSupervisor._recover

        def remember_supervisor(supervisor, *args):
            supervisors.append(supervisor)
            return run_epoch(supervisor, *args)

        def crash_first_proposal(network, *args, **kwargs):
            if kwargs.get("kind") == "steal_request" and not proposal:
                request_id, proposer = kwargs["payload"][:2]
                proposal.update(id=request_id, proposer=proposer)
                network.sim.schedule(  # rebooted by the recovery
                    0.0, supervisors[0].crash_machine, kwargs["dst"], True
                )
            return send(network, *args, **kwargs)

        def recover_and_inspect(supervisor):
            engine = supervisor.engines[proposal["proposer"]]
            process = supervisor.processes[proposal["proposer"]]
            at_rollback.update(
                pending=proposal["id"] in engine._pending,
                alive=process.alive,
            )
            resume = recover(supervisor)
            at_rollback["finished"] = not process.alive
            return resume

        monkeypatch.setattr(ClusterSupervisor, "_run_epoch", remember_supervisor)
        monkeypatch.setattr(Network, "send", crash_first_proposal)
        monkeypatch.setattr(ClusterSupervisor, "_recover", recover_and_inspect)
        cluster = ChaosCluster(config)
        faulted = cluster.run(  # a plan that never fires: only the crash
            PageRank(iterations=3), small_graph,
            fault_plan=FaultPlan.parse(["msg-dup:0@iter=99"]),
        )
        monkeypatch.undo()
        assert len(cluster.last_fault_timeline.rounds) == 1
        assert at_rollback == dict(pending=True, alive=True, finished=True)
        baseline = ChaosCluster(config).run(PageRank(iterations=3), small_graph)
        _assert_byte_identical(faulted, baseline)


class TestCrashDuringRestore:
    """A second machine crashes while the first rollback's restore is
    reading the checkpoint back.  The restore is the resumed epoch's
    first step, so the crash is suspected and rolled back like any
    other: a second round, from the same checkpoint, and the fault-free
    values."""

    @pytest.mark.parametrize(
        "algorithm, alpha", [("PR", 1.0), ("PR", math.inf), ("WCC", 1.0)]
    )
    def test_second_round_restores_again(
        self, algorithm, alpha, small_graph, small_undirected_graph
    ):
        if algorithm == "PR":
            make, graph = (lambda: PageRank(iterations=5)), small_graph
        else:
            make, graph = WCC, small_undirected_graph
        config = _fault_config(steal_alpha=alpha)
        single = ChaosCluster(config)
        single.run(make(), graph, fault_plan=FaultPlan.parse(["crash:1@iter=2"]))
        first = single.last_fault_timeline.rounds[0]
        rebooted = first.detected_at + RESTART_SECONDS
        at = (rebooted + first.resumed_at) / 2
        assert rebooted < at < first.resumed_at

        cluster = ChaosCluster(config)
        result = cluster.run(
            make(), graph,
            fault_plan=FaultPlan.parse(["crash:1@iter=2", f"crash:2@t={at!r}"]),
        )
        rounds = cluster.last_fault_timeline.rounds
        assert len(rounds) == 2
        assert all(r.from_checkpoint for r in rounds)
        assert rounds[1].suspects == (2,)
        # The interrupted restore's window runs to the second fence; the
        # epoch it restored did no useful work to lose.
        assert rounds[0].resumed_at == rounds[1].detected_at
        assert rounds[1].lost_seconds == 0.0
        baseline = ChaosCluster(config).run(make(), graph)
        _assert_byte_identical(result, baseline)
        assert result.iterations == baseline.iterations

    def test_crash_during_the_reboot_wait_is_rebooted_too(self, small_graph):
        """A second crash while recovery waits for the first machine's
        reboot: the recovery reboots that machine as well, so the one
        round ends; only a fence schedules the other reboots, and
        without this one the wait would never end."""
        config = _fault_config()
        single = ChaosCluster(config)
        single.run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
        )
        first = single.last_fault_timeline.rounds[0]
        at = first.detected_at + RESTART_SECONDS / 2
        cluster = ChaosCluster(config)
        result = cluster.run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(["crash:1@iter=2", f"crash:2@t={at!r}"]),
            deadline_seconds=1.0,
        )
        rounds = cluster.last_fault_timeline.rounds
        assert len(rounds) == 1
        assert rounds[0].resumed_at > at + RESTART_SECONDS
        baseline = ChaosCluster(config).run(PageRank(iterations=5), small_graph)
        _assert_byte_identical(result, baseline)


# ---------------------------------------------------------------------------
# Timeline decomposition and tracer reconciliation
# ---------------------------------------------------------------------------


class TestTimeline:
    @pytest.fixture(scope="class")
    def traced_run(self, small_graph):
        from repro.obs import Tracer, chrome_trace_dict, trace_report

        config = _fault_config()
        tracer = Tracer(sample_interval=None)
        cluster = ChaosCluster(config, tracer=tracer)
        result = cluster.run(
            PageRank(iterations=5), small_graph,
            fault_plan=FaultPlan.parse(["crash:1@iter=2"]),
        )
        report = trace_report(chrome_trace_dict(tracer))
        return cluster.last_fault_timeline, result, report

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
        timeline, _, report = traced_run
        seconds = report["summary"]["category_seconds"]
        assert seconds["lost"] == pytest.approx(timeline.lost_seconds)
        assert seconds["restore"] == pytest.approx(
            timeline.restore_seconds
        )

    def test_trace_report_shows_recovery_rows(self, traced_run):
        from repro.obs import format_trace_report

        _, _, report = traced_run
        text = format_trace_report(report)
        assert "recovery decomposition" in text
        assert "lost" in text and "restore" in text

    def test_fault_instants_traced(self, traced_run):
        _, _, report = traced_run
        assert report["summary"]["instants"].get("fault.suspect", 0) >= 1


# ---------------------------------------------------------------------------
# Rejected combinations
# ---------------------------------------------------------------------------


class TestRejections:
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
