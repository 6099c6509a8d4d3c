"""The fault-recovery supervisor: epochs, rollback, and the restore step.

Recovery in Chaos is cluster-wide (Section 6.6): when any machine
fails, *all* machines roll back to the most recent durable checkpoint
and re-execute from its iteration.  The :class:`ClusterSupervisor`
implements that protocol around the discrete-event simulation:

1. **Run an epoch.**  Build the job coordinator, barrier, and
   computation engines for the current recovery epoch and let them run.
   Heartbeat senders feed the failure detector, whose lease is the
   only failure signal: a wait ends when its event fires or when the
   rollback fence kills its process.
2. **Detect.**  The first suspicion fires the epoch's failure event and
   ends the epoch.  Every engine is fenced (its processes killed, its
   callbacks disabled), every surviving storage engine's data epoch is
   advanced so in-flight traffic from the dead epoch is dropped, and
   unavailable machines' storage engines self-fence.
3. **Re-admit.**  Recovery waits until every machine is up and
   reachable again — Chaos assumes transient failures; plainly crashed
   machines are rebooted ``RESTART_SECONDS`` into recovery, and
   ``crash-restart`` / ``partition`` faults revive on their own
   schedule.  Their secondary storage survives the outage.
4. **Decide.**  The next epoch restores the latest durable checkpoint
   generation.  If none ever became durable, the job restarts from its
   initial vertex values, reset at once (only the pre-processing output
   survives).
5. **Resume.**  A fresh epoch starts at once at the resume iteration,
   heartbeats and failure detector armed.  Each engine first runs the
   restore step (:meth:`ClusterSupervisor._restore`) instead of
   pre-processing: it reads its partitions' checkpoint chunks back
   *through its own endpoint and the real transport and device
   models*, purges its machine's stale update sets, and meets the
   others at the epoch-start barrier.  A fault during the restore is
   suspected and rolled back like any other.

Every phase is accounted on the cluster job track: retroactive ``lost``
spans (work after the restored checkpoint that must be re-executed) and
``restore`` spans (fence to the resumed epoch's restore-barrier
release), which the trace report reconciles against the timeline
totals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import HEARTBEAT_INTERVAL, RESTART_SECONDS
from repro.faults.detector import HeartbeatSender
from repro.faults.diagnosis import JobDiagnosis, UnrecoverableJobError
from repro.faults.plan import FAULT_TABLE, FaultSpec
from repro.net.retry import jittered_delay
from repro.net.transport import COMPUTE_SERVICE, STORAGE_SERVICE
from repro.obs.log import NULL
from repro.sim.engine import Event, SimulationError, Simulator
from repro.store import engine as store_engine
from repro.store.chunk import ChunkKind
from repro.store.integrity import verify_chunk
from repro.store.placement import SLOT_BASES


@dataclass
class FaultRecord:
    """One injected fault, as it actually fired."""

    spec: FaultSpec
    fired_at: float


@dataclass
class RecoveryRound:
    """One detection → rollback → restore → resume cycle."""

    #: Recovery epoch that failed (0 = the initial run).
    epoch: int
    #: Machines the failure detector had suspected at fence time.
    suspects: Tuple[int, ...]
    #: Simulated time the failure was detected (== fence time).
    detected_at: float
    #: Whether a durable checkpoint existed (else restart from initial).
    from_checkpoint: bool
    #: Iteration the next epoch resumed from.
    resume_iteration: int
    #: Start of the re-executed (lost) work window.
    lost_started_at: float
    #: Work discarded by the rollback: fence − max(durable, useful start).
    lost_seconds: float
    #: Fence → the resumed epoch's restore-barrier release (or the next
    #: fence, if a fault struck the restore): admission wait + restore.
    restore_seconds: float
    #: Simulated time the restore window closed.
    resumed_at: float


@dataclass
class FaultTimeline:
    """Full fault/recovery history of one run, with the time split the
    paper's failure experiment reports (Section 9.6): useful work, lost
    work, and restore time, summing to the total runtime."""

    faults: List[FaultRecord] = field(default_factory=list)
    rounds: List[RecoveryRound] = field(default_factory=list)
    total_runtime: float = 0.0

    @property
    def lost_seconds(self) -> float:
        return sum(r.lost_seconds for r in self.rounds)

    @property
    def restore_seconds(self) -> float:
        return sum(r.restore_seconds for r in self.rounds)

    @property
    def useful_seconds(self) -> float:
        return self.total_runtime - self.lost_seconds - self.restore_seconds

    def summary(self) -> str:
        lines = [
            f"faults injected: {len(self.faults)}, "
            f"recoveries: {len(self.rounds)}",
            f"useful {self.useful_seconds:.6f}s + "
            f"lost {self.lost_seconds:.6f}s + "
            f"restore {self.restore_seconds:.6f}s "
            f"= {self.total_runtime:.6f}s total",
        ]
        for record in self.faults:
            lines.append(
                f"  fault {record.spec.describe()} fired at "
                f"t={record.fired_at:.6f}"
            )
        for r in self.rounds:
            source = (
                f"checkpoint(iter={r.resume_iteration})"
                if r.from_checkpoint
                else "initial state"
            )
            lines.append(
                f"  epoch {r.epoch}: detected t={r.detected_at:.6f} "
                f"suspects={list(r.suspects)} lost={r.lost_seconds:.6f}s "
                f"restore={r.restore_seconds:.6f}s from {source}"
            )
        return "\n".join(lines)


class ClusterSupervisor:
    """Owns fault state, failure detection hooks, and epoch recovery."""

    def __init__(
        self,
        sim: Simulator,
        config,
        network,
        stores,
        workload,
        registry,
        detector,
        build_epoch,
        job_track=NULL,
    ):
        self.sim = sim
        self.config = config
        self.network = network
        self.stores = stores
        self.workload = workload
        self.registry = registry
        self.detector = detector
        #: ``ChaosCluster._execute``'s epoch builder, the one a fault-free
        #: run calls exactly once: ``(epoch, resume_iteration, restore,
        #: since) -> (job, engines, processes)``, where ``restore`` is
        #: the resumed epoch's first step (None: pre-process) and
        #: ``since`` starts its engines' ledgers (the fence before it).
        self.build_epoch = build_epoch
        self.job_track = job_track
        detector.on_suspect = self._on_suspect

        machines = config.machines
        self.monitor = machines
        self._up = [True] * machines
        self._partitioned = [False] * machines
        self._operator_reboot = [False] * machines

        self.epoch = 0
        self.timeline = FaultTimeline()
        self.job = None
        self.engines: List = []
        self.processes: List = []
        self.failure: Optional[Event] = None
        self._senders: List[HeartbeatSender] = []
        self._iteration_events: Dict[int, Event] = {}
        self._admission_waiter: Optional[Event] = None
        #: Start of the live epoch's useful work: the run's start, or a
        #: resumed epoch's restore-barrier release.
        self._useful_from = 0.0
        #: The round whose restore window is still open.
        self._restoring: Optional[RecoveryRound] = None
        self._initial_iteration = 0

    # ------------------------------------------------------------------
    # Top-level execution
    # ------------------------------------------------------------------

    def execute(self, plan, start_iteration: int = 0) -> None:
        """Fire ``plan`` into the job and run it to completion across
        however many epochs it takes."""
        for spec in plan.specs:
            self.sim.process(self._inject(spec), name=f"fault.{spec.describe()}")
        self._initial_iteration = start_iteration
        # The first epoch pre-processes; a resumed one restores.
        resume, restore, since = start_iteration, None, self.sim.now
        while not self._run_epoch(resume, restore, since):
            resume, generation = self._recover()
            restore = functools.partial(self._restore, generation)
            since = self._restoring.detected_at
        self.timeline.total_runtime = self.sim.now

    def _run_epoch(self, resume_iteration: int, restore, since: float) -> bool:
        sim = self.sim
        epoch = self.epoch
        self.failure = sim.event(f"failure.e{epoch}")
        job, engines, processes = self.build_epoch(
            epoch, resume_iteration, restore, since
        )
        self.job, self.engines, self.processes = job, engines, processes
        job.on_iteration = self._note_iteration
        self.detector.arm()
        self._senders = [
            HeartbeatSender(
                sim,
                self.network,
                m,
                self.monitor,
                HEARTBEAT_INTERVAL,
                epoch=epoch,
            )
            for m in range(self.config.machines)
        ]
        for sender in self._senders:
            sender.start()

        done = sim.all_of([p.finished for p in processes])
        sim.run_until(sim.any_of([done, self.failure]))
        if (
            not self.failure.triggered
            and job.done
            and self._all_available()
        ):
            return True
        if not self.failure.triggered:
            # Either the engines died without finishing the job (a kill
            # fires their `finished` events too) or the job "completed"
            # while a machine was out — possibly on incomplete data.
            # Wait for the failure detector and roll back.
            sim.run_until(self.failure)
        return False

    # ------------------------------------------------------------------
    # Failure signals
    # ------------------------------------------------------------------

    def _on_suspect(self, machine: int) -> None:
        self.job_track.instant(
            "fault.suspect", cat="lost", args={"machine": machine}
        )
        if self.failure is not None and not self.failure.triggered:
            self.failure.trigger(machine)

    def _note_iteration(self, iteration: int) -> None:
        if self._restoring is not None:
            # The resumed epoch's first scatter begins: every engine has
            # passed the restore barrier.
            self._end_restore()
        event = self._iteration_events.get(iteration)
        if event is not None and not event.triggered:
            event.trigger(iteration)

    def iteration_reached(self, iteration: int) -> Event:
        """Event firing the first time logical ``iteration`` starts.

        Fires at most once across epochs: a rollback that re-executes
        the iteration does not re-trigger it (so an ``iter=`` fault
        injects exactly once).
        """
        event = self._iteration_events.get(iteration)
        if event is None:
            event = self.sim.event(f"iteration.{iteration}")
            self._iteration_events[iteration] = event
        return event

    # ------------------------------------------------------------------
    # Fault injection: one process per spec, armed from the fault table
    # ------------------------------------------------------------------

    def _inject(self, spec: FaultSpec):
        key, value = spec.trigger
        yield key.wait(self, value)
        self.timeline.faults.append(FaultRecord(spec=spec, fired_at=self.sim.now))
        self.job_track.instant(
            "fault.inject", cat="lost", args={"spec": spec.describe()}
        )
        FAULT_TABLE[spec.kind].arm(self, spec, self.config)

    def crash_machine(self, machine: int, operator_reboot: bool = False) -> None:
        """Fail-stop ``machine``: processes die, storage contents survive."""
        if not self._up[machine]:
            return
        self._up[machine] = False
        self._operator_reboot[machine] = operator_reboot
        self._update_reachability(machine)
        self._fence_machine(machine, cause="machine-crash")
        if self.stores[machine].running:
            self.stores[machine].crash()
        if operator_reboot and self._admission_waiter is not None:
            # Struck while recovery waits for every machine: the
            # recovery's operator reboots this one too.
            self.sim.schedule(RESTART_SECONDS, self.revive_machine, machine)

    def revive_machine(self, machine: int) -> None:
        """Reboot a crashed machine: storage engine returns, compute
        stays idle until the next epoch admits it."""
        if self._up[machine]:
            return
        self._up[machine] = True
        self._operator_reboot[machine] = False
        self._update_reachability(machine)
        self.stores[machine].restart()
        self.job_track.instant("fault.reboot", args={"machine": machine})
        self._check_admission()

    def partition_machine(self, machine: int) -> None:
        """Cut ``machine`` off the network; its processes keep running."""
        if self._partitioned[machine]:
            return
        self._partitioned[machine] = True
        self._update_reachability(machine)

    def heal_machine(self, machine: int) -> None:
        if not self._partitioned[machine]:
            return
        self._partitioned[machine] = False
        self._update_reachability(machine)
        if not self.stores[machine].running:
            # The machine self-fenced during the outage (recovery struck
            # while it was partitioned away); bring its storage back.
            self.stores[machine].restart()
        self.job_track.instant("fault.heal", args={"machine": machine})
        self._check_admission()

    # ------------------------------------------------------------------
    # Availability bookkeeping
    # ------------------------------------------------------------------

    def _update_reachability(self, machine: int) -> None:
        self.network.set_reachable(machine, self._available(machine))

    def _available(self, machine: int) -> bool:
        return self._up[machine] and not self._partitioned[machine]

    def _all_available(self) -> bool:
        return all(
            self._available(m) and not self.detector.is_suspected(m)
            for m in range(self.config.machines)
        )

    def _check_admission(self) -> None:
        waiter = self._admission_waiter
        if waiter is None or waiter.triggered:
            return
        if all(self._available(m) for m in range(self.config.machines)):
            waiter.trigger()

    def _fence_machine(self, machine: int, cause: str) -> None:
        if machine < len(self.engines):  # one process per engine
            engine, process = self.engines[machine], self.processes[machine]
            engine.fence()
            engine.endpoint.kill()
            process.kill(cause)
            # The killed epoch's spans end where its process does, at the
            # fence instant (the kill lands zero-delay after it): a span
            # cut there is a real interval, closed and tagged, not a leak.
            process.finished.subscribe(
                lambda _event: engine.track.end_all({"fenced": True})
            )
        if machine < len(self._senders):
            self._senders[machine].stop()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self):
        """Roll the cluster back and wait until every machine is
        re-admitted; returns the iteration to resume from and the
        checkpoint generation the resumed epoch restores (None: the
        initial values, already reset)."""
        sim = self.sim
        machines = self.config.machines
        fence_time = sim.now
        if self._restoring is not None:
            # A fault struck the restore itself: its window ends here,
            # and the failed epoch did no useful work to lose.
            self._end_restore()
        failed_epoch = self.epoch
        self.detector.disarm()
        suspects = tuple(self.detector.suspected_machines())
        self.epoch += 1

        # Cluster-wide fence: every engine stops, dead or not, and its
        # time since its last completed wait was rolled back.
        for machine in range(machines):
            self._fence_machine(machine, cause="rollback")
        for engine in self.engines:
            engine.charge("rollback")
        # A machine that is out of contact self-fences its services when
        # its own view of the cluster lease lapses; model that by
        # stopping its storage engine (restarted at heal/reboot).
        for machine in range(machines):
            if not self._available(machine) and self.stores[machine].running:
                self.stores[machine].crash()
        # Surviving stores move to the new epoch: in-flight writes from
        # the dead epoch must not land after the rollback's cleanup.
        for machine in range(machines):
            if self.stores[machine].running:
                self.stores[machine].advance_epoch(self.epoch)
        # The dead epoch's compute endpoints stop receiving now.
        for engine in self.engines:
            engine.endpoint.close()
        # Plainly crashed machines are rebooted by the recovery
        # procedure itself (the "operator"), RESTART_SECONDS in.
        for machine in range(machines):
            if not self._up[machine] and self._operator_reboot[machine]:
                sim.schedule(RESTART_SECONDS, self.revive_machine, machine)

        generation = self.registry.latest_durable()
        if generation is None:
            resume = self._initial_iteration
            durable_at = self._useful_from
        else:
            resume = generation.resume_iteration
            durable_at = generation.durable_at
        lost_start = max(durable_at, self._useful_from)
        lost = max(0.0, fence_time - lost_start)
        self.job_track.complete(
            "lost", lost_start, lost, cat="lost",
            args={"epoch": failed_epoch, "suspects": list(suspects)},
        )
        self._restoring = RecoveryRound(
            epoch=failed_epoch,
            suspects=suspects,
            detected_at=fence_time,
            from_checkpoint=generation is not None,
            resume_iteration=resume,
            lost_started_at=lost_start,
            lost_seconds=lost,
            restore_seconds=0.0,
            resumed_at=fence_time,
        )
        self.timeline.rounds.append(self._restoring)

        waiter = sim.event(f"admission.e{self.epoch}")
        self._admission_waiter = waiter
        # Checked once the fence has landed (its kills take effect at
        # the zero-delay instant after it), so the next epoch never
        # starts beside a live process of this one.
        sim.schedule(0.0, self._check_admission)
        sim.run_until(waiter)
        self._admission_waiter = None
        for machine in range(machines):
            # Stores revived during the wait still carry the old epoch.
            if self.stores[machine].data_epoch != self.epoch:
                self.stores[machine].advance_epoch(self.epoch)
            # Re-admitted: a later fault on it is suspected, and rolled
            # back, afresh.
            self.detector.clear(machine)
        if generation is None:
            # Nothing durable yet: recovery restarts the computation
            # from its initial vertex values (pre-processing output
            # survives on disk).
            self.workload.reset_to_initial()
        return resume, generation

    def _end_restore(self) -> None:
        """Close the open round's restore window now."""
        round_ = self._restoring
        self._restoring = None
        now = self.sim.now
        round_.resumed_at = now
        round_.restore_seconds = now - round_.detected_at
        self._useful_from = now
        self.job_track.complete(
            "restore", round_.detected_at, round_.restore_seconds,
            cat="restore",
            args={"epoch": round_.epoch,
                  "resume_iteration": round_.resume_iteration},
        )

    # ------------------------------------------------------------------
    # The restore step: a resumed epoch's engines read the checkpoint
    # back through the real storage/network model
    # ------------------------------------------------------------------

    def _restore(self, generation, engine):
        """A resumed epoch's first step on ``engine``, run in its main
        process in place of pre-processing: read its partitions back
        from ``generation`` (None: the initial values, already reset),
        then purge its machine's stale update chunk sets (local
        requests, zero network cost; between them the engines cover the
        cluster before the epoch-start barrier releases).

        Reads and repair writes go through the engine's endpoint and
        reply table and wait with no timeout: a fault that strikes
        mid-restore is suspected and rolled back like any other.
        """
        vertex_sets = engine.vertex_sets
        if generation is not None:
            base = SLOT_BASES[generation.slot]
            for partition in engine.my_partitions:
                snapshot = None
                for index in range(len(vertex_sets.chunk_sizes[partition])):
                    chunk = yield from self._read_chunk(
                        engine, partition, index, base + index, generation
                    )
                    if index == 0:
                        snapshot = chunk.payload
                if snapshot is None:
                    raise SimulationError(
                        f"checkpoint for partition {partition} carries no "
                        f"snapshot payload"
                    )
                self.workload.restore_partition(partition, snapshot)
        machine = engine.machine
        for partition in range(len(vertex_sets.chunk_sizes)):
            engine.network.send(
                machine, machine, STORAGE_SERVICE, "delete",
                store_engine.CONTROL_BYTES, (partition, ChunkKind.UPDATES),
                engine.epoch,
            )

    def _call(self, engine, target, kind, size, body, partition, attempt=0):
        """One storage RPC through ``engine``'s reply table; the reply.
        Attempt ``n > 0`` first backs off on the integrity policy,
        seeded by its own request id, so a flapping replica is polled,
        not hammered."""
        sim, config, machine = engine.sim, self.config, engine.machine
        reply = Event(sim, name=f"restore.{kind}.p{partition}")
        request_id = engine.expect(reply.trigger)
        if attempt > 0:
            start = sim.now
            yield sim.timeout(jittered_delay(
                config.integrity_policy(), attempt - 1,
                config.seed, machine, request_id,
            ))
            self.job_track.complete(
                "restore.retry_wait", start, sim.now - start,
                cat="retry_wait",
                args={"machine": machine, "partition": partition},
            )
        engine.network.send(
            machine, target, STORAGE_SERVICE, kind, size,
            (request_id, machine, COMPUTE_SERVICE, *body),
            engine.epoch, None, attempt,
        )
        message = yield reply
        return message

    def _read_chunk(self, engine, partition, raw_index, store_index, generation):
        """Read one checkpoint chunk, cycling over its healthy replicas.

        With integrity checks on, every reply is checksum-verified and
        freshness-checked against ``generation``: a replica serving
        rotted bytes is quarantined (and re-replicated from a verified
        copy before the read returns), while a validly-sealed but *old*
        version — the stale-read fault — is simply re-read.  When every
        replica of a chunk is quarantined the job is cleanly abandoned
        with a structured diagnosis rather than retrying forever.
        """
        registry = self.registry
        integrity = self.config.integrity_checks
        targets = engine.vertex_sets.placement.machines_for(
            partition, raw_index, self.config.vertex_replicas
        )
        missing = attempt = 0
        while True:
            healthy = [
                t for t in targets
                if not registry.is_quarantined(t, partition, store_index)
            ]
            if not healthy:
                raise UnrecoverableJobError(JobDiagnosis(
                    cause="checkpoint-unreadable",
                    detail=(
                        f"every replica of checkpoint chunk (partition "
                        f"{partition}, index {store_index}) failed "
                        f"integrity verification"
                    ),
                    at_time=engine.sim.now,
                    epoch=engine.epoch,
                    quarantined=[(t, partition, store_index) for t in targets],
                ))
            target = healthy[attempt % len(healthy)]
            reply = yield from self._call(
                engine, target, "vread", store_engine.CONTROL_BYTES,
                (partition, store_index), partition, attempt,
            )
            attempt += 1
            chunk = reply.payload[1]
            if chunk is None:
                missing += 1
                if missing >= len(targets):
                    raise SimulationError(
                        f"no replica holds durable checkpoint chunk "
                        f"(partition {partition}, index {store_index})"
                    )
            elif integrity and not verify_chunk(chunk):
                # Rotted replica (or in-flight corruption — either way
                # the copy that would land is untrustworthy): quarantine
                # the source and try another; re-replication rewrites it
                # from a verified copy once one is found.
                if registry.quarantine_replica(target, partition, store_index):
                    self.job_track.instant(
                        "integrity.ckpt_quarantine", cat="integrity",
                        args={"machine": target, "partition": partition,
                              "index": store_index},
                    )
            elif integrity and chunk.tag and chunk.tag[1:] != tuple(generation.key):
                # Validly-sealed but *old* data (the stale-read fault):
                # the checksum passes, the freshness key does not.
                self.job_track.instant(
                    "integrity.stale_restore", cat="integrity",
                    args={"machine": target, "partition": partition},
                )
            else:
                if integrity:
                    yield from self._reprotect(
                        engine, chunk, partition, store_index, targets
                    )
                return chunk

    def _reprotect(self, engine, chunk, partition, store_index, targets):
        """Re-replicate a verified chunk over its quarantined replicas.
        Best-effort by design: a nacked repair write leaves the replica
        quarantined for the next recovery to retry."""
        registry = self.registry
        for target in targets:
            if not registry.is_quarantined(target, partition, store_index):
                continue
            start = engine.sim.now
            ack = yield from self._call(
                engine, target, "vwrite", chunk.size, (chunk,), partition
            )
            if ack.payload[1] is None:
                registry.clear_quarantine(target, partition, store_index)
                self.job_track.complete(
                    "integrity.rereplicate", start, engine.sim.now - start,
                    cat="integrity",
                    args={"machine": target, "partition": partition,
                          "index": store_index},
                )
