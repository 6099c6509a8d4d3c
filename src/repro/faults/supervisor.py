"""The fault-recovery supervisor: epochs, rollback, and live restore.

Recovery in Chaos is cluster-wide (Section 6.6): when any machine
fails, *all* machines roll back to the most recent durable checkpoint
and re-execute from its iteration.  The :class:`ClusterSupervisor`
implements that protocol around the discrete-event simulation:

1. **Run an epoch.**  Build the job coordinator, barrier, and
   computation engines for the current recovery epoch and let them run.
   Heartbeat senders feed the failure detector; the barrier's stall
   watchdog escalates unreachable stragglers.
2. **Detect.**  The first suspicion fires the epoch's failure event and
   ends the epoch.  Every engine is fenced (its processes killed, its
   callbacks disabled), every surviving storage engine's data epoch is
   advanced so in-flight traffic from the dead epoch is dropped, and
   unavailable machines' storage engines self-fence.
3. **Re-admit.**  Recovery waits until every machine is up and
   reachable again — Chaos assumes transient failures; plainly crashed
   machines are rebooted ``restart_seconds`` into recovery, and
   ``crash-restart`` / ``partition`` faults revive on their own
   schedule.  Their secondary storage survives the outage.
4. **Restore.**  Per-machine restore workers read the durable
   checkpoint generation's vertex chunks back from their (replicated)
   storage locations *through the real transport and device models*,
   overwrite the vertex state, and purge every stale update chunk set.
   If no checkpoint ever became durable, the job restarts from its
   initial vertex values (only the pre-processing output survives).
5. **Resume.**  A fresh epoch starts at the checkpoint's resume
   iteration, skipping pre-processing (edge chunks survived on disk).

Every phase is accounted on the cluster job track: retroactive ``lost``
spans (work after the restored checkpoint that must be re-executed) and
``restore`` spans (fence to resume), which the trace report reconciles
against the timeline totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.detector import HeartbeatSender
from repro.faults.diagnosis import JobDiagnosis, UnrecoverableJobError
from repro.faults.plan import FAULT_TABLE, FaultSpec
from repro.net.retry import jittered_delay
from repro.net.transport import RESTORE_SERVICE, STORAGE_SERVICE
from repro.obs.log import NULL
from repro.sim.engine import Event, SimulationError, Simulator
from repro.store import engine as store_engine
from repro.store.chunk import ChunkKind
from repro.store.integrity import verify_chunk
from repro.store.placement import HashedVertexPlacement


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
    #: Work discarded by the rollback: fence − max(durable, epoch start).
    lost_seconds: float
    #: Fence → resume: admission wait + checkpoint reads + cleanup.
    restore_seconds: float
    #: Simulated time the next epoch started.
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
        #: run calls exactly once: ``(epoch, resume_iteration, preprocess)
        #: -> (job, barrier, engines, processes)``.
        self.build_epoch = build_epoch
        self.job_track = job_track
        detector.on_suspect = self._on_suspect

        machines = config.machines
        self.monitor = machines
        self.vertex_placement = HashedVertexPlacement(machines)
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
        self._epoch_started_at = 0.0
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
        resume = start_iteration
        preprocess = True
        while True:
            if self._run_epoch(resume, preprocess):
                break
            resume = self._recover()
            preprocess = False
        self.timeline.total_runtime = self.sim.now

    def _run_epoch(self, resume_iteration: int, preprocess: bool) -> bool:
        sim = self.sim
        epoch = self.epoch
        self.failure = sim.event(f"failure.e{epoch}")
        self._epoch_started_at = sim.now
        job, barrier, engines, processes = self.build_epoch(
            epoch, resume_iteration, preprocess
        )
        self.job, self.engines, self.processes = job, engines, processes
        job.on_iteration = self._note_iteration
        barrier.set_stall_watch(
            2.0 * self.config.effective_lease_timeout(), self._on_barrier_stall
        )
        self.detector.arm()
        self._senders = [
            HeartbeatSender(
                sim,
                self.network,
                m,
                self.monitor,
                self.config.heartbeat_interval,
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

    def _on_barrier_stall(self, missing, generation) -> None:
        # Only escalate stragglers that are actually gone; a slow but
        # healthy machine must never be declared dead by the barrier.
        for machine in missing:
            if machine is None:
                continue
            if not self._available(machine):
                self.detector.suspect(machine)

    def _note_iteration(self, iteration: int) -> None:
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
        self.network.set_reachable(
            machine, self._up[machine] and not self._partitioned[machine]
        )

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

    def _recover(self) -> int:
        """Roll the cluster back; returns the iteration to resume from."""
        sim = self.sim
        machines = self.config.machines
        fence_time = sim.now
        failed_epoch = self.epoch
        self.detector.disarm()
        suspects = tuple(self.detector.suspected_machines())
        self.epoch += 1

        # Cluster-wide fence: every engine stops, dead or not.
        for machine in range(machines):
            self._fence_machine(machine, cause="rollback")
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
        # procedure itself (the "operator"), restart_seconds in.
        for machine in range(machines):
            if not self._up[machine] and self._operator_reboot[machine]:
                sim.schedule(
                    self.config.restart_seconds, self.revive_machine, machine
                )

        generation = self.registry.latest_durable()
        if generation is None:
            resume = self._initial_iteration
        else:
            resume = generation.resume_iteration

        # Admission + restore, repeated if another fault disturbs the
        # restore itself (its reads and deletes must complete cleanly).
        while True:
            waiter = sim.event(f"admission.e{self.epoch}")
            self._admission_waiter = waiter
            self._check_admission()
            sim.run_until(waiter)
            self._admission_waiter = None
            # Stores revived during the wait still carry the old epoch.
            for machine in range(machines):
                if self.stores[machine].data_epoch != self.epoch:
                    self.stores[machine].advance_epoch(self.epoch)
            # Every machine is re-admitted: clear suspicion, so a later
            # fault on it is suspected, and rolled back, afresh.
            for machine in range(machines):
                self.detector.clear(machine)
            if generation is None:
                # Nothing durable yet: recovery restarts the computation
                # from its initial vertex values (pre-processing output
                # survives on disk).
                self.workload.reset_to_initial()
            self._run_restore(generation)
            if all(self._available(m) for m in range(machines)):
                break

        resume_time = sim.now
        durable_at = (
            generation.durable_at
            if generation is not None
            else self._epoch_started_at
        )
        lost_start = max(durable_at, self._epoch_started_at)
        lost = max(0.0, fence_time - lost_start)
        restore = resume_time - fence_time
        self.job_track.complete(
            "lost",
            lost_start,
            lost,
            cat="lost",
            args={"epoch": failed_epoch, "suspects": list(suspects)},
        )
        self.job_track.complete(
            "restore",
            fence_time,
            restore,
            cat="restore",
            args={"epoch": failed_epoch, "resume_iteration": resume},
        )
        self.timeline.rounds.append(
            RecoveryRound(
                epoch=failed_epoch,
                suspects=suspects,
                detected_at=fence_time,
                from_checkpoint=generation is not None,
                resume_iteration=resume,
                lost_started_at=lost_start,
                lost_seconds=lost,
                restore_seconds=restore,
                resumed_at=resume_time,
            )
        )
        return resume

    # ------------------------------------------------------------------
    # Restore protocol (real reads through the storage/network model)
    # ------------------------------------------------------------------

    def _vertex_chunk_count(self, partition: int) -> int:
        total = self.workload.vertex_set_bytes(partition)
        chunk_bytes = self.config.chunk_bytes
        return -(-total // chunk_bytes) if total > 0 else 0

    def _run_restore(self, generation) -> None:
        sim = self.sim
        machines = self.config.machines
        clients = [_RestoreClient(self, m) for m in range(machines)]
        processes = [
            sim.process(
                client.run(generation), name=f"restore{m}.e{self.epoch}"
            )
            for m, client in enumerate(clients)
        ]
        sim.run_until(sim.all_of([p.finished for p in processes]))
        for client in clients:
            client.close()


class _RestoreClient:
    """One machine's restore worker: reads its partitions' checkpoint
    chunks back from the storage engines and purges stale update sets,
    all through the simulated transport."""

    def __init__(self, supervisor: ClusterSupervisor, machine: int):
        self.sup = supervisor
        self.sim = supervisor.sim
        self.machine = machine
        self.epoch = supervisor.epoch
        self._pending: Dict[int, object] = {}
        self._next_id = machine
        self._endpoint = supervisor.network.register(
            machine, RESTORE_SERVICE,
            {"vread_reply": self._on_reply, "write_ack": self._on_reply},
            self._admit,
            name=f"restore{machine}.rx.e{self.epoch}",
        )

    def close(self) -> None:
        self._endpoint.kill()

    def _admit(self, message) -> bool:
        return message.epoch == self.epoch

    def _on_reply(self, message) -> None:
        callback = self._pending.pop(message.payload[0], None)
        if callback is not None:
            callback(message)

    def _timed_call(self, target, kind, size, body, partition, attempt=0):
        """One storage RPC raced against a one-lease timeout: the reply,
        or None if the timeout won (its pending entry is dropped).

        Attempt ``n > 0`` first backs off on the integrity policy, seeded
        by its own request id, so a flapping replica is polled, not
        hammered.
        """
        sup = self.sup
        config = sup.config
        self._next_id += config.machines
        request_id = self._next_id
        if attempt > 0:
            wait_start = self.sim.now
            yield self.sim.timeout(
                jittered_delay(
                    config.integrity_policy(), attempt - 1,
                    config.seed, self.machine, request_id,
                )
            )
            sup.job_track.complete(
                "restore.retry_wait",
                wait_start,
                self.sim.now - wait_start,
                cat="retry_wait",
                args={"machine": self.machine, "partition": partition},
            )
        reply = Event(self.sim, name=f"restore.{kind}.p{partition}")
        self._pending[request_id] = reply.trigger
        sup.network.send(
            src=self.machine,
            dst=target,
            service=STORAGE_SERVICE,
            kind=kind,
            size=size,
            payload=(request_id, self.machine, RESTORE_SERVICE, *body),
            epoch=self.epoch,
            attempt=attempt,
        )
        winner, value = yield self.sim.any_of(
            [reply, self.sim.timeout(config.effective_lease_timeout())]
        )
        if winner is not reply:
            self._pending.pop(request_id, None)
            return None
        return value

    def run(self, generation):
        sup = self.sup
        config = sup.config
        layout = sup.workload.layout
        if generation is not None:
            base = sup.registry.base_for_slot(generation.slot)
            mine = [
                p
                for p in range(layout.num_partitions)
                if p % config.machines == self.machine
            ]
            for partition in mine:
                count = sup._vertex_chunk_count(partition)
                snapshot = None
                for index in range(count):
                    chunk = yield from self._read_chunk(
                        partition, index, base + index, generation
                    )
                    if index == 0:
                        snapshot = chunk.payload
                if snapshot is None:
                    raise SimulationError(
                        f"checkpoint for partition {partition} carries no "
                        f"snapshot payload"
                    )
                sup.workload.restore_partition(partition, snapshot)
        # Purge stale update chunk sets: each machine clears its own
        # store for every partition (local requests, zero network cost),
        # which between the workers covers the whole cluster.
        for partition in range(layout.num_partitions):
            sup.network.send(
                src=self.machine,
                dst=self.machine,
                service=STORAGE_SERVICE,
                kind="delete",
                size=store_engine.CONTROL_BYTES,
                payload=(partition, ChunkKind.UPDATES),
                epoch=self.epoch,
            )
        # One zero-delay hop so the local deletes are dispatched before
        # the worker reports done (local sends deliver via the scheduler).
        yield self.sim.timeout(0.0)

    def _read_chunk(
        self, partition: int, raw_index: int, store_index: int, generation=None
    ):
        """Read one checkpoint chunk, cycling over its healthy replicas.

        Post-admission every machine is reachable, but a fresh fault may
        strike mid-restore; a timed-out read backs off (deterministic
        seeded jitter) and tries the next replica.  With integrity
        checks on, every reply is checksum-verified and snapshot chunks
        are freshness-checked against the generation being restored: a
        replica serving rotted bytes is quarantined (and re-replicated
        from a verified copy before the read returns), while a
        validly-sealed but *old* version — the stale-read fault — is
        simply re-read.  When every replica of a chunk is quarantined
        the job is cleanly abandoned with a structured diagnosis rather
        than retrying forever.
        """
        sup = self.sup
        config = sup.config
        registry = sup.registry
        integrity = config.integrity_checks
        targets = sup.vertex_placement.machines_for(
            partition, raw_index, config.vertex_replicas
        )
        missing = 0
        attempt = 0
        while True:
            healthy = [
                t
                for t in targets
                if not registry.is_quarantined(t, partition, store_index)
            ]
            if not healthy:
                raise UnrecoverableJobError(
                    JobDiagnosis(
                        cause="checkpoint-unreadable",
                        detail=(
                            f"every replica of checkpoint chunk (partition "
                            f"{partition}, index {store_index}) failed "
                            f"integrity verification"
                        ),
                        at_time=self.sim.now,
                        epoch=self.epoch,
                        quarantined=[
                            (t, partition, store_index) for t in targets
                        ],
                    )
                )
            target = healthy[attempt % len(healthy)]
            reply = yield from self._timed_call(
                target, "vread", store_engine.CONTROL_BYTES,
                (partition, store_index), partition, attempt,
            )
            attempt += 1
            if reply is None:
                continue
            _rid, chunk = reply.payload
            if chunk is None:
                missing += 1
                if missing >= len(targets):
                    raise SimulationError(
                        f"no replica holds durable checkpoint chunk "
                        f"(partition {partition}, index {store_index})"
                    )
                continue
            if integrity and not verify_chunk(chunk):
                # Rotted replica (or in-flight corruption — either way
                # the copy that would land is untrustworthy): quarantine
                # the source and try another; re-replication rewrites it
                # from a verified copy once one is found.
                if registry.quarantine_replica(target, partition, store_index):
                    sup.job_track.instant(
                        "integrity.ckpt_quarantine",
                        cat="integrity",
                        args={
                            "machine": target,
                            "partition": partition,
                            "index": store_index,
                        },
                    )
                continue
            if (
                integrity
                and generation is not None
                and chunk.tag
                and chunk.tag[1:] != tuple(generation.key)
            ):
                # Validly-sealed but *old* data (the stale-read fault):
                # the checksum passes, the freshness key does not.
                sup.job_track.instant(
                    "integrity.stale_restore",
                    cat="integrity",
                    args={"machine": target, "partition": partition},
                )
                continue
            if integrity:
                yield from self._reprotect(
                    chunk, partition, store_index, targets
                )
            return chunk

    def _reprotect(self, chunk, partition, store_index, targets):
        """Re-replicate a verified chunk over its quarantined replicas.

        Best-effort by design: a repair write that times out or is
        nacked leaves the replica quarantined for the next recovery to
        retry — the restore itself never blocks on repair.
        """
        sup = self.sup
        registry = sup.registry
        for target in targets:
            if not registry.is_quarantined(target, partition, store_index):
                continue
            start = self.sim.now
            ack = yield from self._timed_call(
                target, "vwrite", chunk.size, (chunk,), partition
            )
            if ack is None or ack.payload[1] is not None:
                continue
            registry.clear_quarantine(target, partition, store_index)
            sup.job_track.complete(
                "integrity.rereplicate",
                start,
                self.sim.now - start,
                cat="integrity",
                args={
                    "machine": target,
                    "partition": partition,
                    "index": store_index,
                },
            )
