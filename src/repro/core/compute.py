"""The Chaos computation engine (Sections 4, 5 and Figure 4).

One computation engine runs per machine.  Each iteration has a scatter
phase and a gather phase (apply is folded into gather), separated by
global barriers.  Within a phase an engine:

1. works on its assigned partitions, one at a time — loading the vertex
   set, then streaming edge (scatter) or update (gather) chunks from the
   storage sub-system with a window of ``φk`` outstanding requests to
   randomly chosen storage engines (Section 6.5);
2. when done, makes one pass over every foreign partition, proposing to
   help its master; accepted proposals are executed exactly like owned
   partitions (Section 5.3).  A single pass suffices: the acceptance
   criterion (Eq. 2) is monotone — once a proposal would be rejected it
   would be rejected at any later time, because the remaining data D
   only shrinks and the worker count H only grows;
3. for gather, stealers ship their partial accumulators to the master,
   which merges them and runs Apply before writing the vertex set back
   (Figure 3 / Figure 4 lines 40-45);
4. optionally checkpoints its partitions' vertex sets before each
   barrier (Section 6.6).

Every wait of the engine's main process ends in one :meth:`charge
<ComputationEngine.charge>` of the simulated time since the previous
charge to one :class:`~repro.core.metrics.Breakdown` category, so the
categories tile the engine's life and sum to the job's runtime.  Traced,
each such wait is one leaf span of the engine track that opens where
the previous charge ended and carries its category as ``cat``, so the
track replays the ledger.

The engine is written against the :class:`repro.core.workload.Workload`
interface, so the identical scheduling logic drives both functional
(real data) and capacity-model (phantom) runs.

Fault tolerance (Section 6.6, driven by :mod:`repro.faults`): under
fault injection the engine runs inside a recovery *epoch*.  Every
message it sends is stamped with the epoch, request-id streams are
epoch-scoped (so a stale reply can never match a live request), and a
``fenced`` flag stops callback-driven work after the engine is killed
(interrupting a process does not cancel its already-subscribed CPU
completions).  The engine never consults the failure detector: a
request is lost only when its peer is crashed or partitioned, the
detector then suspects that peer, and the supervisor's cluster-wide
rollback ends the epoch and every wait in it.  So reads and steal
proposals wait for their replies with no timeout, exactly as in a
fault-free run; only a corrupt frame is re-sent, on the seeded
integrity backoff.  An epoch resumed after a rollback starts with the
supervisor's ``restore`` step in place of pre-processing: it reads the
checkpoint back through this engine's endpoint and reply table, so the
same fence ends its waits.  Checkpoints additionally carry
per-partition state snapshots and report durability to a cluster-wide
:class:`repro.faults.registry.CheckpointRegistry`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.metrics import Breakdown
from repro.core.stealing import estimate_cluster_remaining, should_accept_steal
from repro.core.workload import UpdateBatch, Workload
from repro.net.retry import jittered_delay
from repro.net.transport import COMPUTE_SERVICE, STORAGE_SERVICE, Network
from repro.obs.log import NULL
from repro.obs.tracer import TID_CPU, TID_ENGINE
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.resources import CoreBank
from repro.sim.sync import Barrier, Latch, WaitGroup
from repro.store import engine as store_engine
from repro.store.chunk import Chunk, ChunkKind
from repro.store.integrity import seal_chunk, verify_chunk
from repro.store.placement import (
    SLOT_BASES,
    CentralizedDirectory,
    RandomPlacement,
    VertexSets,
)

#: Wire size of a steal proposal / response (control messages).
STEAL_MESSAGE_BYTES = 48

#: Sends of one request whose frames all arrive corrupt before the
#: engine gives up (persistent corruption fails loudly, not by livelock).
INTEGRITY_ATTEMPTS = 8


@dataclass
class PartitionPhaseState:
    """Master-side bookkeeping for one owned partition in one phase."""

    partition: int
    kind: ChunkKind
    workers: int = 0
    stealers: List[int] = field(default_factory=list)
    closed: bool = False
    #: Accumulators shipped home by stealers, in arrival order.
    accums: List[object] = field(default_factory=list)
    accum_group: Optional[WaitGroup] = None


class _StreamState:
    """Progress of streaming one (partition, kind) on one engine."""

    __slots__ = (
        "partition",
        "kind",
        "in_flight",
        "exhausted",
        "processing",
        "done",
        "chunks_received",
        "records",
        "accum",
    )

    def __init__(self, sim: Simulator, partition: int, kind: ChunkKind, accum):
        self.partition = partition
        self.kind = kind
        self.in_flight = 0
        self.exhausted: Set[int] = set()
        self.processing = WaitGroup(sim, name=f"proc.p{partition}")
        self.done = Event(sim, name=f"stream.p{partition}.{kind.value}")
        self.chunks_received = 0
        self.records = 0
        self.accum = accum


class ComputationEngine:
    """One machine's computation engine."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machine: int,
        config: ClusterConfig,
        workload: Workload,
        job: "JobCoordinator",
        local_store: "store_engine.StorageEngine",
        barrier: Barrier,
        vertex_sets: VertexSets,
        directory: Optional[CentralizedDirectory] = None,
        input_bytes_share: int = 0,
        tracer=None,
        epoch: int = 0,
        restore: Optional[Callable] = None,
        registry=None,
        since: float = 0.0,
    ):
        self.sim = sim
        self.network = network
        self.machine = machine
        self.config = config
        self.workload = workload
        self.job = job
        self.local_store = local_store
        self.barrier = barrier
        self.vertex_sets = vertex_sets
        self.directory = directory
        self.input_bytes_share = input_bytes_share
        #: Recovery epoch this engine belongs to (0 in fault-free runs);
        #: stamps every outgoing message and scopes the request ids.
        self.epoch = epoch
        #: The epoch's first step after a rollback, ``restore(engine)``
        #: (a generator run in place of pre-processing: the edge chunks
        #: are already placed); None on the first epoch.
        self._restore = restore
        #: Cluster checkpoint registry (fault injection only): tracks
        #: which checkpoint generation is durable and owns slot rotation.
        self._registry = registry
        if tracer is not None and tracer.enabled:
            self.track = tracer.thread(machine, TID_ENGINE, "engine")
        else:
            self.track = NULL
        self._trace_on = self.track.enabled

        self.layout = workload.layout
        self.cores = CoreBank(sim, config.cores, name=f"m{machine}.cores")
        if self._trace_on:
            # Chunk-processing CPU occupancy on its own track: the
            # attribution analyzer unions these spans into the machine's
            # CPU-busy timeline.
            self.cores.enable_trace(
                tracer.thread(machine, TID_CPU, "cpu"), label="exec"
            )
        #: The ledger (:meth:`charge`): simulated time by category, and
        #: when the previous charge ended — the start of the job, or for
        #: a resumed epoch the recovery fence that ended the last one.
        self.metrics = Breakdown()
        self.since = since
        self.window = config.effective_request_window()
        # Stable arithmetic seeds: Python string hashing is salted per
        # process, which would break cross-process reproducibility.
        self._rng = random.Random(config.seed * 1_000_003 + machine * 7919 + 1)
        self.placement = RandomPlacement(
            config.machines, seed=config.seed * 1_000_003 + machine * 7919 + 2
        )

        # Partitions this engine masters (each of the k×m partitions
        # has one, Section 5).
        self.my_partitions = [
            p for p, master in enumerate(vertex_sets.masters)
            if master == machine
        ]

        #: The reply table: request id -> ``(then, args)``; the reply
        #: runs ``then(reply, *args)`` (see :meth:`expect`).
        self._pending: Dict[int, Tuple[Callable, tuple]] = {}
        # Distinct id streams per machine AND per epoch: a reply from a
        # rolled-back epoch can never collide with a live request.
        self._next_request = machine + epoch * config.machines * (1 << 40)
        #: Set once the fault supervisor kills this engine: stops all
        #: callback-driven work (CPU completions already subscribed
        #: before the kill still fire and must become no-ops).
        self.fenced = False
        # Causal DAG recorder shared with the transport (null when
        # tracing is off): dispatching a message moves this machine's
        # chain head so replies/sends inherit the right parent.
        self._causal = network.causal
        # Integrity hardening: verify every chunk-carrying reply; on a
        # corrupt frame, re-request with deterministic seeded backoff.
        self._integrity = config.integrity_checks
        #: Corrupt read / vread replies re-requested.
        self.integrity_retries = 0
        self._integrity_policy = config.integrity_policy()
        self._master_state: Dict[int, PartitionPhaseState] = {}
        self._write_group = WaitGroup(sim, name=f"m{machine}.writes")
        # Scatter output buffers, keyed by destination partition.
        self._buffers: Dict[int, List[UpdateBatch]] = {}
        self._buffer_bytes: Dict[int, int] = {}
        self.checkpoints_written = 0
        self.updates_written_records = 0
        self.updates_written_bytes = 0
        self.finished: Optional[Event] = None

        replies = ("read_reply", "vread_reply", "write_ack",
                   "directory_reply", "steal_reply")
        self.endpoint = network.register(
            machine, COMPUTE_SERVICE,
            {"steal_request": self._handle_steal_request,
             "accum": self._handle_accum,
             **dict.fromkeys(replies, self._on_reply)},
            self._admit,
            name=f"compute{machine}.dispatch.e{epoch}"
            if epoch else f"compute{machine}.dispatch",
        )

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------

    def charge(self, category: str) -> None:
        """Charge the simulated time since the previous charge to
        ``category``: each wait of the main process as it ends, and,
        from the supervisor, ``rollback`` at the recovery fence that
        ends the epoch.  (No ``Breakdown.add`` call: this runs once per
        wait, and the host budget counts calls.)"""
        now = self.sim.now
        metrics = self.metrics
        setattr(metrics, category, getattr(metrics, category) + (now - self.since))
        self.since = now

    def fence(self) -> None:
        """Stop all future work on this engine (fault injection).

        Killing the engine's processes is not enough: CPU-completion
        and write-ack callbacks subscribed before the kill still fire.
        The flag turns them into no-ops so a zombie engine cannot flush
        stale updates into the rolled-back epoch.
        """
        self.fenced = True

    def expect(self, then: Callable, *args) -> int:
        """A fresh request id whose reply will run ``then(reply, *args)``."""
        self._next_request += self.config.machines
        self._pending[self._next_request] = (then, args)
        return self._next_request

    def _admit(self, message) -> bool:
        """The epoch fence: traffic from another recovery epoch (a
        straggling reply, a zombie peer's steal request) is dropped; an
        admitted message moves this machine's causal chain head."""
        if message.epoch != self.epoch:
            return False
        if message.ctx is not None:
            self._causal.on_dispatch(self.machine, message.ctx)
        return True

    def _on_reply(self, message) -> None:
        """Run the continuation the reply's request id finds."""
        request_id = message.payload[0]
        entry = self._pending.pop(request_id, None)
        if entry is None:
            raise SimulationError(
                f"engine {self.machine}: unexpected reply "
                f"{message.kind} id={request_id}"
            )
        then, args = entry
        then(message, *args)

    def _backoff(
        self, attempt: int, request_id: int, label: str, then: Callable, *args
    ) -> None:
        """Re-send a request whose ``attempt``-th send came back corrupt
        (a write nack, a read or a vertex read): ``then(*args)`` after
        the seeded integrity backoff, or a loud failure once
        :data:`INTEGRITY_ATTEMPTS` sends were all corrupt."""
        if attempt + 1 >= INTEGRITY_ATTEMPTS:
            raise RuntimeError(
                f"engine {self.machine}: {label} {request_id} corrupt on "
                f"all {INTEGRITY_ATTEMPTS} sends (persistent corruption)"
            )
        delay = jittered_delay(
            self._integrity_policy, attempt,
            self.config.seed, self.machine, request_id,
        )
        self.sim.schedule(delay, self._resend, self.sim.now, label, then, args)

    def _resend(self, start, label, then, args) -> None:
        """The backoff is over: trace it as ``<label>.retry_wait`` and
        re-send, unless the engine was fenced meanwhile."""
        if self.fenced:
            return
        elapsed = self.sim.now - start
        if self._trace_on and elapsed > 0:
            self.track.complete(
                f"{label}.retry_wait", start, elapsed, cat="retry_wait",
                args={"machine": self.machine},
            )
        then(*args)

    def _send_write(
        self, chunk: Chunk, target: int, on_success: Callable, attempt: int = 0
    ) -> None:
        """One write RPC; ``on_success()`` runs once it is acked.  A
        storage engine that received the chunk damaged in flight nacks it
        (``write_ack`` marked ``"corrupt"``), and the sender, which still
        holds the chunk, resends it through :meth:`_backoff`."""
        request_id = self.expect(
            self._on_write_ack, chunk, target, on_success, attempt
        )
        self.network.send(
            self.machine, target, STORAGE_SERVICE,
            "vwrite" if chunk.kind is ChunkKind.VERTICES else "write",
            chunk.size, (request_id, self.machine, COMPUTE_SERVICE, chunk),
            self.epoch, None, attempt,
        )

    def _on_write_ack(self, message, chunk, target, on_success, attempt):
        if message.payload[1] != "corrupt":
            on_success()
        elif not self.fenced:
            self._backoff(
                attempt, message.payload[0], "write",
                self._send_write, chunk, target, on_success, attempt + 1,
            )

    def _write_chunk(self, chunk: Chunk, target: int) -> None:
        """Asynchronously write a chunk; tracked by the phase write group."""
        self._write_group.add(1)
        self._send_write(chunk, target, self._write_group.done_one)

    # ------------------------------------------------------------------
    # Work stealing: master side
    # ------------------------------------------------------------------

    def _handle_steal_request(self, message) -> None:
        request_id, proposer, partition, kind = message.payload
        state = self._master_state.get(partition)
        if state is None or state.kind is not kind or state.closed:
            accept = False
        else:
            remaining = estimate_cluster_remaining(
                self.local_store.remaining_bytes(partition, kind),
                self.config.machines,
            )
            decision = should_accept_steal(
                vertex_bytes=self.workload.vertex_set_bytes(partition),
                remaining_bytes=remaining,
                workers=state.workers,
                alpha=self.config.steal_alpha,
            )
            accept = decision.accept
        if accept:
            state.workers += 1
            state.stealers.append(proposer)
            if state.kind is ChunkKind.UPDATES and state.accum_group is not None:
                state.accum_group.add(1)
        self.job.note_steal_decision(accept)
        if self._trace_on:
            self.track.instant(
                "steal.accept" if accept else "steal.reject",
                args={"partition": partition, "proposer": proposer},
            )
        self.network.send(
            src=self.machine,
            dst=proposer,
            service=COMPUTE_SERVICE,
            kind="steal_reply",
            size=STEAL_MESSAGE_BYTES,
            payload=(request_id, accept, partition),
            epoch=self.epoch,
            parent=message.ctx,
        )

    def _handle_accum(self, message) -> None:
        partition, accum = message.payload
        state = self._master_state.get(partition)
        if state is None or state.accum_group is None:
            raise SimulationError(
                f"engine {self.machine}: stray accumulator for partition "
                f"{partition}"
            )
        if accum is not None:
            state.accums.append(accum)
        state.accum_group.done_one()

    # ------------------------------------------------------------------
    # Streaming a partition
    # ------------------------------------------------------------------

    def _record_cpu_seconds(self, kind: ChunkKind, records: int) -> float:
        if kind is ChunkKind.EDGES:
            return records * self.config.cpu_seconds_per_edge
        return records * self.config.cpu_seconds_per_update

    def _start_streaming(
        self, partition: int, kind: ChunkKind, accum, iteration: int
    ) -> _StreamState:
        state = _StreamState(self.sim, partition, kind, accum)
        self._pump(state, iteration)
        return state

    def _pump(self, state: _StreamState, iteration: int) -> None:
        while state.in_flight < self.window:
            target = self.placement.choose_read(state.exhausted)
            if target is None:
                break
            state.in_flight += 1
            if self.directory is None:
                self._send_read(None, state, target, iteration)
            else:
                # The directory round trip is the cost; the engine still
                # keeps its own exhaustion bookkeeping for correctness.
                self.directory.lookup_from(
                    self.machine, COMPUTE_SERVICE,
                    self.expect(self._send_read, state, target, iteration),
                )
        self._maybe_finish_stream(state)

    def _send_read(
        self, _directory_reply, state: _StreamState, target: int, iteration: int
    ) -> None:
        request_id = self.expect(self._on_chunk_reply, state, iteration, 0)
        self.network.send(
            self.machine, target, STORAGE_SERVICE, "read",
            store_engine.CONTROL_BYTES,
            (request_id, self.machine, COMPUTE_SERVICE,
             state.partition, state.kind),
            self.epoch,
        )

    def _send_read_retry(self, request_id: int, target: int, attempt: int) -> None:
        # ``fetch_any`` is read-once at the storage engine, so the retry
        # goes by the original id against the engine's retransmit buffer.
        self.network.send(
            src=self.machine,
            dst=target,
            service=STORAGE_SERVICE,
            kind="read_retry",
            size=store_engine.CONTROL_BYTES,
            payload=(request_id, self.machine, COMPUTE_SERVICE),
            epoch=self.epoch,
            attempt=attempt,
        )

    def _on_chunk_reply(
        self, message, state: _StreamState, iteration: int, attempt: int
    ) -> None:
        request_id, chunk = message.payload
        if (
            chunk is not None
            and self._integrity
            and not verify_chunk(chunk)
        ):
            # Damaged in flight: leave in_flight as is and re-request
            # by the same id, which stays pending through the backoff.
            self.integrity_retries += 1
            self._pending[request_id] = (
                self._on_chunk_reply, (state, iteration, attempt + 1)
            )
            self._backoff(
                attempt, request_id, "read",
                self._send_read_retry, request_id, message.src, attempt + 1,
            )
            return
        state.in_flight -= 1
        if chunk is None:
            state.exhausted.add(message.src)
        else:
            state.chunks_received += 1
            state.records += chunk.records
            state.processing.add(1)
            self.cores.execute(
                self._record_cpu_seconds(state.kind, chunk.records),
                then=self._process_chunk,
                args=(state, chunk, iteration),
            )
        self._pump(state, iteration)

    def _process_chunk(self, state: _StreamState, chunk: Chunk, iteration: int) -> None:
        if self.fenced:
            # Zombie callback: the CPU completion was scheduled before
            # this engine was killed by the fault supervisor.
            return
        if state.kind is ChunkKind.EDGES:
            batches = self.workload.scatter_chunk(
                state.partition, chunk, iteration
            )
            # Buffer the updates by destination partition (a partition
            # enters ``_buffers`` again after each flush, at the end:
            # ``_flush_all_buffers`` goes in that order).
            buffers, buffer_bytes = self._buffers, self._buffer_bytes
            chunk_bytes = self.config.chunk_bytes
            for batch in batches:
                partition = batch.partition
                pending = buffers.get(partition)
                if pending is None:
                    buffers[partition] = [batch]
                else:
                    pending.append(batch)
                total = buffer_bytes.get(partition, 0) + batch.nbytes
                buffer_bytes[partition] = total
                if total >= chunk_bytes:
                    self._flush_buffer(partition)
            self.job.note_scatter(chunk.records, batches)
        else:
            self.workload.gather_chunk(state.partition, state.accum, chunk)
        if self._trace_on:
            # One event-log row (layout: repro.obs.log), built here.
            track = self.track
            track.append(
                ("i", track.pid, track.tid,
                 "chunk.scatter" if state.kind is ChunkKind.EDGES
                 else "chunk.gather",
                 track.offset + self.sim.now, 0.0, None, None,
                 {"partition": state.partition, "records": chunk.records})
            )
        state.processing.done_one()
        self._maybe_finish_stream(state)

    def _maybe_finish_stream(self, state: _StreamState) -> None:
        if state.done.triggered:
            return
        if (
            state.in_flight == 0
            and len(state.exhausted) >= self.config.machines
            and state.processing.outstanding == 0
        ):
            state.done.trigger()

    # ------------------------------------------------------------------
    # Update buffering (scatter output)
    # ------------------------------------------------------------------

    def _flush_buffer(self, partition: int) -> None:
        if self.fenced:
            return
        batches = self._buffers.pop(partition, [])
        nbytes = self._buffer_bytes.pop(partition, 0)
        if not batches:
            return
        count = sum(b.count for b in batches)
        chunk = self._update_chunk(partition, batches, nbytes, count)
        target = self._resolve_write_target()
        self._write_chunk(chunk, target)

    def _update_chunk(self, partition: int, batches, nbytes: int, count: int) -> Chunk:
        """One sealed update chunk out of a partition's buffered batches."""
        if batches[0].payload is not None:
            payload = {
                "dst": np.concatenate([b.payload["dst"] for b in batches]),
                "value": np.concatenate([b.payload["value"] for b in batches]),
            }
        else:
            payload = None
        if self.config.aggregate_updates and payload is not None:
            combined = self.workload.algorithm.combine_updates(
                payload["dst"], payload["value"]
            )
            if combined is not None:
                # Combining costs CPU proportional to the records
                # merged (the trade-off the paper measured,
                # Section 11.1) and decides the chunk's size.  The raw
                # updates still ship: a combined float sum would round
                # over a buffer whose contents depend on the schedule.
                self.cores.execute(count * self.config.cpu_seconds_per_update)
                count = len(combined[0])
                nbytes = count * self.workload.algorithm.update_bytes
        self.updates_written_records += count
        self.updates_written_bytes += nbytes
        chunk = Chunk(
            partition=partition,
            kind=ChunkKind.UPDATES,
            size=nbytes,
            payload=payload,
            records=count,
        )
        if payload is not None:
            seal_chunk(chunk)
        return chunk

    def _resolve_write_target(self) -> int:
        # With the centralized directory the *location decision* is the
        # directory's; we model its serialization cost on reads (which
        # dominate request counts) and writes use the engine-local RNG —
        # the device-time outcome is identical (uniform random target).
        return self.placement.choose_write()

    def _flush_all_buffers(self) -> None:
        for partition in list(self._buffers.keys()):
            self._flush_buffer(partition)

    # ------------------------------------------------------------------
    # Vertex set I/O
    # ------------------------------------------------------------------

    def _load_vertex_set(self, partition: int) -> Event:
        """Read all vertex chunks of a partition; event fires when done."""
        count = len(self.vertex_sets.chunk_sizes[partition])
        loaded = Latch(self.sim, count, name=f"vload.p{partition}")
        placement = self.vertex_sets.placement
        for index in range(count):
            self._send_vread(
                loaded, partition, index,
                placement.machine_for(partition, index),
            )
        return loaded.done

    def _send_vread(
        self, loaded: Latch, partition: int, index: int, target: int,
        attempt: int = 0,
    ) -> None:
        request_id = self.expect(
            self._on_vread_reply, loaded, partition, index, target, attempt
        )
        self.network.send(
            src=self.machine,
            dst=target,
            service=STORAGE_SERVICE,
            kind="vread",
            size=store_engine.CONTROL_BYTES,
            payload=(request_id, self.machine, COMPUTE_SERVICE, partition, index),
            epoch=self.epoch,
            attempt=attempt,
        )

    def _on_vread_reply(self, message, loaded, partition, index, target, attempt):
        request_id, chunk = message.payload
        if chunk is not None and self._integrity and not verify_chunk(chunk):
            # Corrupt in flight; vreads are idempotent (keyed), so
            # simply re-issue.
            self.integrity_retries += 1
            self._backoff(
                attempt, request_id, "vread",
                self._send_vread, loaded, partition, index, target, attempt + 1,
            )
            return
        loaded.count_down()

    def _store_vertex_set(
        self,
        partition: int,
        checkpoint: bool = False,
        base: Optional[int] = None,
        snapshot=None,
        tag=(),
    ) -> Event:
        """Write all vertex chunks back; event fires when all are acked.

        Checkpoint writes land at a distinct index ``base`` (the slot
        rotation of the two-phase protocol); ``snapshot`` (the
        partition's state arrays, as columns) and ``tag`` ride on the
        chunk at ``base + 0`` of every replica, so recovery can read
        real bytes back through the storage model.
        """
        sizes = self.vertex_sets.chunk_sizes[partition]
        replicas = self.config.vertex_replicas
        stored = Latch(
            self.sim, len(sizes) * replicas, name=f"vstore.p{partition}"
        )
        if base is None:
            base = SLOT_BASES[0] if checkpoint else 0
        placement = self.vertex_sets.placement
        for index, size in enumerate(sizes):
            targets = placement.machines_for(partition, index, replicas)
            for target in targets:
                carries = snapshot is not None and index == 0
                chunk = Chunk(
                    partition=partition,
                    kind=ChunkKind.VERTICES,
                    size=size,
                    payload=snapshot if carries else None,
                    index=base + index,
                    tag=tag if carries else (),
                )
                if carries:
                    seal_chunk(chunk)
                self._send_write(chunk, target, stored.count_down)
        return stored.done

    # ------------------------------------------------------------------
    # Partition work (scatter or gather, master or stealer)
    # ------------------------------------------------------------------

    def _work_on_partition(self, partition: int, kind: ChunkKind, master: bool):
        iteration = self.job.iteration
        track = self.track
        if self._trace_on:
            track.begin(
                f"partition{partition}",
                args={
                    "kind": kind.value,
                    "role": "master" if master else "stealer",
                    "iteration": iteration,
                },
            )
        # 1. Load the vertex set (the steal cost V of Eq. 1).
        if self._trace_on:
            track.begin("vertex_load", cat="copy")
        yield self._load_vertex_set(partition)
        self.charge("copy")
        if self._trace_on:
            track.end()

        if master:
            state = self._master_state[partition]
            state.workers += 1

        accum = None
        if kind is ChunkKind.UPDATES:
            accum = self.workload.begin_gather(partition)

        # 2. Stream edge/update chunks through the request window.
        category = "gp_master" if master else "gp_stolen"
        if self._trace_on:
            track.begin("stream", cat=category)
        stream = self._start_streaming(partition, kind, accum, iteration)
        yield stream.done
        self.charge(category)
        if self._trace_on:
            track.end(
                args={"chunks": stream.chunks_received, "records": stream.records}
            )

        # 3. Phase-specific completion.
        if kind is ChunkKind.UPDATES:
            if master:
                yield from self._finish_gather_master(partition, accum, iteration)
            else:
                yield from self._ship_accumulator(partition, accum)
        else:
            if master:
                self._master_state[partition].closed = True
        if self._trace_on:
            track.end()

    def _finish_gather_master(self, partition: int, accum, iteration: int):
        state = self._master_state[partition]
        state.closed = True
        track = self.track
        # Wait for every accepted stealer's accumulator (Figure 4 line 42).
        if self._trace_on:
            track.begin("merge_wait", cat="merge_wait")
        yield state.accum_group.wait()
        self.charge("merge_wait")
        if self._trace_on:
            track.end()

        vertices = self.layout.vertex_count(partition)
        # Merge stealer accumulators, then Apply (folded into gather).
        if self._trace_on:
            track.begin("merge_apply", cat="merge")
        merge_cpu = (
            len(state.accums) * vertices * self.config.cpu_seconds_per_vertex
        )
        apply_cpu = vertices * self.config.cpu_seconds_per_vertex
        if merge_cpu + apply_cpu > 0:
            yield self.cores.execute(merge_cpu + apply_cpu)
        for other in state.accums:
            self.workload.merge_accumulators(partition, accum, other)
        changed = self.workload.apply_partition(partition, accum, iteration)
        self.job.note_apply(changed)
        self.charge("merge")
        if self._trace_on:
            track.end()

        # Write the vertex set back (only the master writes: Section 6.1).
        if self._trace_on:
            track.begin("vertex_store", cat="copy")
        yield self._store_vertex_set(partition)
        self.charge("copy")
        if self._trace_on:
            track.end()

        # Delete the partition's update set everywhere (Figure 4 line 45).
        for target in range(self.config.machines):
            self.network.send(
                src=self.machine,
                dst=target,
                service=STORAGE_SERVICE,
                kind="delete",
                size=store_engine.CONTROL_BYTES,
                payload=(partition, ChunkKind.UPDATES),
                epoch=self.epoch,
            )

    def _ship_accumulator(self, partition: int, accum):
        """Stealer side of gather completion: send the accumulator home."""
        master = self.vertex_sets.masters[partition]
        size = self.workload.accum_bytes(partition)
        if self._trace_on:
            self.track.begin("ship_accum", cat="copy")
        delivered = self.network.send(
            src=self.machine,
            dst=master,
            service=COMPUTE_SERVICE,
            kind="accum",
            size=size,
            payload=(partition, accum),
            epoch=self.epoch,
            track=True,
        )
        yield delivered
        self.charge("copy")
        if self._trace_on:
            self.track.end()

    # ------------------------------------------------------------------
    # Steal pass (one pass per phase; see module docstring)
    # ------------------------------------------------------------------

    def _propose_steals(self, kind: ChunkKind):
        masters = self.vertex_sets.masters
        foreign = [
            p for p, master in enumerate(masters) if master != self.machine
        ]
        self._rng.shuffle(foreign)
        for partition in foreign:
            master = masters[partition]
            reply = Event(self.sim, name=f"steal.p{partition}")
            request_id = self.expect(reply.trigger)
            if self._trace_on:
                self.track.begin(
                    "steal_propose", cat="steal_propose",
                    args={"partition": partition, "master": master},
                )
            self.network.send(
                src=self.machine,
                dst=master,
                service=COMPUTE_SERVICE,
                kind="steal_request",
                size=STEAL_MESSAGE_BYTES,
                payload=(request_id, self.machine, partition, kind),
                epoch=self.epoch,
            )
            message = yield reply
            self.charge("steal_propose")
            if self._trace_on:
                self.track.end()
            _rid, accepted, _partition = message.payload
            if accepted:
                yield from self._work_on_partition(partition, kind, master=False)

    # ------------------------------------------------------------------
    # Phases and the main loop
    # ------------------------------------------------------------------

    def _init_master_states(self, kind: ChunkKind) -> None:
        self._master_state = {}
        for partition in self.my_partitions:
            state = PartitionPhaseState(partition=partition, kind=kind)
            if kind is ChunkKind.UPDATES:
                state.accum_group = WaitGroup(
                    self.sim, name=f"accums.p{partition}"
                )
            self._master_state[partition] = state

    def _run_phase(self, kind: ChunkKind):
        self._init_master_states(kind)
        for partition in self.my_partitions:
            yield from self._work_on_partition(partition, kind, master=True)
        if self.config.stealing_enabled and self.config.machines > 1:
            yield from self._propose_steals(kind)
        if kind is ChunkKind.EDGES:
            self._flush_all_buffers()
        # All in-flight chunk writes must land before the barrier.
        if self._trace_on:
            self.track.begin("flush_wait", cat="gp_master")
        yield self._write_group.wait()
        self.charge("gp_master")
        if self._trace_on:
            self.track.end()
        if self.config.checkpointing:
            yield from self._checkpoint(kind)

    def _checkpoint(self, kind: ChunkKind):
        """Two-phase vertex-set checkpoint (Section 6.6).

        Phase one writes the new copies; phase two (retiring the old
        generation) is a metadata operation once all writes are durable.

        Under fault injection (a :class:`CheckpointRegistry` is
        attached) each checkpoint round gets a shared slot from the
        registry — never the slot holding the current durable
        generation, so a crash mid-checkpoint cannot corrupt the restore
        point — and each partition's writes carry a state snapshot plus
        the iteration to resume from (a scatter-phase checkpoint resumes
        its own iteration; a gather-phase one, having applied, resumes
        the next).  Durability is reported per partition once *all*
        replica writes are acked.
        """
        if self._trace_on:
            self.track.begin("checkpoint", cat="copy")
        registry = self._registry
        events = []
        if registry is None:
            events = [
                self._store_vertex_set(partition, checkpoint=True)
                for partition in self.my_partitions
            ]
        else:
            phase_index = 0 if kind is ChunkKind.EDGES else 1
            resume = (
                self.job.iteration
                if kind is ChunkKind.EDGES
                else self.job.iteration + 1
            )
            key = (self.epoch, self.job.iteration, phase_index)
            base = SLOT_BASES[registry.round_slot(key, resume)]
            for partition in self.my_partitions:
                event = self._store_vertex_set(
                    partition,
                    checkpoint=True,
                    base=base,
                    snapshot=self.workload.snapshot_partition(partition),
                    # Freshness metadata: restore verifies the chunk it
                    # read belongs to the generation it asked for (a
                    # stale-read fault serves an older, validly-sealed
                    # version — checksums alone cannot catch that).
                    tag=(resume, *key),
                )
                event.subscribe(
                    lambda _e, p=partition: registry.note_durable(
                        key, p, self.sim.now,
                        machine=self.machine,
                        parent=self._causal.head(self.machine)
                        if self._trace_on else None,
                    )
                )
                events.append(event)
        for event in events:
            yield event
        self.checkpoints_written += len(events)
        self.charge("copy")
        if self._trace_on:
            self.track.end()

    def _enter_barrier(self, label: str, phase: str):
        if self._trace_on:
            self.track.begin("barrier", cat="barrier")
        causal = self._causal.enabled
        if causal:
            self._causal.barrier_arrive(
                self.machine, self.epoch, label, phase
            )
        yield self.barrier.wait()
        if causal:
            # The first resumer materializes the release event (parented
            # to every arrival); each resumer's chain head becomes it.
            self._causal.barrier_release(
                self.machine, self.epoch, label, phase
            )
        self.charge("barrier")
        if self._trace_on:
            self.track.end()

    def _preprocess(self):
        """Simulate this machine's share of the one-pass pre-processing.

        Each machine reads its share of the unsorted input edge list from
        its local device and writes the partitioned edge chunks to
        uniformly random storage engines (the chunks themselves were
        pre-placed by the runtime; this phase accounts for the I/O).
        """
        share = self.input_bytes_share
        chunk_bytes = self.config.chunk_bytes
        remaining = share
        while remaining > 0:
            size = min(chunk_bytes, remaining)
            remaining -= size
            # Read the input slice locally ...
            yield self.local_store.local_input_read(size)
            # ... and write the equivalent volume of partitioned edge
            # chunks to a random storage engine (charged, not stored:
            # the data plane was pre-placed with the same RNG stream).
            target = self.placement.choose_write()
            ack = Event(self.sim, name="pwrite.ack")
            request_id = self.expect(ack.trigger)
            self.network.send(
                src=self.machine,
                dst=target,
                service=STORAGE_SERVICE,
                kind="pwrite",
                size=size,
                payload=(request_id, self.machine, COMPUTE_SERVICE, size),
                epoch=self.epoch,
            )
            yield ack

    def main(self):
        """The engine's top-level process (Figure 4 main loop)."""
        track = self.track
        # The epoch's first step: the first epoch pre-processes, a
        # resumed one restores the checkpoint.  Either way every engine
        # then meets the others at the epoch-start barrier.
        step = "preprocess" if self._restore is None else "restore"
        if self._trace_on:
            track.begin(step, cat=step)
        if self._restore is None:
            yield from self._preprocess()
        else:
            yield from self._restore(self)
        self.charge(step)
        if self._trace_on:
            track.end()
            track.begin(f"{step}.barrier", cat=step)
        if self._causal.enabled:
            self._causal.barrier_arrive(self.machine, self.epoch, step, step)
        yield self.barrier.wait()
        if self._causal.enabled:
            self._causal.barrier_release(self.machine, self.epoch, step, step)
        self.charge(step)
        if self._trace_on:
            track.end()
        self.job.note_started(self.sim.now)

        while True:
            # -- scatter phase ------------------------------------------
            if self._trace_on:
                track.begin("scatter", args={"iteration": self.job.iteration})
            self.job.begin_scatter()
            yield from self._run_phase(ChunkKind.EDGES)
            yield from self._enter_barrier(str(self.job.iteration), "scatter")
            stop = self.job.decide_after_scatter(self.barrier.generation)
            if self._trace_on:
                track.end()
            if stop:
                break
            # -- gather phase (apply folded in) ---------------------------
            if self._trace_on:
                track.begin("gather", args={"iteration": self.job.iteration})
            yield from self._run_phase(ChunkKind.UPDATES)
            yield from self._enter_barrier(str(self.job.iteration), "gather")
            stop = self.job.decide_after_gather(self.barrier.generation)
            if self._trace_on:
                track.end()
            if stop:
                break
