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

The engine is written against the :class:`repro.core.workload.Workload`
interface, so the identical scheduling logic drives both functional
(real data) and capacity-model (phantom) runs.

Fault tolerance (Section 6.6, driven by :mod:`repro.faults`): under
fault injection the engine runs inside a recovery *epoch*.  Every
message it sends is stamped with the epoch, request-id streams are
epoch-scoped (so a stale reply can never match a live request), a
``fenced`` flag stops callback-driven work after the engine is killed
(interrupting a process does not cancel its already-subscribed CPU
completions), and blocked RPCs — chunk reads and steal proposals — are
re-armed on a timeout and abandoned only once the failure detector has
fenced their target, so a slow-but-alive peer can never cause a false
data loss.  Checkpoints additionally carry per-partition state
snapshots and report durability to a cluster-wide
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
from repro.net.retry import backoff_delays, jittered_delay
from repro.net.transport import (
    COMPUTE_SERVICE,
    MESSAGE_KINDS,
    STORAGE_SERVICE,
    Network,
    undeclared_kind,
)
from repro.obs.log import NULL
from repro.obs.tracer import TID_CPU, TID_ENGINE
from repro.sim.engine import Event, Simulator
from repro.sim.resources import CoreBank
from repro.sim.sync import Barrier, Latch, WaitGroup
from repro.store import engine as store_engine
from repro.store.chunk import Chunk, ChunkKind
from repro.store.integrity import seal_chunk, verify_chunk
from repro.store.placement import (
    CentralizedDirectory,
    HashedVertexPlacement,
    RandomPlacement,
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
        directory: Optional[CentralizedDirectory] = None,
        input_bytes_share: int = 0,
        tracer=None,
        host=None,
        epoch: int = 0,
        preprocess: bool = True,
        registry=None,
        liveness=None,
    ):
        self.sim = sim
        self.network = network
        self.machine = machine
        self.config = config
        self.workload = workload
        self.job = job
        self.local_store = local_store
        self.barrier = barrier
        self.directory = directory
        self.input_bytes_share = input_bytes_share
        #: Recovery epoch this engine belongs to (0 in fault-free runs);
        #: stamps every outgoing message and scopes the request ids.
        self.epoch = epoch
        #: Whether to run the pre-processing pass (skipped on epochs
        #: after a rollback: the edge chunks are already placed).
        self.preprocess = preprocess
        #: Cluster checkpoint registry (fault injection only): tracks
        #: which checkpoint generation is durable and owns slot rotation.
        self._registry = registry
        #: Failure detector view (``is_suspected(machine)``); when set,
        #: blocked reads and steal proposals time out against it.
        self._liveness = liveness
        # Host profiler (``run --host-profile``): real wall/CPU time of
        # the synchronous GAS kernels.  Measured sections never span a
        # yield — the simulator interleaves all machines on one thread,
        # so timing across a yield would charge other machines' host
        # time to this engine's phase.  None when off.
        self._host = host if host is not None and host.enabled else None
        # Observability: every span this engine opens carries the
        # Breakdown category it is accounted under, so a trace's
        # category totals reconcile with Figure 17 to float precision.
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
        self.metrics = Breakdown()
        self.window = config.effective_request_window()
        # Stable arithmetic seeds: Python string hashing is salted per
        # process, which would break cross-process reproducibility.
        self._rng = random.Random(config.seed * 1_000_003 + machine * 7919 + 1)
        self.placement = RandomPlacement(
            config.machines, seed=config.seed * 1_000_003 + machine * 7919 + 2
        )
        self.vertex_placement = HashedVertexPlacement(config.machines)

        # Partitions this engine masters: round-robin assignment so each
        # of the k×m partitions has a master (Section 5).
        self.my_partitions = [
            p
            for p in range(self.layout.num_partitions)
            if p % config.machines == machine
        ]

        self._mailbox = network.register(machine, COMPUTE_SERVICE)
        #: The reply table: request id -> ``(then, args)``; the reply
        #: runs ``then(reply, *args)`` (see :meth:`_expect`).
        self._pending: Dict[int, Tuple[Callable, tuple]] = {}
        # Distinct id streams per machine AND per epoch: a reply from a
        # rolled-back epoch can never collide with a live request.
        self._next_request = machine + epoch * config.machines * (1 << 40)
        #: Request ids deliberately abandoned (dead target); replies to
        #: them are dropped instead of tripping the unknown-reply check.
        self._abandoned: set = set()
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
        self._liveness_policy = config.liveness_policy()
        self._master_state: Dict[int, PartitionPhaseState] = {}
        self._write_group = WaitGroup(sim, name=f"m{machine}.writes")
        # Scatter output buffers, keyed by destination partition.
        self._buffers: Dict[int, List[UpdateBatch]] = {}
        self._buffer_bytes: Dict[int, int] = {}
        self.checkpoints_written = 0
        self.updates_written_records = 0
        self.updates_written_bytes = 0
        self.finished: Optional[Event] = None

        self.dispatch_process = sim.process(
            self._dispatch(), name=f"compute{machine}.dispatch.e{epoch}"
            if epoch else f"compute{machine}.dispatch"
        )

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------

    def fence(self) -> None:
        """Stop all future work on this engine (fault injection).

        Killing the engine's processes is not enough: CPU-completion
        and write-ack callbacks subscribed before the kill still fire.
        The flag turns them into no-ops so a zombie engine cannot flush
        stale updates into the rolled-back epoch.
        """
        self.fenced = True

    def _expect(self, then: Callable, *args) -> int:
        """A fresh request id whose reply will run ``then(reply, *args)``."""
        self._next_request += self.config.machines
        self._pending[self._next_request] = (then, args)
        return self._next_request

    def _dispatch(self):
        accepted = MESSAGE_KINDS[COMPUTE_SERVICE]
        while True:
            message = yield self._mailbox.get()
            kind = message.kind
            if kind not in accepted:
                raise undeclared_kind(self.machine, message)
            if message.epoch != self.epoch:
                # Traffic from another recovery epoch (a straggling
                # reply, or a steal request from a zombie peer).
                continue
            if message.ctx is not None:
                self._causal.on_dispatch(self.machine, message.ctx)
            if kind == "steal_request":
                self._handle_steal_request(message)
            elif kind == "accum":
                self._handle_accum(message)
            else:
                # Every other declared kind is a reply: its request id
                # finds the continuation in the reply table.
                request_id = message.payload[0]
                entry = self._pending.pop(request_id, None)
                if entry is not None:
                    then, args = entry
                    then(message, *args)
                elif request_id in self._abandoned or kind == "steal_reply":
                    # The straggling reply of an abandoned read or of a
                    # steal proposal given up on.
                    self._abandoned.discard(request_id)
                else:
                    raise RuntimeError(
                        f"engine {self.machine}: unexpected reply "
                        f"{kind} id={request_id}"
                    )

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
        self.sim.schedule(
            delay, self._resend, self.sim.now, request_id, label, then, args
        )

    def _resend(self, start, request_id, label, then, args) -> None:
        # Nothing to do if the engine was fenced, or the read abandoned,
        # during the backoff.
        if self.fenced or request_id in self._abandoned:
            return
        self._retry_wait(start, label)
        then(*args)

    def _retry_wait(self, start: float, label: str) -> None:
        """Trace one completed backoff wait as ``<label>.retry_wait``."""
        elapsed = self.sim.now - start
        if self._trace_on and elapsed > 0:
            self.track.complete(
                f"{label}.retry_wait", start, elapsed, cat="retry_wait",
                args={"machine": self.machine},
            )

    def _send_write(
        self, chunk: Chunk, target: int, on_success: Callable, attempt: int = 0
    ) -> None:
        """One write RPC; ``on_success()`` runs once it is acked.  A
        storage engine that received the chunk damaged in flight nacks it
        (``write_ack`` marked ``"corrupt"``), and the sender, which still
        holds the chunk, resends it through :meth:`_backoff`."""
        request_id = self._expect(
            self._on_write_ack, chunk, target, on_success, attempt
        )
        self.network.send(
            src=self.machine,
            dst=target,
            service=STORAGE_SERVICE,
            kind="vwrite" if chunk.kind is ChunkKind.VERTICES else "write",
            size=chunk.size,
            payload=(request_id, self.machine, COMPUTE_SERVICE, chunk),
            epoch=self.epoch,
            attempt=attempt,
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
            raise RuntimeError(
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
                    self._expect(self._send_read, state, target, iteration),
                )
        self._maybe_finish_stream(state)

    def _send_read(
        self, _directory_reply, state: _StreamState, target: int, iteration: int
    ) -> None:
        request_id = self._expect(self._on_chunk_reply, state, iteration, 0)
        self.network.send(
            src=self.machine,
            dst=target,
            service=STORAGE_SERVICE,
            kind="read",
            size=store_engine.CONTROL_BYTES,
            payload=(
                request_id, self.machine, COMPUTE_SERVICE,
                state.partition, state.kind,
            ),
            epoch=self.epoch,
        )
        if self._liveness is not None:
            self._watch_read(request_id, state, target, iteration)

    def _watch_read(
        self, request_id: int, state: _StreamState, target: int,
        iteration: int, delays=None,
    ) -> None:
        """Fault-tolerant read RPC: re-check on the liveness schedule
        until the reply lands or the failure detector fences the target.

        A read to a live-but-slow machine is *never* abandoned (the
        storage engine consumed the chunk cursor, so abandoning it would
        silently lose the chunk); a read to a fenced machine is
        abandoned and the target marked exhausted — the cluster-wide
        rollback that follows re-streams everything anyway.
        """
        if delays is None:  # arming, not a re-check
            delays = backoff_delays(
                self._liveness_policy, self.config.seed, self.machine,
                request_id,
            )
        elif self.fenced or request_id not in self._pending:
            return
        elif (
            self._liveness.is_suspected(target)
            or not self.network.is_reachable(target)
        ):
            del self._pending[request_id]
            self._abandoned.add(request_id)
            state.in_flight -= 1
            state.exhausted.add(target)
            self._pump(state, iteration)
            return
        self.sim.schedule(
            next(delays), self._watch_read,
            request_id, state, target, iteration, delays,
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
            # Damaged in flight: leave in_flight as is and re-request.
            # The id stays pending through the backoff, so the watchdog
            # keeps watching it.
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
        host = self._host
        if state.kind is ChunkKind.EDGES:
            if host is not None:
                token = host.start()
            batches = self.workload.scatter_chunk(
                state.partition, chunk, iteration
            )
            if host is not None:
                host.stop(
                    token, self.machine, "scatter", iteration, chunk.records
                )
            for batch in batches:
                self._buffer_updates(batch)
            self.job.note_scatter(chunk.records, batches)
        else:
            if host is not None:
                token = host.start()
            self.workload.gather_chunk(state.partition, state.accum, chunk)
            if host is not None:
                host.stop(
                    token, self.machine, "gather", iteration, chunk.records
                )
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

    def _buffer_updates(self, batch: UpdateBatch) -> None:
        self._buffers.setdefault(batch.partition, []).append(batch)
        total = self._buffer_bytes.get(batch.partition, 0) + batch.nbytes
        self._buffer_bytes[batch.partition] = total
        if total >= self.config.chunk_bytes:
            self._flush_buffer(batch.partition)

    def _flush_buffer(self, partition: int) -> None:
        if self.fenced:
            return
        batches = self._buffers.pop(partition, [])
        nbytes = self._buffer_bytes.pop(partition, 0)
        if not batches:
            return
        count = sum(b.count for b in batches)
        host = self._host
        if host is not None:
            token = host.start()
        chunk = self._update_chunk(partition, batches, nbytes, count)
        if host is not None:
            host.stop(token, self.machine, "serialize", records=count)
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

    def _vertex_chunk_sizes(self, partition: int) -> List[int]:
        total = self.workload.vertex_set_bytes(partition)
        if total <= 0:
            return []
        sizes = []
        remaining = total
        while remaining > 0:
            size = min(self.config.chunk_bytes, remaining)
            sizes.append(size)
            remaining -= size
        return sizes

    def _load_vertex_set(self, partition: int) -> Event:
        """Read all vertex chunks of a partition; event fires when done."""
        count = len(self._vertex_chunk_sizes(partition))
        loaded = Latch(self.sim, count, name=f"vload.p{partition}")
        for index in range(count):
            self._send_vread(
                loaded, partition, index,
                self.vertex_placement.machine_for(partition, index),
            )
        return loaded.done

    def _send_vread(
        self, loaded: Latch, partition: int, index: int, target: int,
        attempt: int = 0,
    ) -> None:
        request_id = self._expect(
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
        sizes = self._vertex_chunk_sizes(partition)
        replicas = self.config.vertex_replicas
        stored = Latch(
            self.sim, len(sizes) * replicas, name=f"vstore.p{partition}"
        )
        if base is None:
            base = 1_000_000 if checkpoint else 0
        for index, size in enumerate(sizes):
            targets = self.vertex_placement.machines_for(
                partition, index, replicas
            )
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
        t0 = self.sim.now
        if self._trace_on:
            track.begin("vertex_load", cat="copy")
        yield self._load_vertex_set(partition)
        self.metrics.add("copy", self.sim.now - t0)
        if self._trace_on:
            track.end()

        if master:
            state = self._master_state[partition]
            state.workers += 1

        accum = None
        if kind is ChunkKind.UPDATES:
            accum = self.workload.begin_gather(partition)

        # 2. Stream edge/update chunks through the request window.
        t1 = self.sim.now
        category = "gp_master" if master else "gp_stolen"
        if self._trace_on:
            track.begin("stream", cat=category)
        stream = self._start_streaming(partition, kind, accum, iteration)
        yield stream.done
        self.metrics.add(category, self.sim.now - t1)
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
        t0 = self.sim.now
        if self._trace_on:
            track.begin("merge_wait", cat="merge_wait")
        yield state.accum_group.wait()
        self.metrics.add("merge_wait", self.sim.now - t0)
        self.job.note_steal_wait(self.job.current_stats, self.sim.now - t0)
        if self._trace_on:
            track.end()

        vertices = self.layout.vertex_count(partition)
        # Merge stealer accumulators, then Apply (folded into gather).
        t1 = self.sim.now
        if self._trace_on:
            track.begin("merge_apply", cat="merge")
        merge_cpu = (
            len(state.accums) * vertices * self.config.cpu_seconds_per_vertex
        )
        apply_cpu = vertices * self.config.cpu_seconds_per_vertex
        if merge_cpu + apply_cpu > 0:
            yield self.cores.execute(merge_cpu + apply_cpu)
        host = self._host
        if host is not None:
            token = host.start()
        for other in state.accums:
            self.workload.merge_accumulators(partition, accum, other)
        changed = self.workload.apply_partition(partition, accum, iteration)
        if host is not None:
            host.stop(token, self.machine, "apply", iteration)
        self.job.note_apply(changed)
        self.metrics.add("merge", self.sim.now - t1)
        if self._trace_on:
            track.end()

        # Write the vertex set back (only the master writes: Section 6.1).
        t2 = self.sim.now
        if self._trace_on:
            track.begin("vertex_store", cat="copy")
        yield self._store_vertex_set(partition)
        self.metrics.add("copy", self.sim.now - t2)
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
        master = partition % self.config.machines
        size = self.workload.accum_bytes(partition)
        t0 = self.sim.now
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
        )
        yield delivered  # chaos: ignore[CHX021] main process: the rollback fence kills it
        self.metrics.add("copy", self.sim.now - t0)
        if self._trace_on:
            self.track.end()

    # ------------------------------------------------------------------
    # Steal pass (one pass per phase; see module docstring)
    # ------------------------------------------------------------------

    def _steal_pass(self, kind: ChunkKind):
        foreign = [
            p
            for p in range(self.layout.num_partitions)
            if p % self.config.machines != self.machine
        ]
        self._rng.shuffle(foreign)
        for partition in foreign:
            master = partition % self.config.machines
            reply = Event(self.sim, name=f"steal.p{partition}")
            request_id = self._expect(reply.trigger)
            if self._trace_on:
                self.track.instant(
                    "steal.propose",
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
            if self._liveness is None:
                message = yield reply  # chaos: ignore[CHX021] fault-free run: no failure to wait out
            else:
                # Fault-tolerant steal RPC: race the reply against each
                # period of the liveness schedule until it lands or the
                # proposed master is fenced; a dead master counts as a
                # rejection (the rollback will give its partitions a
                # fresh master anyway).  Waits past the first are
                # accounted as retry time in the trace.
                message = None
                delays = backoff_delays(
                    self._liveness_policy, self.config.seed, self.machine,
                    request_id,
                )
                for attempt, period in enumerate(delays):
                    wait_start = self.sim.now
                    winner, value = yield self.sim.any_of(
                        [reply, self.sim.timeout(period)]
                    )
                    if winner is reply:
                        message = value
                        break
                    if attempt > 0:
                        self._retry_wait(wait_start, "steal")
                    if (
                        self._liveness.is_suspected(master)
                        or not self.network.is_reachable(master)
                    ):
                        self._pending.pop(request_id, None)
                        break
                if message is None:
                    continue
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
            # The wrapper span lets the attribution analyzer charge
            # proposal round-trip waits to steal overhead; work on an
            # accepted partition opens its own (inner) spans.
            if self._trace_on:
                self.track.begin("steal_pass")
            yield from self._steal_pass(kind)
            if self._trace_on:
                self.track.end()
        if kind is ChunkKind.EDGES:
            self._flush_all_buffers()
        # All in-flight chunk writes must land before the barrier.
        t0 = self.sim.now
        if self._trace_on:
            self.track.begin("flush_wait", cat="gp_master")
        yield self._write_group.wait()
        self.metrics.add("gp_master", self.sim.now - t0)
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
        t0 = self.sim.now
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
            slot = registry.round_slot(key, resume)
            base = registry.base_for_slot(slot)
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
        self.metrics.add("copy", self.sim.now - t0)
        if self._trace_on:
            self.track.end()

    def _enter_barrier(self, stats=None, label=None, phase=None):
        t0 = self.sim.now
        if self._trace_on:
            self.track.begin("barrier", cat="barrier")
        causal = label is not None and self._causal.enabled
        if causal:
            self._causal.barrier_arrive(
                self.machine, self.epoch, label, phase
            )
        yield self.barrier.wait(party=self.machine)
        if causal:
            # The first resumer materializes the release event (parented
            # to every arrival); each resumer's chain head becomes it.
            self._causal.barrier_release(
                self.machine, self.epoch, label, phase
            )
        self.metrics.add("barrier", self.sim.now - t0)
        if stats is not None:
            self.job.note_barrier_wait(stats, self.sim.now - t0)
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
            request_id = self._expect(ack.trigger)
            self.network.send(
                src=self.machine,
                dst=target,
                service=STORAGE_SERVICE,
                kind="pwrite",
                size=size,
                payload=(request_id, self.machine, COMPUTE_SERVICE, size),
                epoch=self.epoch,
            )
            yield ack  # chaos: ignore[CHX021] main process: the rollback fence kills it

    def main(self):
        """The engine's top-level process (Figure 4 main loop)."""
        track = self.track
        # preprocess is epoch-uniform: build_epoch sets it identically on
        # every engine, so all machines take the same branch together.
        if self.preprocess:  # chaos: ignore[CHX010]
            if self._trace_on:
                track.begin("preprocess")
            yield from self._preprocess()
            if self._trace_on:
                track.end()
            if self._trace_on:
                track.begin("preprocess.barrier")
            if self._causal.enabled:
                self._causal.barrier_arrive(
                    self.machine, self.epoch, "preprocess", "preprocess"
                )
            yield self.barrier.wait(party=self.machine)
            if self._causal.enabled:
                self._causal.barrier_release(
                    self.machine, self.epoch, "preprocess", "preprocess"
                )
            if self._trace_on:
                track.end()
            self.job.note_preprocessing_done(self.sim.now)

        while True:
            # -- scatter phase ------------------------------------------
            # Capture the stats object up front: the first engine through
            # ``decide_after_gather`` advances ``current_stats``, so late
            # reporters must not charge the next iteration.
            stats = self.job.current_stats
            phase_start = self.sim.now
            # Publish the iteration for measurement sites that have no
            # iteration argument (store/net handlers): all engines are
            # barrier-aligned on the same iteration.
            if self._host is not None:
                self._host.iteration = self.job.iteration
            if self._trace_on:
                track.begin("scatter", args={"iteration": self.job.iteration})
            self.job.begin_scatter()
            yield from self._run_phase(ChunkKind.EDGES)
            yield from self._enter_barrier(
                stats, label=str(self.job.iteration), phase="scatter"
            )
            stop = self.job.decide_after_scatter(self.barrier.generation)
            self.job.note_phase_seconds(
                stats, "scatter", self.sim.now - phase_start
            )
            if self._trace_on:
                track.end()
            if stop:
                break
            # -- gather phase (apply folded in) ---------------------------
            phase_start = self.sim.now
            if self._trace_on:
                track.begin("gather", args={"iteration": self.job.iteration})
            yield from self._run_phase(ChunkKind.UPDATES)
            yield from self._enter_barrier(
                stats, label=str(self.job.iteration), phase="gather"
            )
            stop = self.job.decide_after_gather(self.barrier.generation)
            self.job.note_phase_seconds(
                stats, "gather", self.sim.now - phase_start
            )
            if self._trace_on:
                track.end()
            if stop:
                break
