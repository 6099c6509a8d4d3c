"""The per-machine storage engine.

Each machine runs one storage engine (Section 4) that owns the local
storage device and serves chunk requests from any computation engine in
the cluster.  Requests are served through a FIFO device queue — *"a
storage engine always serves a request for a chunk in its entirety
before serving the next request"* (Section 6.2) — and the engine keeps
the read-once-per-iteration bookkeeping that lets multiple computation
engines share a streaming partition without synchronizing (Section 5.3).

Protocol (service name ``"storage"``):

``read(partition, kind)``
    Reply with any unprocessed chunk, or an exhausted marker.
``write(chunk)``
    Append an edge/update chunk; reply with an ack.
``vread(partition, index)`` / ``vwrite(chunk)``
    Read / overwrite one vertex chunk at its hashed location.
``delete(partition, kind)``
    Drop a chunk set (end-of-gather update deletion); no reply.

Replies carry the original ``request_id`` so computation engines can
keep many requests outstanding (the batch window of Section 6.5).

Fault tolerance (Section 6.6): the engine's dispatcher can be
:meth:`crashed <StorageEngine.crash>` and :meth:`restarted
<StorageEngine.restart>` by the fault injector.  The chunk backend
survives a crash — Chaos assumes transient machine failures, so a
rebooted machine comes back with its secondary storage intact.  Every
request carries the sender's recovery ``epoch``; requests from before
the engine's :attr:`data_epoch` are dropped, which fences writes still
in flight when a cluster-wide rollback begins (they must not land after
the rollback's deletes).  Replies echo the request's epoch so stale
replies are identifiable at the requester too.
"""

from __future__ import annotations

from typing import Dict

from repro.net.transport import (
    MESSAGE_KINDS,
    STORAGE_SERVICE,
    Network,
    undeclared_kind,
)
from repro.obs.log import NULL
from repro.sim.engine import Event, Simulator
from repro.sim.resources import FifoServer
from repro.store.chunk import Chunk, ChunkKind
from repro.store.device import DeviceSpec, StorageFaultState
from repro.store.integrity import corrupt_chunk, seal_chunk, verify_chunk

#: Wire size of a request / control reply (headers and ids only).
CONTROL_BYTES = 32
#: Wire size of an "exhausted" reply.
EXHAUSTED_BYTES = 16


class StorageEngine:
    """One machine's storage engine: device + chunk store + dispatcher."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machine: int,
        device: DeviceSpec,
        backend,
        tracer=None,
        host=None,
        integrity: bool = True,
        job_track=NULL,
    ):
        self.sim = sim
        self.network = network
        self.machine = machine
        self.device_spec = device
        self.device = FifoServer(
            sim,
            bandwidth=device.bandwidth,
            latency=device.latency,
            name=f"m{machine}.{device.name}",
        )
        self.backend = backend
        # Host profiler: real wall/CPU cost of chunk (de)serialization
        # against the backend (``run --host-profile``); None when off.
        self._host = host if host is not None and host.enabled else None
        self._trace_on = tracer is not None and tracer.enabled
        if self._trace_on:
            from repro.obs.tracer import TID_DEVICE

            self.device.enable_trace(
                tracer.thread(machine, TID_DEVICE, device.track_label()),
                label="io",
            )
        self._mailbox = network.register(machine, STORAGE_SERVICE)
        self.reads_served = 0
        self.writes_served = 0
        self.exhausted_replies = 0
        #: Chunk reads served, by data-structure kind (protocol audits).
        self.reads_by_kind = {kind: 0 for kind in ChunkKind}
        #: Recovery epoch this engine's data plane belongs to; requests
        #: stamped with an older epoch are fenced (dropped).
        self.data_epoch = 0
        #: Requests dropped by the epoch fence.
        self.stale_dropped = 0
        self.restarts = 0
        # Integrity hardening (config.integrity_checks) and the armed
        # byzantine device faults it defends against.
        self._integrity = integrity
        self._job_track = job_track
        self.faults = StorageFaultState()
        #: Corrupt reads caught by verify-on-read and served again from
        #: the intact backend copy (device charged for both attempts).
        self.integrity_rereads = 0
        #: Torn writes caught by write-verify and rewritten before ack.
        self.torn_writes_repaired = 0
        #: Corrupt incoming write payloads bounced back for resend.
        self.write_rejects = 0
        #: Vertex reads that served a stale (overwritten) version.
        self.stale_reads_served = 0
        #: Reads re-served from the retransmit buffer (read_retry).
        self.retransmits = 0
        # Chunks served by request_id, kept so a receiver that got a
        # corrupted frame can re-request without a second cursor
        # consume (fetch_any is read-once).  Cleared each phase.
        self._retransmit: Dict[int, Chunk] = {}
        self._process = sim.process(self._dispatch(), name=f"storage{machine}")

    # -- fault injection ---------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the dispatcher is serving requests."""
        return self._process.alive

    def crash(self) -> None:
        """Fail-stop: kill the dispatcher; the chunk backend survives.

        Device requests already queued keep their (analytic) completion
        times; their reply sends originate from an unreachable machine
        and are dropped by the transport, so nothing escapes.
        """
        self._process.kill("storage-crash")

    def restart(self) -> None:
        """Reboot the engine: fresh dispatcher over the surviving backend."""
        if self._process.alive:
            return
        self._mailbox.reset()  # requests queued while down are lost
        self.restarts += 1
        self._process = self.sim.process(
            self._dispatch(), name=f"storage{self.machine}.r{self.restarts}"
        )

    def advance_epoch(self, epoch: int) -> None:
        """Fence all traffic from recovery epochs before ``epoch``."""
        self.data_epoch = epoch

    def degrade_device(self, factor: float) -> None:
        """Slow-device fault: divide the device bandwidth by ``factor``."""
        self.device.degrade(factor)

    def restore_device(self) -> None:
        self.device.restore_bandwidth()

    def inject_read_corruption(self, count: int) -> None:
        """Bit-flip fault: perturb the next ``count`` chunks served by
        the read path (backend copy stays intact)."""
        self.faults.read_corrupt += count

    def inject_write_corruption(self, count: int) -> None:
        """Torn-write fault: persist a damaged copy of the next
        ``count`` written chunks."""
        self.faults.write_corrupt += count

    def inject_stale_reads(self, count: int) -> None:
        """Stale-read fault: the next ``count`` vertex reads (that have
        an overwritten predecessor) return the previous version."""
        self.faults.stale_reads += count

    def corrupt_stored_checkpoint(self, count: int, base_floor: int) -> int:
        """Corrupt up to ``count`` durable checkpoint replica chunks.

        Walks stored vertex chunks at or above ``base_floor`` (the
        checkpoint slot bases) and replaces payload-carrying ones with
        corrupted copies — persistent replica rot, detected (and
        quarantined) by the restore client's verify-on-read.  Returns
        how many chunks were actually damaged.
        """
        damaged = 0
        for partition, index in self.backend.vertex_chunk_keys():
            if damaged >= count or index < base_floor:
                continue
            chunk = self.backend.get_vertex_chunk(partition, index)
            if chunk is None or chunk.payload is None:
                continue
            self.backend.replace_vertex_chunk(corrupt_chunk(chunk))
            damaged += 1
        return damaged

    # -- local (same-machine, zero-cost) queries -------------------------

    def remaining_bytes(self, partition: int, kind: ChunkKind) -> int:
        """Unprocessed bytes for (partition, kind) on this engine.

        The master multiplies this by the machine count to estimate the
        cluster-wide remaining data D for the steal criterion
        (Section 5.4) — a *local* decision, no messages needed.
        """
        return self.backend.remaining_bytes(partition, kind)

    def reset_cursors(self, kind: ChunkKind) -> None:
        """Start of a phase: all chunks of ``kind`` become unprocessed."""
        self._retransmit.clear()
        self.backend.reset_cursors(kind)

    def local_input_read(self, size: int) -> Event:
        """Charge a local read of ``size`` raw input bytes on the device.

        The pre-processing pass reads each machine's share of the
        unsorted input from its own device; compute code must come
        through this method rather than touching the device directly
        (the mediation the CHX003 lint rule enforces).
        """
        label = "pread" if self._trace_on else None
        return self.device.service(size, label=label)

    # -- telemetry accessors (samplers must not reach into the device) --

    def device_busy_time(self) -> float:
        """Cumulative busy seconds of the storage device."""
        return self.device.meter.busy_time

    def device_queue_delay(self) -> float:
        """Current queueing delay (seconds) at the storage device."""
        return self.device.queue_delay()

    def device_bytes_served(self) -> int:
        """Cumulative bytes served by the storage device."""
        return self.device.meter.bytes_served

    # -- direct (pre-processing time) stores ------------------------------

    def preload_chunk(self, chunk: Chunk) -> None:
        """Store a chunk without simulated I/O (pre-processing loads)."""
        if chunk.payload is not None and chunk.crc is None:
            # Seal real payloads at ingest so every later hop can verify.
            seal_chunk(chunk)
        if chunk.kind is ChunkKind.VERTICES:
            self.backend.put_vertex_chunk(chunk)
        else:
            self.backend.append_chunk(chunk)

    # -- message dispatch --------------------------------------------------

    def _dispatch(self):
        # The handler table: one ``_handle_<kind>`` per declared kind,
        # resolved once per dispatcher (re)start instead of per message.
        handlers = {
            kind: getattr(self, f"_handle_{kind}")
            for kind in MESSAGE_KINDS[STORAGE_SERVICE]
        }
        while True:
            message = yield self._mailbox.get()
            handler = handlers.get(message.kind)
            if handler is None:
                raise undeclared_kind(self.machine, message)
            if message.epoch < self.data_epoch:
                # A straggler from before a rollback (e.g. an update
                # write that was in flight when the cluster fenced):
                # executing it would corrupt the restored state.
                self.stale_dropped += 1
                continue
            handler(message)

    def _reply(
        self,
        requester: int,
        reply_service: str,
        kind: str,
        size: int,
        payload,
        epoch: int = 0,
        parent=None,
    ) -> None:
        # ``parent`` is the request's causal context: replies fire from
        # device-completion callbacks long after dispatch moved on, so
        # the causal edge must be threaded explicitly.
        self.network.send(
            src=self.machine,
            dst=requester,
            service=reply_service,
            kind=kind,
            size=size,
            payload=payload,
            epoch=epoch,
            parent=parent,
        )

    def _handle_read(self, message) -> None:
        request_id, _requester, _reply_service, partition, kind = message.payload
        host = self._host
        if host is not None:
            token = host.start()
        chunk = self.backend.fetch_any(partition, kind)
        if host is not None:
            host.stop(token, self.machine, "deserialize")
        if chunk is None:
            self.exhausted_replies += 1
        else:
            self._retransmit[request_id] = chunk
        label = f"read:{kind.value}:p{partition}" if self._trace_on else None
        self._serve_read(message, "read_reply", chunk, kind, label)

    def _handle_vread(self, message) -> None:
        _request_id, _requester, _reply_service, partition, index = message.payload
        host = self._host
        if host is not None:
            token = host.start()
        chunk = self.backend.get_vertex_chunk(partition, index)
        if host is not None:
            host.stop(token, self.machine, "deserialize")
        if chunk is not None and self.faults.stale_reads > 0:
            stale = self.backend.get_previous_vertex_chunk(partition, index)
            if stale is not None:
                # Lost in-place update: the read returns the version the
                # last write overwrote.  Its CRC is valid — staleness is
                # caught by freshness metadata (the checkpoint generation
                # key), not by checksums.
                self.faults.stale_reads -= 1
                self.stale_reads_served += 1
                chunk = stale
        label = f"vread:p{partition}" if self._trace_on else None
        self._serve_read(message, "vread_reply", chunk, ChunkKind.VERTICES, label)

    def _serve_read(self, message, reply_kind: str, chunk, kind, label) -> None:
        """Reply to a read: an exhausted marker, or the chunk once the
        device has served it (after the read-path fault/verify step)."""
        request_id, requester, reply_service = message.payload[:3]
        if chunk is None:
            self._reply(
                requester,
                reply_service,
                reply_kind,
                EXHAUSTED_BYTES,
                (request_id, None),
                epoch=message.epoch,
                parent=message.ctx,
            )
            return
        self.reads_served += 1
        self.reads_by_kind[kind] += 1
        served = self._read_path(chunk, label)
        self.device.service(
            served.size,
            label=label,
            then=self._reply,
            args=(requester, reply_service, reply_kind, served.size,
                  (request_id, served), message.epoch, message.ctx),
        )

    def _read_path(self, chunk: Chunk, label) -> Chunk:
        """Apply armed read-path corruption and verify-on-read.

        Returns the chunk to serve: a corrupted copy when a bit-flip
        fault fires and hardening is off, or — with hardening on — the
        intact backend copy after charging the device for the wasted
        first read (the verify-on-read re-read).
        """
        served = chunk
        if self.faults.read_corrupt > 0 and chunk.payload is not None:
            self.faults.read_corrupt -= 1
            served = corrupt_chunk(chunk)
        if served is not chunk and self._integrity and not verify_chunk(served):
            # Verify-on-read caught the media damage: charge the wasted
            # read, then serve the intact copy.
            self.integrity_rereads += 1
            self._charge_repair(chunk, label, "integrity.reread")
            served = chunk
        return served

    def _charge_repair(self, chunk: Chunk, label, span: str) -> None:
        """Charge the device for a wasted read / repeated write of
        ``chunk`` and record it as an integrity span on the job track."""
        self.device.service(
            chunk.size, label=label,
            then=self._repair_done, args=(span, self.sim.now),
        )

    def _repair_done(self, span: str, start: float) -> None:
        if self._trace_on:
            self._job_track.complete(
                span,
                start,
                self.sim.now - start,
                cat="integrity",
                args={"machine": self.machine},
            )

    def _handle_read_retry(self, message) -> None:
        """Re-serve a previously served chunk (integrity re-request).

        ``fetch_any`` is read-once, so a receiver that got a corrupted
        frame cannot simply re-issue the read; it re-requests by the
        original ``request_id`` against the retransmit buffer instead.
        """
        request_id, requester, reply_service = message.payload
        chunk = self._retransmit.get(request_id)
        if chunk is None:
            # Evicted (phase ended): nothing to re-serve.  Reply
            # exhausted so the reader makes progress instead of hanging.
            self._reply(
                requester,
                reply_service,
                "read_reply",
                EXHAUSTED_BYTES,
                (request_id, None),
                epoch=message.epoch,
                parent=message.ctx,
            )
            return
        self.retransmits += 1
        self.device.service(
            chunk.size,
            label=f"reread:p{chunk.partition}" if self._trace_on else None,
            then=self._reply,
            args=(requester, reply_service, "read_reply", chunk.size,
                  (request_id, chunk), message.epoch, message.ctx),
        )

    def _reject_write(self, message) -> bool:
        """Bounce a write whose payload arrived damaged (nack → resend).

        Returns True when the write was rejected.  The nack rides the
        normal ``write_ack`` reply with a marker payload; the sender
        still holds the original chunk and resends after backoff.
        """
        request_id, requester, reply_service, chunk = message.payload
        if not self._integrity or verify_chunk(chunk):
            return False
        self.write_rejects += 1
        if self._trace_on:
            self._job_track.instant(
                "integrity.write_reject",
                cat="integrity",
                args={"machine": self.machine, "partition": chunk.partition},
            )
        self._reply(
            requester,
            reply_service,
            "write_ack",
            CONTROL_BYTES,
            (request_id, "corrupt"),
            epoch=message.epoch,
            parent=message.ctx,
        )
        return True

    def _written_copy(self, chunk: Chunk, label) -> Chunk:
        """Apply the torn-write fault, and write-verify when hardened.

        Returns the chunk that actually lands in the backend; with
        hardening on, a caught tear charges the device for the rewrite
        and the intact chunk lands.
        """
        stored = chunk
        if self.faults.write_corrupt > 0 and chunk.payload is not None:
            self.faults.write_corrupt -= 1
            stored = corrupt_chunk(chunk)
        if stored is not chunk and self._integrity and not verify_chunk(stored):
            self.torn_writes_repaired += 1
            self._charge_repair(chunk, label, "integrity.rewrite")
            stored = chunk
        return stored

    def _handle_write(self, message) -> None:
        if self._reject_write(message):
            return
        chunk = message.payload[3]
        label = (
            f"write:{chunk.kind.value}:p{chunk.partition}"
            if self._trace_on
            else None
        )
        self._serve_write(message, self.backend.append_chunk, label)

    def _handle_vwrite(self, message) -> None:
        if self._reject_write(message):
            return
        chunk = message.payload[3]
        label = f"vwrite:p{chunk.partition}" if self._trace_on else None
        self._serve_write(message, self.backend.put_vertex_chunk, label)

    def _serve_write(self, message, store, label) -> None:
        """Charge the device, then ``store`` the (possibly torn, possibly
        repaired) chunk and ack — unless a rollback fenced it meanwhile."""
        chunk = message.payload[3]
        self.writes_served += 1
        self.device.service(
            chunk.size, label=label,
            then=self._complete_write, args=(message, store, label),
        )

    def _complete_write(self, message, store, label) -> None:
        request_id, requester, reply_service, chunk = message.payload
        if message.epoch < self.data_epoch:
            # The cluster rolled back while this write sat in the
            # device queue: discard instead of resurrecting it.
            self.stale_dropped += 1
            return
        stored = self._written_copy(chunk, label)
        host = self._host
        if host is not None:
            token = host.start()
        store(stored)
        if host is not None:
            host.stop(token, self.machine, "serialize", records=chunk.records)
        self._reply(
            requester,
            reply_service,
            "write_ack",
            CONTROL_BYTES,
            (request_id, None),
            epoch=message.epoch,
            parent=message.ctx,
        )

    def _handle_pwrite(self, message) -> None:
        """Pre-processing write: charge device time without storing.

        The runtime pre-places the partitioned edge chunks (same RNG
        stream); this message accounts for the write I/O of the one-pass
        pre-processing split.
        """
        request_id, requester, reply_service, size = message.payload
        self.writes_served += 1
        self.device.service(
            size,
            label="pwrite" if self._trace_on else None,
            then=self._reply,
            args=(requester, reply_service, "write_ack", CONTROL_BYTES,
                  (request_id, None), message.epoch, message.ctx),
        )

    def _handle_delete(self, message) -> None:
        partition, kind = message.payload
        # Deletion is a metadata operation: no device time.
        self.backend.delete(partition, kind)

    # -- statistics ---------------------------------------------------------

    def bytes_served(self) -> int:
        return self.device.meter.bytes_served

    def utilization(self, elapsed: float) -> float:
        return self.device.meter.utilization(elapsed)
