"""Message transport over the modelled rack network.

The transport delivers opaque messages between machine endpoints,
charging serialization time on the sender's NIC egress, the switch
latency, and deserialization time on the receiver's NIC ingress.  Local
(self-addressed) messages are delivered with zero network cost, matching
the co-located computation/storage engine deployment of Section 7.

Endpoints register a :class:`repro.sim.resources.Mailbox` per service
name, so one machine can host several services (computation engine,
storage engine, chunk directory, failure monitor, restore worker).
:data:`MESSAGE_KINDS` declares the protocol's vocabulary: the kinds
each service's receive loop accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Tuple

from repro.net.topology import NetworkConfig, Nic, Switch
from repro.obs.log import NULL
from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.resources import Mailbox

#: The services a machine endpoint can host, one mailbox each.
COMPUTE_SERVICE = "compute"
STORAGE_SERVICE = "storage"
DIRECTORY_SERVICE = "directory"
MEMBERSHIP_SERVICE = "membership"
RESTORE_SERVICE = "restore"

#: The protocol's vocabulary: service -> the message kinds its receive
#: loop accepts (paper section 5: chunk reads and writes between the
#: computation and storage engines; section 5.4: the steal proposal and
#: the accumulator handoff).  A reply (``*_reply``, ``write_ack``)
#: carries its request id first.  Every receive loop rejects any other
#: kind on first delivery (:func:`undeclared_kind`), and ``trace
#: conform`` checks recorded traffic against the union.
MESSAGE_KINDS: Dict[str, FrozenSet[str]] = {
    COMPUTE_SERVICE: frozenset({
        "read_reply", "vread_reply", "write_ack", "directory_reply",
        "steal_reply", "steal_request", "accum",
    }),
    STORAGE_SERVICE: frozenset({
        "read", "vread", "read_retry", "write", "vwrite", "pwrite", "delete",
    }),
    DIRECTORY_SERVICE: frozenset({"directory_lookup"}),
    MEMBERSHIP_SERVICE: frozenset({"heartbeat"}),
    RESTORE_SERVICE: frozenset({"vread_reply", "write_ack"}),
}


def undeclared_kind(machine: int, message: "Message") -> SimulationError:
    """The error a receive loop raises for a kind its service does not
    declare (a typo at the send site, or a message for another service)."""
    return SimulationError(
        f"machine {machine}: service {message.service!r} received "
        f"undeclared message kind {message.kind!r}"
    )


@dataclass(slots=True)
class Message:
    """A message in flight.

    ``payload`` is arbitrary Python data (the functional engine ships
    numpy arrays in it); ``size`` is the modelled wire size in bytes,
    which is what the hardware model charges for.
    """

    src: int
    dst: int
    service: str
    kind: str
    size: int
    payload: Any = None
    send_time: float = 0.0
    #: Recovery epoch the sender belongs to.  Receivers fence stale
    #: traffic (a write straggling in from before a rollback) by
    #: comparing this against their own epoch; 0 for fault-free runs.
    epoch: int = 0
    #: Transport sequence number within the (src, dst, service) stream;
    #: drives receiver-side duplicate suppression.  ``None`` for local
    #: (same-machine) handoffs, which cannot be duplicated by the fabric.
    seq: Any = None
    #: Causal trace context ``(trace_id, span_id, parent_span_id)``
    #: stamped by the transport when causal tracing is on; ``None``
    #: otherwise.  A passive annotation: protocol logic never reads it,
    #: so traced runs stay byte-identical to untraced runs.
    ctx: Any = None


class _DedupWindow:
    """Per-stream duplicate filter: contiguous floor + out-of-order set.

    Everything ``<= floor`` has been delivered; ``seen`` holds delivered
    sequence numbers above the floor (reordering opens gaps; drops leave
    them forever, so the floor is force-advanced past a bounded window
    to keep ``seen`` small).
    """

    WINDOW = 4096

    __slots__ = ("floor", "seen")

    def __init__(self):
        self.floor = 0
        self.seen = set()

    def accept(self, seq: int) -> bool:
        """True iff ``seq`` is new; records it as delivered."""
        if seq == self.floor + 1 and not self.seen:
            self.floor = seq  # in order, no gap open: the common case
            return True
        if seq <= self.floor or seq in self.seen:
            return False
        self.seen.add(seq)
        while self.floor + 1 in self.seen:
            self.floor += 1
            self.seen.discard(self.floor)
        if seq - self.WINDOW > self.floor:
            # Dropped messages leave permanent gaps; slide the floor so
            # the out-of-order set stays bounded.
            self.floor = seq - self.WINDOW
            self.seen = {s for s in self.seen if s > self.floor}
        return True


class _TransportFault:
    """One armed byzantine fabric fault at a receiving endpoint."""

    __slots__ = ("kind", "count", "delay")

    def __init__(self, kind: str, count: int, delay: float):
        if kind not in ("corrupt", "dup", "reorder"):
            raise SimulationError(f"unknown transport fault {kind!r}")
        if count < 1:
            raise SimulationError(f"fault count must be >= 1, got {count}")
        self.kind = kind
        self.count = count
        self.delay = delay


def _chunk_slot(message: Message):
    """Index of the Chunk inside a tuple payload, or None.

    Chunk-carrying wire formats: ``read_reply``/``vread_reply`` carry
    ``(request_id, chunk)``; ``write``/``vwrite`` carry ``(request_id,
    requester, reply_service, chunk)``.
    """
    from repro.store.chunk import Chunk

    payload = message.payload
    if not isinstance(payload, tuple):
        return None
    for slot, item in enumerate(payload):
        if isinstance(item, Chunk) and item.payload is not None:
            return slot
    return None


def _corrupt_in_place(message: Message) -> None:
    """Replace the chunk in a message payload with a corrupted copy."""
    from repro.store.integrity import corrupt_chunk

    slot = _chunk_slot(message)
    if slot is None:
        return
    payload = list(message.payload)
    payload[slot] = corrupt_chunk(payload[slot])
    message.payload = tuple(payload)


class Network:
    """The cluster fabric: one NIC per machine plus the switch."""

    #: Fixed per-message protocol overhead in bytes (headers, framing).
    MESSAGE_OVERHEAD = 64

    def __init__(
        self,
        sim: Simulator,
        machines: int,
        config: NetworkConfig,
        tracer=None,
        host=None,
        extra_endpoints: int = 0,
        integrity: bool = True,
    ):
        """``extra_endpoints`` adds management endpoints beyond the
        compute machines (the fault-injection runtime attaches its
        failure-detector monitor this way); they get NICs and mailboxes
        but are never placement targets — ``self.machines`` stays the
        compute machine count."""
        if machines < 1:
            raise ValueError(f"need at least one machine, got {machines}")
        if extra_endpoints < 0:
            raise ValueError("extra_endpoints must be >= 0")
        self.sim = sim
        self.machines = machines
        self.config = config
        self.switch = Switch(sim, config)
        self.nics = [
            Nic(sim, machine, config)
            for machine in range(machines + extra_endpoints)
        ]
        self._mailboxes: Dict[Tuple[int, str], Mailbox] = {}
        # Reachability per endpoint: False while an endpoint is crashed
        # or partitioned away.  Remote messages touching an unreachable
        # endpoint are dropped (fail-stop links: no queuing, no retry at
        # the transport layer — recovery is end-to-end, Section 6.6).
        self._reachable = [True] * (machines + extra_endpoints)
        #: Remote messages dropped because either end was unreachable.
        self.messages_dropped = 0
        # Integrity hardening: per-stream sequence numbers and receiver
        # side duplicate suppression (gated by config.integrity_checks).
        self._integrity = integrity
        self._seq: Dict[Tuple[int, int, str], int] = {}
        self._dedup: Dict[Tuple[int, str, int], _DedupWindow] = {}
        #: Duplicate deliveries filtered by the sequence-number window.
        self.duplicates_suppressed = 0
        # Armed byzantine fabric faults, keyed by receiving endpoint.
        self._pending_faults: Dict[int, list] = {}
        self.messages_corrupted = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        # Host profiler: real cost of building each in-flight message
        # (the host-side analogue of the modelled copy cost); None
        # when off.
        self._host = host if host is not None and host.enabled else None
        self._trace_on = tracer is not None and tracer.enabled
        #: Causal DAG recorder (message sends/deliveries become edges);
        #: the null recorder when tracing is off.
        self.causal = tracer.causal if self._trace_on else NULL
        if self._trace_on:
            from repro.obs.tracer import TID_NIC_RX, TID_NIC_TX

            for machine, nic in enumerate(self.nics):
                nic.egress.enable_trace(
                    tracer.thread(machine, TID_NIC_TX, "nic.tx"), label="tx"
                )
                nic.ingress.enable_trace(
                    tracer.thread(machine, TID_NIC_RX, "nic.rx"), label="rx"
                )

    # -- service registry ----------------------------------------------

    def register(self, machine: int, service: str) -> Mailbox:
        """Create (or fetch) the mailbox for ``service`` on ``machine``."""
        key = (machine, service)
        if key not in self._mailboxes:
            self._mailboxes[key] = Mailbox(
                self.sim, name=f"m{machine}.{service}"
            )
        return self._mailboxes[key]

    def mailbox(self, machine: int, service: str) -> Mailbox:
        key = (machine, service)
        try:
            return self._mailboxes[key]
        except KeyError:
            raise SimulationError(
                f"no service {service!r} registered on machine {machine}"
            ) from None

    # -- fault state (reachability) --------------------------------------

    def set_reachable(self, endpoint: int, reachable: bool) -> None:
        """Mark an endpoint up or down for *remote* traffic.

        A down endpoint models a crashed or partitioned machine: remote
        messages from or to it are silently dropped (their delivery
        events never fire).  Local (self-addressed) delivery still works
        — a partitioned machine's engines keep talking to the co-located
        storage engine; only the network is cut.
        """
        if not 0 <= endpoint < len(self.nics):
            raise SimulationError(f"invalid endpoint {endpoint}")
        self._reachable[endpoint] = reachable

    def is_reachable(self, endpoint: int) -> bool:
        return self._reachable[endpoint]

    def _drop(self, message: Message) -> None:
        self.messages_dropped += 1

    # -- fault state (byzantine fabric faults) ----------------------------

    def inject_fault(
        self, endpoint: int, kind: str, count: int = 1, delay: float = 0.0
    ) -> None:
        """Arm a byzantine fault on the next ``count`` applicable
        messages *received* by ``endpoint``.

        ``kind`` is one of ``corrupt`` (perturb the chunk payload in
        flight — applies only to chunk-carrying messages, and stays
        armed until one arrives), ``dup`` (deliver the message twice,
        charging ingress twice), or ``reorder`` (hold the message at
        the switch for ``delay`` seconds, letting later traffic on the
        stream overtake it).
        """
        if not 0 <= endpoint < len(self.nics):
            raise SimulationError(f"invalid endpoint {endpoint}")
        fault = _TransportFault(kind, count, delay)
        self._pending_faults.setdefault(endpoint, []).append(fault)

    def _take_fault(self, dst: int, message: Message):
        """Consume and return the first armed fault applicable to
        ``message``, or None."""
        plan = self._pending_faults.get(dst)
        if not plan:
            return None
        for fault in plan:
            if fault.kind == "corrupt" and _chunk_slot(message) is None:
                continue  # stays armed for the next chunk-carrying message
            fault.count -= 1
            if fault.count == 0:
                plan.remove(fault)
                if not plan:
                    del self._pending_faults[dst]
            return fault
        return None

    # -- sending ---------------------------------------------------------

    def send(
        self,
        src: int,
        dst: int,
        service: str,
        kind: str,
        size: int,
        payload: Any = None,
        epoch: int = 0,
        parent: Any = None,
        attempt: int = 0,
    ) -> Event:
        """Send a message; the returned event fires on *delivery*.

        Delivery places the message into the destination mailbox.  The
        sender does not block on delivery (fire and forget); callers that
        need completion semantics can wait on the returned event.  If
        either endpoint is unreachable the message is dropped and the
        returned event never fires — callers needing progress guarantees
        must pair the event with a timeout (the fault-tolerant RPC
        pattern the computation engine uses).  ``src`` and ``dst`` must
        name endpoints.  On the wire a message is three scheduled calls
        (egress done -> ``_after_tx``, switch hop -> ``_receive``,
        ingress done -> ``_deliver``), not three events.

        ``parent`` (a causal context or span id) and ``attempt`` (>0 for
        retries/resends) annotate the causal trace only; when causal
        tracing is off they are ignored entirely.
        """
        if not 0 <= dst < len(self.nics):
            raise SimulationError(f"invalid destination machine {dst}")
        if not 0 <= src < len(self.nics):
            raise SimulationError(f"invalid source machine {src}")
        sim = self.sim
        host = self._host
        if host is not None:
            token = host.start()
        message = Message(
            src, dst, service, kind, size, payload, sim.now, epoch
        )
        if host is not None:
            host.stop(token, src, "msg_copy")
        if self.causal.enabled:
            message.ctx = self.causal.on_send(
                kind, src, dst, size, parent=parent, attempt=attempt
            )
        mailbox = self.mailbox(dst, service)
        delivered = Event(sim, f"deliver.{kind}")

        if src == dst:
            # Local delivery: intra-process handoff, no network cost.
            sim.schedule(0.0, self._deliver, mailbox, message, delivered)
            return delivered

        stream = (src, dst, service)
        self._seq[stream] = message.seq = self._seq.get(stream, 0) + 1
        if not (self._reachable[src] and self._reachable[dst]):
            # Fail-stop link: a dead sender emits nothing; a message for
            # a dead receiver is dropped without charging the fabric.
            self._drop(message)
            return delivered

        wire_size = size + self.MESSAGE_OVERHEAD
        self.nics[src].egress.service(
            wire_size, label=f"tx:{kind}" if self._trace_on else None,
            then=self._after_tx, args=(wire_size, mailbox, message, delivered),
        )
        return delivered

    def _after_tx(self, wire_size: int, mailbox, message, delivered) -> None:
        dst = message.dst
        if not (self._reachable[message.src] and self._reachable[dst]):
            # Link state changed while the message sat in the egress
            # queue: drop in flight.
            self._drop(message)
            return
        self.sim.schedule(
            self.switch.forward(wire_size), self._receive,
            dst, wire_size, mailbox, message, delivered,
        )

    def _receive(
        self,
        dst: int,
        wire_size: int,
        mailbox: Mailbox,
        message: Message,
        delivered: Event,
        pristine: bool = True,
    ) -> None:
        if not self._reachable[dst]:
            # The receiver died while the message crossed the switch.
            self._drop(message)
            return
        if pristine and self._pending_faults:
            fault = self._take_fault(dst, message)
            if fault is not None:
                if fault.kind == "corrupt":
                    _corrupt_in_place(message)
                    self.messages_corrupted += 1
                elif fault.kind == "reorder":
                    # Hold the frame at the switch; later traffic on the
                    # stream overtakes it (bounded reordering).
                    self.messages_reordered += 1
                    self.sim.schedule(
                        fault.delay, self._receive, dst, wire_size,
                        mailbox, message, delivered, False,
                    )
                    return
                elif fault.kind == "dup":
                    # A second arrival of the same frame (same seq):
                    # charges ingress again, suppressed by the dedup
                    # window when hardening is on.
                    self.messages_duplicated += 1
                    self.sim.schedule(
                        0.0, self._receive, dst, wire_size,
                        mailbox, message, delivered, False,
                    )
        self.nics[dst].ingress.service(
            wire_size, label=f"rx:{message.kind}" if self._trace_on else None,
            then=self._deliver, args=(mailbox, message, delivered),
        )

    def _deliver(
        self, mailbox: Mailbox, message: Message, delivered: Event
    ) -> None:
        if self._integrity and message.seq is not None:
            stream = (message.dst, message.service, message.src)
            window = self._dedup.get(stream)
            if window is None:
                window = self._dedup[stream] = _DedupWindow()
            if not window.accept(message.seq):
                self.duplicates_suppressed += 1
                return
        if message.ctx is not None:
            self.causal.on_deliver(message.ctx)
        mailbox.put(message)
        if not delivered.triggered:
            delivered.trigger(message)

    # -- accounting ------------------------------------------------------

    def total_bytes(self) -> int:
        """Total bytes that crossed the switch fabric."""
        return self.switch.bytes_forwarded

    def aggregate_nic_utilization(self, elapsed: float) -> float:
        """Mean egress utilization over the compute machines' NICs."""
        if elapsed <= 0 or not self.nics:
            return 0.0
        compute_nics = self.nics[: self.machines]
        total = sum(
            nic.egress.meter.utilization(elapsed) for nic in compute_nics
        )
        return total / len(compute_nics)
