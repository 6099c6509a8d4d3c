"""Message transport over the modelled rack network.

The transport delivers opaque messages between machine endpoints,
charging serialization time on the sender's NIC egress, the switch
latency, and deserialization time on the receiver's NIC ingress.  Local
(self-addressed) messages are delivered with zero network cost, matching
the co-located computation/storage engine deployment of Section 7.

A remote message is two heap events.  At send the egress slot is booked
(:meth:`FifoServer.book`) and the arrival is pushed straight to
``egress_done + latency``: the switch is a stateless latency, so nothing
happens at ``egress_done`` that needs an event.  The arrival
(``Network._receive``) decides the in-flight drop the egress hop used
to make — either end unreachable at ``egress_done``, read off each
endpoint's reachability log — counts the switch crossing, books the
ingress slot and pushes the delivery (``Network._deliver``).  The
ingress hop stays an event: arrivals from different senders are ordered
only at arrival.

A service on a machine (computation engine, storage engine, chunk
directory, failure monitor) registers an
:class:`Endpoint`: one handler per kind :data:`MESSAGE_KINDS` declares
for it, and an epoch fence.  Delivery drops duplicates, rejects an
undeclared kind, applies the fence and runs the handler where the
message lands: no receive loop, no queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.net.topology import NetworkConfig, Nic, Switch
from repro.obs.log import NULL
from repro.sim.engine import Event, SimulationError, Simulator

#: The services a machine endpoint can host, one handler table each.
COMPUTE_SERVICE = "compute"
STORAGE_SERVICE = "storage"
DIRECTORY_SERVICE = "directory"
MEMBERSHIP_SERVICE = "membership"

#: The protocol's vocabulary: service -> the message kinds it handles
#: (paper section 5: chunk reads and writes between the computation and
#: storage engines; section 5.4: the steal proposal and the accumulator
#: handoff).  A reply (``*_reply``, ``write_ack``) carries its request
#: id first.  A registration supplies exactly one handler per declared
#: kind, delivery rejects any other kind (:func:`undeclared_kind`), and
#: ``trace conform`` checks recorded traffic against the union.
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
}


def undeclared_kind(machine: int, message: "Message") -> SimulationError:
    """The error for a kind the receiving service does not declare (a
    typo at the send site, or a message for another service)."""
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
    #: Transport sequence number within the (src, dst, service) stream,
    #: counted on the receiving :class:`Endpoint`; drives receiver-side
    #: duplicate suppression.  ``None`` for local (same-machine)
    #: handoffs, which cannot be duplicated by the fabric.
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
        """True iff ``seq`` is new; records it as delivered
        (``Network._deliver`` inlines the first branch)."""
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


class Endpoint:
    """One service's receive side on one machine: ``handlers`` (kind ->
    ``handler(message)``) and ``fence(message)``, true to admit (None
    admits all).  Registered with no handlers it is a sink.

    It also holds the state of the streams it receives, indexed by
    source machine: ``next_seq`` (the last sequence number sent on the
    stream) and ``windows`` (its :class:`_DedupWindow`).  Both outlive a
    re-registration, as the streams do.

    Its lifecycle is the dispatcher process's it replaced, event for
    event: it receives from the zero-delay instant after registration (a
    message landing earlier waits for it), stops at once on
    :meth:`close` and at the zero-delay instant after :meth:`kill`, and
    reports both ends to ``sim.process_hook`` under :attr:`name`.
    """

    __slots__ = ("sim", "name", "handlers", "fence", "receiving", "alive",
                 "_waiting", "next_seq", "windows")

    def __init__(self, sim: Simulator, sources: int):
        self.sim, self.name = sim, ""
        self.handlers = self.fence = None
        self.receiving = self.alive = False
        self._waiting = None  # what landed before the first instant
        self.next_seq = [0] * sources
        self.windows = [_DedupWindow() for _ in range(sources)]

    def _register(self, name, handlers, fence) -> None:
        if self.alive:
            raise SimulationError(f"{self.name} is registered and alive")
        self.name, self.handlers, self.fence = name, handlers, fence
        self.alive, self._waiting = True, []
        sim = self.sim
        sim.schedule(0.0, self._open)
        if sim.process_hook is not None:
            sim.process_hook(self, "start")

    def _open(self) -> None:
        self.receiving = True
        while self._waiting:
            self._dispatch(self._waiting.pop(0))
        self._waiting = None

    def _dispatch(self, message: Message) -> None:
        """Kind check, fence, handler (``Network._deliver`` inlines
        this on the hot path: keep the two in step)."""
        handler = self.handlers.get(message.kind)
        if handler is None:
            raise undeclared_kind(message.dst, message)
        fence = self.fence
        if fence is None or fence(message):
            handler(message)

    def close(self) -> None:
        """Stop receiving now and drop whatever waits; the registration
        stays alive (and unreported) until :meth:`kill` lands."""
        self.receiving, self._waiting = False, None

    def kill(self) -> None:
        """Stop at the zero-delay instant after this call; a no-op on a
        stopped endpoint."""
        if self.alive:
            self.sim.schedule(0.0, self._land)

    def _land(self) -> None:
        if not self.alive:
            return
        self.alive = self.receiving = False
        if self.sim.process_hook is not None:
            self.sim.process_hook(self, "finish")


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
        extra_endpoints: int = 0,
        integrity: bool = True,
    ):
        """``extra_endpoints`` adds management endpoints beyond the
        compute machines (the fault-injection runtime attaches its
        failure-detector monitor this way); they get NICs and endpoints
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
        self._latency = config.latency
        self._endpoints: Dict[Tuple[int, str], Endpoint] = {}
        # Reachability per endpoint: False while an endpoint is crashed
        # or partitioned away.  Remote messages touching an unreachable
        # endpoint are dropped (fail-stop links: no queuing, no retry at
        # the transport layer — recovery is end-to-end, Section 6.6).
        self._reachable = [True] * len(self.nics)
        # Per endpoint, one ``(time, was_reachable)`` entry per flip of
        # ``_reachable``: what an arrival reads to decide whether either
        # end was down when its frame left the egress queue.  Empty, and
        # never read, in a fault-free run.
        self._reach_log: List[List[Tuple[float, bool]]] = [
            [] for _ in self.nics
        ]
        #: Remote messages dropped because either end was unreachable.
        self.messages_dropped = 0
        # Integrity hardening: receiver side duplicate suppression by
        # the per-stream sequence numbers (gated by
        # config.integrity_checks).
        self._integrity = integrity
        #: Duplicate deliveries filtered by the sequence-number window.
        self.duplicates_suppressed = 0
        # Armed byzantine fabric faults, keyed by receiving endpoint.
        self._pending_faults: Dict[int, list] = {}
        self.messages_corrupted = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
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

    def register(
        self,
        machine: int,
        service: str,
        handlers: Optional[Dict[str, Callable]] = None,
        fence: Optional[Callable] = None,
        name: str = "",
    ) -> Endpoint:
        """Register ``service`` on ``machine``: ``handlers`` holds one
        ``handler(message)`` per kind :data:`MESSAGE_KINDS` declares for
        the service, ``fence(message)`` says whether a message is
        admitted.  With no handlers the endpoint is a sink.  Re-registering
        a stopped endpoint replaces its table."""
        key = (machine, service)
        endpoint = self._endpoints.get(key)
        if endpoint is None:
            endpoint = self._endpoints[key] = Endpoint(
                self.sim, len(self.nics)
            )
        if handlers is None:
            return endpoint
        if set(handlers) != MESSAGE_KINDS.get(service):
            raise SimulationError(
                f"machine {machine}: handlers for service {service!r} "
                f"cover {sorted(handlers)}, not its declared kinds"
            )
        endpoint._register(name or f"m{machine}.{service}", handlers, fence)
        return endpoint

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
        was = self._reachable[endpoint]
        if was != reachable:
            self._reach_log[endpoint].append((self.sim.now, was))
            self._reachable[endpoint] = reachable

    def _reachable_at(self, endpoint: int, when: float) -> bool:
        """Whether ``endpoint`` was reachable at ``when`` (not in the
        future).  A flip at exactly ``when`` counts as before it."""
        state = self._reachable[endpoint]
        for time, was in reversed(self._reach_log[endpoint]):
            if time <= when:
                break
            state = was
        return state

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
        track: bool = False,
    ) -> Optional[Event]:
        """Send a message: fire and forget, or, with ``track``, an event
        that fires on *delivery*.

        Delivery runs the destination service's handler.  If either
        endpoint is unreachable the message is dropped and a tracked
        event never fires — callers needing progress guarantees must
        pair it with a timeout (the fault-tolerant RPC pattern the
        computation engine uses).  ``src`` and ``dst`` must name
        endpoints.  On the wire a remote message is two heap events: the
        send books the egress slot and pushes the arrival
        (:meth:`_receive`) to ``egress_done + latency``; the arrival
        books the ingress slot and pushes the delivery
        (:meth:`_deliver`).  A local message is one zero-delay delivery.

        ``parent`` (a causal context or span id) and ``attempt`` (>0 for
        retries/resends) annotate the causal trace only; when causal
        tracing is off they are ignored entirely.
        """
        nics = self.nics
        if not 0 <= dst < len(nics):
            raise SimulationError(f"invalid destination machine {dst}")
        if not 0 <= src < len(nics):
            raise SimulationError(f"invalid source machine {src}")
        endpoint = self._endpoints.get((dst, service))
        if endpoint is None:
            raise SimulationError(
                f"no service {service!r} registered on machine {dst}"
            )
        sim = self.sim
        message = Message(
            src, dst, service, kind, size, payload, sim.now, epoch
        )
        if self.causal.enabled:
            message.ctx = self.causal.on_send(
                kind, src, dst, size, parent=parent, attempt=attempt
            )
        delivered = Event(sim, f"deliver.{kind}") if track else None

        if src == dst:
            # Local delivery: intra-process handoff, no network cost.
            sim._seq += 1
            heappush(sim._heap, (
                sim.now, sim._seq, self._deliver, (endpoint, message, delivered)
            ))
            return delivered

        next_seq = endpoint.next_seq
        message.seq = next_seq[src] = next_seq[src] + 1
        if not (self._reachable[src] and self._reachable[dst]):
            # Fail-stop link: a dead sender emits nothing; a message for
            # a dead receiver is dropped without charging the fabric.
            self.messages_dropped += 1
            return delivered

        wire_size = size + self.MESSAGE_OVERHEAD
        egress_done = nics[src].egress.book(
            wire_size, f"tx:{kind}" if self._trace_on else None
        )
        sim._seq += 1
        heappush(sim._heap, (
            egress_done + self._latency, sim._seq, self._receive,
            (wire_size, endpoint, message, delivered, egress_done),
        ))
        return delivered

    def _receive(
        self,
        wire_size: int,
        endpoint: Endpoint,
        message: Message,
        delivered: Optional[Event],
        egress_done: Optional[float] = None,
    ) -> None:
        """A frame reaches the receiver's NIC: its first arrival carries
        ``egress_done``, a re-arrival (``msg-dup``, ``msg-reorder``)
        carries None and is neither re-checked at egress nor counted by
        the switch again.

        The first arrival drops the frame if either end was unreachable
        at ``egress_done`` (it never left the sender, or the link was
        cut under it).  A reachability flip at exactly ``egress_done``
        counts as before the hop: when the egress hop was an event of
        its own, the two were ordered by when each was scheduled.
        """
        dst = message.dst
        if egress_done is not None:
            log = self._reach_log
            if (log[message.src] or log[dst]) and not (
                self._reachable_at(message.src, egress_done)
                and self._reachable_at(dst, egress_done)
            ):
                self.messages_dropped += 1
                return
            switch = self.switch
            switch.bytes_forwarded += wire_size
            switch.messages_forwarded += 1
        if not self._reachable[dst]:
            # The receiver died while the message crossed the switch.
            self.messages_dropped += 1
            return
        if egress_done is not None and self._pending_faults:
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
                        fault.delay, self._receive,
                        wire_size, endpoint, message, delivered,
                    )
                    return
                elif fault.kind == "dup":
                    # A second arrival of the same frame (same seq):
                    # charges ingress again, suppressed by the dedup
                    # window when hardening is on.
                    self.messages_duplicated += 1
                    self.sim.schedule(
                        0.0, self._receive,
                        wire_size, endpoint, message, delivered,
                    )
        landing = self.nics[dst].ingress.book(
            wire_size, f"rx:{message.kind}" if self._trace_on else None
        )
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (
            landing, sim._seq, self._deliver, (endpoint, message, delivered)
        ))

    def _deliver(
        self, endpoint: Endpoint, message: Message,
        delivered: Optional[Event],
    ) -> None:
        """The one receive path of every message: dedup, kind check,
        fence, handler."""
        seq = message.seq
        if seq is not None and self._integrity:
            window = endpoint.windows[message.src]
            if seq == window.floor + 1 and not window.seen:
                window.floor = seq  # accept()'s in-order case, inline
            elif not window.accept(seq):
                self.duplicates_suppressed += 1
                return
        if message.ctx is not None:
            self.causal.on_deliver(message.ctx)
        if endpoint.receiving:  # Endpoint._dispatch, inline
            handler = endpoint.handlers.get(message.kind)
            if handler is None:
                raise undeclared_kind(message.dst, message)
            fence = endpoint.fence
            if fence is None or fence(message):
                handler(message)
        elif endpoint._waiting is not None:
            endpoint._waiting.append(message)
        if delivered is not None and not delivered.triggered:
            delivered.trigger(message)

    # -- accounting ------------------------------------------------------

    def total_bytes(self) -> int:
        """Total bytes that crossed the switch fabric."""
        return self.switch.bytes_forwarded
