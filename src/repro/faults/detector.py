"""Heartbeat/lease failure detection over the simulated network.

Every machine runs a :class:`HeartbeatSender` that periodically sends a
small heartbeat message to the cluster monitor — an extra network
endpoint (``Network(extra_endpoints=1)``) that is never a placement
target, so the control plane shares the fabric with the data plane
without perturbing chunk placement.  The monitor-side
:class:`FailureDetector` tracks the last heartbeat receipt per machine
and *suspects* a machine whose lease (``config.effective_lease_timeout``)
expires.  Detection is therefore end-to-end: a crashed machine's sender
process dies, a partitioned machine's heartbeats are dropped by the
transport, and in both cases the lease runs out at the monitor.

Suspicion is a one-way latch per machine until explicitly cleared by the
recovery supervisor (after the machine has been re-admitted).  Only the
supervisor listens: the first suspicion of an epoch ends it with a
cluster-wide rollback, which is also what ends every wait of that epoch
on the lost machine (the computation engines never consult the
detector).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.transport import MEMBERSHIP_SERVICE, Network
from repro.sim.engine import Simulator

#: Wire size of one heartbeat message (machine id + epoch + sequence).
HEARTBEAT_BYTES = 24


class HeartbeatSender:
    """One machine's periodic heartbeat process (one instance per epoch)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machine: int,
        monitor: int,
        interval: float,
        epoch: int = 0,
    ):
        self.sim = sim
        self.network = network
        self.machine = machine
        self.monitor = monitor
        self.interval = interval
        self.epoch = epoch
        self._process = None

    def start(self) -> None:
        self._process = self.sim.process(
            self._run(), name=f"heartbeat{self.machine}.e{self.epoch}"
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.kill("epoch-end")
            self._process = None

    def _run(self):
        while True:
            self.network.send(
                src=self.machine,
                dst=self.monitor,
                service=MEMBERSHIP_SERVICE,
                kind="heartbeat",
                size=HEARTBEAT_BYTES,
                payload=self.machine,
                epoch=self.epoch,
            )
            yield self.sim.timeout(self.interval)


class FailureDetector:
    """Lease-based membership view at the cluster monitor endpoint.

    ``on_suspect(machine)`` is invoked (at most once per suspicion
    episode) when a machine's lease expires; the recovery supervisor
    uses it to trigger a cluster-wide rollback.  The detector is
    ``arm()``-ed at each epoch start — which also grants every machine a
    fresh lease so a slow first heartbeat is not a false positive — and
    ``disarm()``-ed while recovery is rebuilding the cluster.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machines: int,
        monitor: int,
        lease: float,
        on_suspect: Optional[Callable[[int], None]] = None,
    ):
        if lease <= 0:
            raise ValueError("lease must be positive")
        self.sim = sim
        self.network = network
        self.machines = machines
        self.lease = lease
        self.on_suspect = on_suspect
        self.armed = False
        self._last_seen: List[float] = [0.0] * machines
        self._suspected: List[bool] = [False] * machines
        network.register(
            monitor, MEMBERSHIP_SERVICE,
            {"heartbeat": self._handle_heartbeat}, name="detector.rx",
        )
        self._watchdog = sim.process(self._watch(), name="detector.watch")

    # -- lifecycle ---------------------------------------------------------

    def arm(self) -> None:
        """Start watching leases; every machine gets a fresh lease now."""
        now = self.sim.now
        for machine in range(self.machines):
            self._last_seen[machine] = now
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def clear(self, machine: int) -> None:
        """Forgive a machine (it was re-admitted by recovery)."""
        self._suspected[machine] = False
        self._last_seen[machine] = self.sim.now

    # -- queries ------------------------------------------------------------

    def is_suspected(self, machine: int) -> bool:
        return self._suspected[machine]

    def suspected_machines(self) -> List[int]:
        return [m for m in range(self.machines) if self._suspected[m]]

    # -- processes ----------------------------------------------------------

    def _handle_heartbeat(self, message) -> None:
        machine = message.payload
        if 0 <= machine < self.machines:
            self._last_seen[machine] = self.sim.now

    def _watch(self):
        # Checking at half the lease period bounds detection latency to
        # 1.5 leases after the last heartbeat.
        period = self.lease / 2.0
        while True:
            yield self.sim.timeout(period)
            if not self.armed:
                continue
            now = self.sim.now
            for machine in range(self.machines):
                if self._suspected[machine]:
                    continue
                if now - self._last_seen[machine] > self.lease:
                    self._suspected[machine] = True
                    if self.on_suspect is not None:
                        self.on_suspect(machine)
