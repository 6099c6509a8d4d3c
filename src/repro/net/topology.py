"""Physical network topology: NICs and the top-of-rack switch.

The evaluation cluster (Section 8) connects 32 machines through 40 GigE
links to a single top-of-rack switch with full bisection bandwidth.  We
model:

* a :class:`Nic` per machine with independent FIFO egress and ingress
  pipes (full duplex), each of the configured line rate;
* a :class:`Switch` that, being non-blocking, contributes only a fixed
  propagation/forwarding latency.

Messages to *self* bypass the NIC entirely (Chaos runs computation and
storage engines in one process per machine; local requests do not touch
the network — Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import Simulator
from repro.sim.resources import FifoServer


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the rack network.

    ``bandwidth`` is the per-NIC line rate in bytes/second; ``latency``
    is the one-way message latency (propagation + switching + protocol
    stack) in seconds.
    """

    bandwidth: float
    latency: float
    name: str = "custom"

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")

    def round_trip(self) -> float:
        """Round-trip latency ``R_network`` used in Eq. 3 of the paper."""
        return 2.0 * self.latency


# 40 GigE: ~5 GB/s line rate, ~50 microseconds one-way latency over the
# 0MQ/TCP stack.  The paper measured SSD latency approximately equal to
# the 40 GigE round trip (Section 10.1, Figure 16 discussion).
GIGE_40 = NetworkConfig(bandwidth=5.0e9, latency=50e-6, name="40GigE")

# 1 GigE: ~125 MB/s line rate.  The paper notes the achieved throughput
# is ~1/4 of disk bandwidth, making the network the bottleneck (Fig 12).
GIGE_1 = NetworkConfig(bandwidth=0.125e9, latency=100e-6, name="1GigE")

# Dimensionally scaled presets for laptop-scale functional runs: same
# bandwidths, latencies scaled by 1/10 to match the scaled device models
# (see repro.store.device).  phi = 1 + R_net/R_storage is preserved.
GIGE_40_SCALED = NetworkConfig(bandwidth=5.0e9, latency=5e-6, name="40GigE-scaled")
GIGE_1_SCALED = NetworkConfig(bandwidth=0.125e9, latency=10e-6, name="1GigE-scaled")

# 1/100-latency presets matching the *_BENCH device models (see
# repro.store.device): phi = 1 + RTT/latency stays 2 on the SSD pair.
GIGE_40_BENCH = NetworkConfig(bandwidth=5.0e9, latency=0.5e-6, name="40GigE-bench")
GIGE_1_BENCH = NetworkConfig(bandwidth=0.125e9, latency=1e-6, name="1GigE-bench")


class Nic:
    """Full-duplex network interface: independent egress/ingress pipes."""

    def __init__(self, sim: Simulator, machine: int, config: NetworkConfig):
        self.sim = sim
        self.machine = machine
        self.config = config
        self.egress = FifoServer(
            sim, bandwidth=config.bandwidth, latency=0.0, name=f"nic{machine}.tx"
        )
        self.ingress = FifoServer(
            sim, bandwidth=config.bandwidth, latency=0.0, name=f"nic{machine}.rx"
        )

    def bytes_sent(self) -> int:
        return self.egress.meter.bytes_served

    def bytes_received(self) -> int:
        return self.ingress.meter.bytes_served


class Switch:
    """Non-blocking top-of-rack switch.

    Full bisection bandwidth means the switch fabric never queues under
    our workloads; it contributes the one-way latency
    (``config.latency``) only.  We still count bytes crossing the fabric
    for the network-volume metrics: the transport adds each frame that
    left its sender's egress queue with both ends up.
    """

    def __init__(self, sim: Simulator, config: NetworkConfig):
        self.sim = sim
        self.config = config
        self.bytes_forwarded = 0
        self.messages_forwarded = 0
