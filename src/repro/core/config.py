"""Cluster configuration: the knobs of every experiment in the paper.

One :class:`ClusterConfig` fully determines a simulated deployment —
machine count, cores, device and network models, chunk size, batch
factor, stealing bias, placement policy, checkpointing — so every figure
of the evaluation is a sweep over config fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.net.retry import RetryPolicy
from repro.net.topology import GIGE_40, NetworkConfig
from repro.store.chunk import DEFAULT_CHUNK_BYTES
from repro.store.device import SSD_480GB, DeviceSpec
from repro.core.batching import request_window


@dataclass(frozen=True)
class ClusterConfig:
    """Parameters of a simulated Chaos deployment (Section 8 defaults)."""

    # -- cluster shape ---------------------------------------------------
    machines: int = 1
    #: CPU cores per machine (the Figure 10 knob).
    cores: int = 16
    #: Main memory per machine; bounds the streaming-partition vertex set.
    memory_bytes: int = 32 * 2**30

    # -- hardware models ---------------------------------------------------
    device: DeviceSpec = SSD_480GB
    network: NetworkConfig = GIGE_40

    # -- storage layout ---------------------------------------------------
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    #: "random" (Chaos) or "centralized" (Figure 15 baseline).
    placement: str = "random"
    #: Centralized-directory service rate (lookups/second); only used
    #: with the "centralized" placement.  Scale it with chunk rate when
    #: scaling chunk sizes.
    directory_lookups_per_second: float = 200_000.0
    #: Override the partition-count rule (partitions = machines × this).
    partitions_per_machine: Optional[int] = None

    # -- batching (Section 6.5) --------------------------------------------
    #: Batch factor k; the window is φk with φ from Eq. 3.
    batch_factor: int = 5
    #: Explicit outstanding-request window, overriding φk (Figure 16).
    request_window_override: Optional[int] = None

    # -- stealing (Section 5.4) ---------------------------------------------
    #: Steal bias α: 0 = never, 1 = Chaos default, math.inf = always.
    steal_alpha: float = 1.0

    # -- fault tolerance -----------------------------------------------------
    checkpointing: bool = False
    #: Replicas of every vertex chunk (1 = none).  The paper notes that
    #: tolerating storage failures "could easily be added by replicating
    #: the vertex sets" (Section 6.6); this implements it.
    vertex_replicas: int = 1
    #: Heartbeat period of the per-machine failure-detector sender; the
    #: lease and both retry policies derive from it.
    heartbeat_interval: float = 1e-3
    #: Reboot delay applied to crash faults with no explicit restart
    #: time (crash faults are transient machine failures, Section 6.6 —
    #: secondary storage survives the reboot).
    restart_seconds: float = 10e-3

    # -- integrity hardening -------------------------------------------------
    #: End-to-end integrity defences: CRC32 verify-on-read of sealed
    #: chunks, transport duplicate suppression, write-verify, and
    #: checkpoint freshness checks.  ``False`` is a *test hook* for the
    #: chaos fuzzer — it re-exposes the unhardened engine so byzantine
    #: faults visibly corrupt results.  Never disable it in real runs.
    integrity_checks: bool = True

    # -- optional Pregel-style combining (Section 11.1) -----------------------
    #: Pre-aggregate buffered updates sharing a destination before
    #: writing them: charges the merge CPU and writes combined-size
    #: chunks (the raw updates ship, so values stay exact).  The paper
    #: evaluated and rejected this ("the cost of merging ... outweighs
    #: the benefits"); kept as a measurable ablation.
    aggregate_updates: bool = False

    # -- CPU cost model --------------------------------------------------
    #: Per-record processing costs (seconds of one core).  Defaults are
    #: chosen so that 16 cores comfortably sustain one SSD's bandwidth,
    #: matching the paper's observation that the core count has little
    #: effect until it is too low to sustain the network (Section 9.4).
    cpu_seconds_per_edge: float = 100e-9
    cpu_seconds_per_update: float = 80e-9
    cpu_seconds_per_vertex: float = 30e-9

    # -- determinism ------------------------------------------------------
    seed: int = 0

    def __post_init__(self):
        # Each check is written so that NaN fails it (every comparison
        # with NaN is false); steal_alpha = math.inf stays valid.
        checks = (
            (self.machines >= 1, "machines must be >= 1"),
            (self.cores >= 1, "cores must be >= 1"),
            (self.memory_bytes >= 1, "memory_bytes must be >= 1"),
            (self.chunk_bytes >= 1, "chunk_bytes must be >= 1"),
            (self.placement in ("random", "centralized"),
             f"unknown placement {self.placement!r}"),
            (self.directory_lookups_per_second > 0,
             "directory_lookups_per_second must be positive"),
            (self.partitions_per_machine is None
             or self.partitions_per_machine >= 1,
             "partitions_per_machine must be >= 1"),
            (self.batch_factor >= 1, "batch_factor must be >= 1"),
            (self.request_window_override is None
             or self.request_window_override >= 1,
             "request_window_override must be >= 1"),
            (self.steal_alpha >= 0, "steal_alpha must be a number >= 0"),
            (self.vertex_replicas >= 1, "vertex_replicas must be >= 1"),
            (self.vertex_replicas <= self.machines,
             "cannot replicate beyond the machine count"),
            (0 < self.heartbeat_interval < math.inf,
             "heartbeat_interval must be positive and finite"),
            (0 < self.restart_seconds < math.inf,
             "restart_seconds must be positive and finite"),
            (all(0 <= cost < math.inf for cost in (
                self.cpu_seconds_per_edge,
                self.cpu_seconds_per_update,
                self.cpu_seconds_per_vertex,
            )), "cpu_seconds_per_* must be non-negative and finite"),
        )
        for ok, message in checks:
            if not ok:
                raise ValueError(message)

    # -- derived quantities ------------------------------------------------

    def effective_request_window(self) -> int:
        """Outstanding chunk requests per engine: φk, or the override.

        φ uses the request latencies only (network RTT vs device service
        latency), following the paper's measurement methodology: on the
        default SSD/40 GigE pair both are ~100 µs, giving φ = 2 and a
        window of 10 for k = 5 — the Figure 16 sweet spot.
        """
        if self.request_window_override is not None:
            return self.request_window_override
        return request_window(
            self.batch_factor,
            network_rtt=self.network.round_trip(),
            storage_latency=max(self.device.latency, 1e-9),
        )

    def effective_lease_timeout(self) -> float:
        """Failure-detector lease: 5 heartbeat periods.

        Five missed heartbeats comfortably absorb queueing jitter at
        the monitor's NIC while still bounding detection latency.
        """
        return 5.0 * self.heartbeat_interval

    def liveness_policy(self) -> RetryPolicy:
        """Re-check schedule of a blocked RPC under fault injection
        (chunk reads, steal proposals): first at one lease, backing off
        to four so a long outage is not busy-polled.  A request is only
        abandoned once the failure detector has fenced its target, so
        the schedule trades wake-ups against abandonment latency and can
        never cause a false data loss."""
        lease = self.effective_lease_timeout()
        return RetryPolicy(base=lease, factor=1.5, cap=4.0 * lease)

    def integrity_policy(self) -> RetryPolicy:
        """Backoff before re-sending a request whose frame arrived
        corrupt: a transient, so start well under the lease and back off
        toward it."""
        return RetryPolicy(
            base=self.heartbeat_interval / 4.0,
            factor=2.0,
            cap=self.effective_lease_timeout(),
        )

    def with_(self, **changes) -> "ClusterConfig":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **changes)

    @property
    def stealing_enabled(self) -> bool:
        return self.steal_alpha > 0
