"""Secondary-storage device models.

The evaluation cluster's devices (Section 8): a 480 GB SSD at roughly
400 MB/s and two 6 TB magnetic disks in RAID 0 at roughly 200 MB/s.  The
paper further measured the SSD's request latency to be approximately
equal to the 40 GigE round trip (Section 10.1), which fixes the SSD
latency once the network latency is chosen — that relation is what makes
φ = 2 and the φk = 10 sweet spot of Figure 16 come out right.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceSpec:
    """A storage device: sequential bandwidth plus per-request latency."""

    name: str
    bandwidth: float  # bytes / second, sequential
    latency: float  # seconds per request (seek + dispatch)
    capacity: int  # bytes

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be non-negative, got {self.latency}")
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    def chunk_time(self, size: int) -> float:
        """Time to read or write one chunk of ``size`` bytes."""
        return self.latency + size / self.bandwidth

    def track_label(self) -> str:
        """Trace-track name for this device ("device:SSD" etc.)."""
        return f"device:{self.name}"


#: The cluster's SSD: 400 MB/s; latency equal to the 40 GigE round trip
#: (2 x 50 microseconds), as the paper measured.
SSD_480GB = DeviceSpec(
    name="SSD",
    bandwidth=400e6,
    latency=100e-6,
    capacity=480 * 10**9,
)

#: Two 6 TB disks in RAID 0: 200 MB/s sequential ("the HDD bandwidth is
#: 2X less than the SSD bandwidth", Section 9.4), with a millisecond-
#: scale positioning cost amortized over 4 MB chunks.
HDD_RAID0 = DeviceSpec(
    name="HDD-RAID0",
    bandwidth=200e6,
    latency=2e-3,
    capacity=12 * 10**12,
)

# -- dimensionally scaled presets ------------------------------------------
#
# The paper streams ~17 GB/machine in 4 MB chunks, so the per-request
# latency is ~1% of a chunk's service time and fixed costs vanish against
# streaming time.  Laptop-scale functional runs stream megabytes in ~64 KB
# chunks; keeping the paper's absolute latencies would inflate fixed costs
# by ~40x relative to streaming and place the simulation in a regime the
# paper never measured.  The *_SCALED presets keep every bandwidth (and
# hence every bandwidth ratio: SSD/HDD, net/storage) identical and scale
# all latencies by 1/10, restoring the paper's dimensionless ratio of
# streaming time to fixed cost.  phi = 1 + R_net/R_storage is unchanged.

SSD_SCALED = DeviceSpec(
    name="SSD-scaled",
    bandwidth=400e6,
    latency=10e-6,
    capacity=480 * 10**9,
)

HDD_SCALED = DeviceSpec(
    name="HDD-scaled",
    bandwidth=200e6,
    latency=200e-6,
    capacity=12 * 10**12,
)

# 1/100-latency presets for the benchmark suite, whose graphs are ~10^4x
# smaller than the paper's: chunk sizes shrink proportionally (4 KB vs
# 4 MB), so scaling latency by the same proportion keeps the per-chunk
# latency fraction — and hence the utilization regime — at the paper's
# level.  Bandwidths and all bandwidth/latency *ratios* are unchanged.

SSD_BENCH = DeviceSpec(
    name="SSD-bench",
    bandwidth=400e6,
    latency=1e-6,
    capacity=480 * 10**9,
)

HDD_BENCH = DeviceSpec(
    name="HDD-bench",
    bandwidth=200e6,
    latency=2e-6,
    capacity=12 * 10**12,
)


# -- byzantine device faults ------------------------------------------------


@dataclass
class StorageFaultState:
    """Armed byzantine faults on one storage engine's device.

    Each budget counts *upcoming* operations the device will silently
    damage: ``read_corrupt`` perturbs the next served chunks after they
    leave the backend (a media bit-flip surfacing on the read path — the
    stored copy stays intact), ``write_corrupt`` persists a damaged copy
    of the next written chunks (a torn write), and ``stale_reads`` makes
    the next vertex reads return the previously stored version (a lost
    in-place update).  The storage engine decrements budgets as the
    faults fire; hardening (verify-on-read, write-verify, checkpoint
    freshness checks) detects and repairs the damage when
    ``integrity_checks`` is on.
    """

    read_corrupt: int = 0
    write_corrupt: int = 0
    stale_reads: int = 0
