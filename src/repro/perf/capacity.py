"""Capacity-scaling projections (Section 9.3).

The paper's capacity milestone: RMAT-36 — 2^36 ≈ 69 billion vertices
(the paper rounds its vertex accounting to "250 billion" including the
sparse id space) and 1 trillion edges, 16 TB of input on the cluster's
HDDs.  BFS finishes "in a little over 9 hours" reading ~214 TB; 5
iterations of PageRank take ~19 hours and ~395 TB; the Chaos store
sustains ~7 GB/s aggregate from 64 spindles.

These runs are phantom (model-mode) executions of the full engine: the
identical scheduling, batching and stealing code paths run, but chunks
carry sizes only.  To keep the event count tractable the projection uses
macro-chunks (256 MB instead of 4 MB); at HDD service times the per-
chunk latency is negligible either way, so the bandwidth math is
unchanged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

from repro.core.config import ClusterConfig
from repro.core.gas import GasAlgorithm
from repro.core.metrics import JobResult
from repro.core.runtime import ChaosCluster, GraphSpec
from repro.net.topology import GIGE_40
from repro.perf.profiles import ActivityProfile
from repro.store.device import HDD_RAID0

#: Default macro-chunk size for projections (see module docstring).
MACRO_CHUNK_BYTES = 256 * 1024 * 1024


@dataclass
class CapacityProjection:
    """Summary of a capacity-scale phantom run."""

    algorithm: str
    machines: int
    runtime_hours: float
    total_io_terabytes: float
    aggregate_bandwidth_gbps: float
    iterations: int
    result: JobResult

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {self.runtime_hours:.2f} h, "
            f"{self.total_io_terabytes:.0f} TB I/O, "
            f"{self.aggregate_bandwidth_gbps:.1f} GB/s aggregate "
            f"({self.iterations} iterations on {self.machines} machines)"
        )


def project_capacity(
    algorithm: GasAlgorithm,
    profile: ActivityProfile,
    scale: int = 36,
    machines: int = 32,
    config: Optional[ClusterConfig] = None,
) -> CapacityProjection:
    """Run a paper-scale phantom job and summarize it in paper units."""
    if config is None:
        config = ClusterConfig(
            machines=machines,
            device=HDD_RAID0,
            network=GIGE_40,
            chunk_bytes=MACRO_CHUNK_BYTES,
            partitions_per_machine=1,
        )
    spec = GraphSpec.rmat(scale)
    if spec.num_vertices >= 2**32:
        # Non-compact format (Section 8): 8-byte ids double every
        # update/vertex record relative to the compact defaults the
        # algorithms declare; widened on a copy, not the caller's object.
        algorithm = copy.copy(algorithm)
        algorithm.update_bytes = algorithm.update_bytes * 2
        algorithm.vertex_bytes = algorithm.vertex_bytes * 2
        algorithm.accum_bytes = algorithm.accum_bytes * 2
    result = ChaosCluster(config).run_model(algorithm, spec, profile)
    return CapacityProjection(
        algorithm=algorithm.name,
        machines=config.machines,
        runtime_hours=result.runtime / 3600.0,
        total_io_terabytes=result.storage_bytes / 1e12,
        aggregate_bandwidth_gbps=result.aggregate_bandwidth / 1e9,
        iterations=result.iterations,
        result=result,
    )
