"""X-Stream: the single-machine streaming-partition engine (Table 1).

X-Stream [Roy et al., SOSP 2013] is Chaos' ancestor and single-machine
baseline.  It shares the streaming-partition structure and edge-centric
GAS execution, but differs architecturally in exactly the ways Table 1's
single-machine comparison probes:

* **direct I/O** against the local device — no client-server request
  protocol, no per-chunk request latency, no batching window;
* perfectly **overlapped I/O and compute** through multiple in-memory
  buffers: a phase costs max(I/O time, CPU time), not their sum;
* no distribution machinery at all (no barriers, no vertex-chunk
  hashing, no stealing).

The functional execution reuses the exact GAS algorithm implementations
(via :class:`repro.core.workload.DataWorkload` with a one-machine
layout), so results are bit-identical to Chaos; only the cost model
differs.  The timing model is analytic: sequential streaming at device
bandwidth, which is precisely the regime X-Stream engineered for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.core.config import ClusterConfig
from repro.core.gas import GasAlgorithm, GraphContext
from repro.core.metrics import IterationStats, JobResult
from repro.core.workload import DataWorkload
from repro.graph.edgelist import EdgeList, bytes_per_edge
from repro.graph.stats import out_degrees as compute_out_degrees
from repro.partition.streaming import (
    PartitionLayout,
    choose_partition_count,
    partition_edges,
)
from repro.store.chunk import Chunk, ChunkKind
from repro.store.device import SSD_480GB, DeviceSpec


@dataclass(frozen=True)
class XStreamConfig:
    """Single-machine X-Stream deployment parameters."""

    device: DeviceSpec = SSD_480GB
    cores: int = 16
    memory_bytes: int = 32 * 2**30
    cpu_seconds_per_edge: float = 100e-9
    cpu_seconds_per_update: float = 80e-9
    cpu_seconds_per_vertex: float = 30e-9
    partitions: Optional[int] = None

    @classmethod
    def from_cluster(cls, config: ClusterConfig) -> "XStreamConfig":
        """Match an X-Stream run to a Chaos cluster config (same device,
        cores and CPU cost model) for apples-to-apples Table 1 rows."""
        return cls(
            device=config.device,
            cores=config.cores,
            memory_bytes=config.memory_bytes,
            cpu_seconds_per_edge=config.cpu_seconds_per_edge,
            cpu_seconds_per_update=config.cpu_seconds_per_update,
            cpu_seconds_per_vertex=config.cpu_seconds_per_vertex,
            partitions=config.partitions_per_machine,
        )


def run_xstream(
    algorithm: GasAlgorithm,
    edges: EdgeList,
    config: Optional[XStreamConfig] = None,
    **overrides,
) -> JobResult:
    """Execute ``algorithm`` on one machine with the X-Stream cost model."""
    if config is None:
        config = XStreamConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    if algorithm.needs_weights and not edges.weighted:
        raise ValueError(f"{algorithm.name} requires edge weights")

    bandwidth = config.device.bandwidth
    cores = config.cores

    if config.partitions is not None:
        count = config.partitions
    else:
        count = choose_partition_count(
            edges.num_vertices,
            machines=1,
            vertex_state_bytes=algorithm.vertex_state_bytes(),
            memory_bytes=config.memory_bytes,
        )
    layout = PartitionLayout.even(edges.num_vertices, count)
    parts = partition_edges(edges, layout)
    edge_bytes = bytes_per_edge(edges.num_vertices, edges.weighted)

    ctx = GraphContext(
        num_vertices=edges.num_vertices,
        num_edges=edges.num_edges,
        weighted=edges.weighted,
        out_degrees=(
            compute_out_degrees(edges) if algorithm.needs_out_degrees else None
        ),
    )
    workload = DataWorkload(algorithm, layout, ctx)

    # Pre-processing: one read pass over the input plus writing the
    # partitioned edge sets (Section 3).
    clock = 2.0 * edges.storage_bytes() / bandwidth
    preprocessing = clock

    # Pending update payloads per destination partition.
    pending: List[List[dict]] = [[] for _ in range(count)]
    iteration_stats: List[IterationStats] = []
    iteration = 0
    total_storage_bytes = 2 * edges.storage_bytes()

    while True:
        stats = IterationStats(iteration=iteration)
        # -- scatter: stream each partition's edges ----------------------
        update_bytes_written = 0
        for p, part in enumerate(parts):
            vertex_bytes = workload.vertex_set_bytes(p)
            clock += vertex_bytes / bandwidth
            total_storage_bytes += vertex_bytes
            if part.num_edges == 0:
                continue
            payload = {"src": part.src, "dst": part.dst}
            if part.weighted:
                payload["weight"] = part.weight
            chunk = Chunk(
                partition=p,
                kind=ChunkKind.EDGES,
                size=part.num_edges * edge_bytes,
                payload=payload,
                records=part.num_edges,
            )
            batches = workload.scatter_chunk(p, chunk, iteration)
            produced_bytes = 0
            for batch in batches:
                pending[batch.partition].append(batch.payload)
                stats.updates_produced += batch.count
                stats.update_bytes += batch.nbytes
                produced_bytes += batch.nbytes
            stats.edges_streamed += part.num_edges
            io_time = (chunk.size + produced_bytes) / bandwidth
            cpu_time = part.num_edges * config.cpu_seconds_per_edge / cores
            clock += max(io_time, cpu_time)
            total_storage_bytes += chunk.size + produced_bytes
            update_bytes_written += produced_bytes

        if algorithm.max_iterations is None and stats.updates_produced == 0:
            iteration_stats.append(stats)
            break

        # -- gather (apply folded in) ---------------------------------------
        for p in range(count):
            vertex_bytes = workload.vertex_set_bytes(p)
            clock += vertex_bytes / bandwidth
            total_storage_bytes += vertex_bytes
            accum = workload.begin_gather(p)
            update_count = 0
            update_nbytes = 0
            for payload in pending[p]:
                chunk = Chunk(
                    partition=p,
                    kind=ChunkKind.UPDATES,
                    size=len(payload["dst"]) * algorithm.update_bytes,
                    payload=payload,
                    records=len(payload["dst"]),
                )
                workload.gather_chunk(p, accum, chunk)
                update_count += chunk.records
                update_nbytes += chunk.size
            pending[p] = []
            io_time = update_nbytes / bandwidth
            cpu_time = update_count * config.cpu_seconds_per_update / cores
            clock += max(io_time, cpu_time)
            total_storage_bytes += update_nbytes
            changed = workload.apply_partition(p, accum, iteration)
            stats.vertices_changed += changed
            clock += layout.vertex_count(p) * config.cpu_seconds_per_vertex / cores
            clock += vertex_bytes / bandwidth  # write vertex set back
            total_storage_bytes += vertex_bytes
        iteration_stats.append(stats)

        if workload.finished(iteration, stats):
            break
        iteration += 1

    return JobResult(
        algorithm=algorithm.name,
        machines=1,
        runtime=clock,
        preprocessing_seconds=preprocessing,
        iterations=len(iteration_stats),
        iteration_stats=iteration_stats,
        breakdowns=[],
        storage_bytes=total_storage_bytes,
        network_bytes=0,
        values=workload.final_values(),
    )
