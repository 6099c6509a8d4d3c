"""Layer probes: each layer alone, at a size where only it is running.

The workloads measure the layers as a job mixes them; a probe drives one
bare layer through its public calls so that its row exists "at a scale
where that layer dominates" whatever the job mix becomes.  Chunk size is
the axis for the store probes (4 KB and 64 KB, the two sizes the
workloads use): per-chunk overhead shows at 4 KB, per-byte cost at
64 KB.  Every probe is a best-of-``reps``; all are per-layer metrics and
gate nothing.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable, Dict

import numpy as np

from repro.core.workload import canonical_update_order
from repro.graph import rmat_graph
from repro.net.topology import GIGE_40
from repro.net.transport import Network
from repro.partition.streaming import PartitionLayout, partition_edges
from repro.sim.engine import Simulator
from repro.store.chunk import Chunk, ChunkKind
from repro.store.filestore import FileChunkStore
from repro.store.integrity import seal_chunk, verify_chunk
from repro.store.memstore import MemoryChunkStore

KB = 1024
ENDPOINTS = 8


def _best(reps: int, timed: Callable[[], float]) -> float:
    """Smallest wall of ``reps`` calls; ``timed`` returns its own wall."""
    walls = []
    for _ in range(reps):
        gc.collect()
        walls.append(timed())
    return min(walls)


def _edge_chunks(count: int, chunk_bytes: int):
    """``count`` edge chunks of ``chunk_bytes`` (two int64 columns)."""
    records = chunk_bytes // 16
    column = np.arange(records, dtype=np.int64)
    return [
        Chunk(partition=0, kind=ChunkKind.EDGES, size=chunk_bytes,
              payload={"src": column, "dst": column + i}, records=records)
        for i in range(count)
    ]


def sim_events_per_s(events: int, reps: int) -> float:
    per_process = events // ENDPOINTS

    def ticker(sim: Simulator):
        for _ in range(per_process):
            yield sim.timeout(1e-6)

    def timed() -> float:
        sim = Simulator()
        for _ in range(ENDPOINTS):
            sim.process(ticker(sim))
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start

    return per_process * ENDPOINTS / _best(reps, timed)


def net_msgs_per_s(messages: int, reps: int) -> float:
    def timed() -> float:
        sim = Simulator()
        network = Network(sim, ENDPOINTS, GIGE_40)
        for machine in range(ENDPOINTS):
            network.register(machine, "probe")
        start = time.perf_counter()
        for i in range(messages):
            network.send(i % ENDPOINTS, (i + 1) % ENDPOINTS, "probe", "data",
                         4 * KB)
        sim.run()
        return time.perf_counter() - start

    return messages / _best(reps, timed)


def crc_mb_per_s(chunk_bytes: int, total_bytes: int, reps: int) -> float:
    chunks = _edge_chunks(max(1, total_bytes // chunk_bytes), chunk_bytes)

    def timed() -> float:
        start = time.perf_counter()
        for chunk in chunks:
            seal_chunk(chunk)
            if not verify_chunk(chunk):
                raise AssertionError("freshly sealed chunk failed to verify")
        return time.perf_counter() - start

    # Each chunk is checksummed twice: once to seal, once to verify.
    return 2 * len(chunks) * chunk_bytes / 1e6 / _best(reps, timed)


def mem_rw_chunks_per_s(chunk_bytes: int, count: int, reps: int) -> float:
    chunks = _edge_chunks(count, chunk_bytes)

    def timed() -> float:
        store = MemoryChunkStore()
        start = time.perf_counter()
        for chunk in chunks:
            store.append_chunk(chunk)
        while store.fetch_any(0, ChunkKind.EDGES) is not None:
            pass
        return time.perf_counter() - start

    return 2 * count / _best(reps, timed)


def file_mb_per_s(workdir: str, chunk_bytes: int, count: int, reps: int):
    """(write MB/s, read MB/s) through ``FileChunkStore`` — page cache
    speeds: the sandbox's, not a device's."""
    chunks = _edge_chunks(count, chunk_bytes)
    write_walls, read_walls = [], []
    for rep in range(reps):
        gc.collect()
        store = FileChunkStore(os.path.join(workdir, f"probe{rep}"))
        start = time.perf_counter()
        for chunk in chunks:
            store.append_chunk(chunk)
        middle = time.perf_counter()
        while store.fetch_any(0, ChunkKind.EDGES) is not None:
            pass
        read_walls.append(time.perf_counter() - middle)
        write_walls.append(middle - start)
        store.delete(0, ChunkKind.EDGES)
    megabytes = count * chunk_bytes / 1e6
    return megabytes / min(write_walls), megabytes / min(read_walls)


def order_updates_per_s(dtype, updates: int, reps: int) -> float:
    rng = np.random.default_rng(7)
    dst = rng.integers(0, 1 << 14, size=updates)
    if np.dtype(dtype).kind == "f":
        values = rng.random(updates).astype(dtype)
    else:
        values = rng.integers(0, 1 << 31, size=updates).astype(dtype)

    def timed() -> float:
        start = time.perf_counter()
        canonical_update_order(dst, values)
        return time.perf_counter() - start

    return updates / _best(reps, timed)


def run_all(workdir: str, reps: int = 5, small: bool = False) -> Dict[str, float]:
    """Every probe, by metric name.  ``small`` shrinks the inputs 20x
    (the self-test's smoke mode); sizes are otherwise the issue's."""
    shrink = 20 if small else 1
    scale = 10 if small else 14
    results: Dict[str, float] = {
        "probe.sim.events_per_s": sim_events_per_s(200_000 // shrink, reps),
        "probe.net.msgs_per_s": net_msgs_per_s(20_000 // shrink, reps),
    }
    for label, chunk_bytes in (("4k", 4 * KB), ("64k", 64 * KB)):
        results[f"probe.store.crc_mb_per_s.{label}"] = crc_mb_per_s(
            chunk_bytes, (16 << 20) // shrink, reps
        )
        results[f"probe.store.mem_rw_chunks_per_s.{label}"] = (
            mem_rw_chunks_per_s(chunk_bytes, 4096 // shrink, reps)
        )
    write, read = file_mb_per_s(workdir, 64 * KB, 512 // shrink, reps)
    results["probe.store.file_write_mb_per_s.64k"] = write
    results["probe.store.file_read_mb_per_s.64k"] = read
    for label, dtype in (("f64", np.float64), ("u32", np.uint32)):
        results[f"probe.core.order_updates_per_s.{label}"] = (
            order_updates_per_s(dtype, 1_000_000 // shrink, reps)
        )

    graph = rmat_graph(scale, seed=1)
    layout = PartitionLayout.even(graph.num_vertices, ENDPOINTS)

    def build() -> float:
        start = time.perf_counter()
        rmat_graph(scale, seed=1)
        return time.perf_counter() - start

    def split() -> float:
        start = time.perf_counter()
        partition_edges(graph, layout)
        return time.perf_counter() - start

    results["probe.graph.rmat_edges_per_s"] = graph.num_edges / _best(reps, build)
    results["probe.partition.edges_per_s"] = graph.num_edges / _best(reps, split)
    return results
