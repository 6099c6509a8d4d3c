"""The edge-chunk layout moves no simulated bit: a pinned invariance table.

Edge chunks are stored with their records grouped, stably, by the
destination partition (``ChaosCluster._place_data_chunks``), so that a
scatter's output arrives already binned.  A chunk holds exactly the
records it held when it was stored in source-partition order, so every
size, placement draw, CPU charge and update chunk is unchanged: only the
order inside an edge chunk differs, and nothing simulated reads it.

:data:`PINS` (``ingest_invariance_pins.json``) was taken from the code
*before* the grouping, over the ten algorithms (MCST, SCC and k-core
through their drivers) x machines {1, 3, 4} x chunk size {4, 16 KB} x
provider {memory, file} x update aggregation {off, on}.  Each cell pins
the final values' digest and, summed over the cell's jobs, the simulated
runtime, the bytes moved (storage + network), the edges streamed and the
update records written.  A cell that moves means the layout leaked into
the simulation: fix the code, do not re-pin.

:class:`TestGroupedChunks` checks the layout itself: each stored edge
chunk holds the records of its source partition's range, grouped by
destination partition, in input order within each group.

Regenerate (only for a change that is meant to move simulated numbers)::

    PYTHONPATH=src python tests/test_ingest_invariance.py > tests/ingest_invariance_pins.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    Conductance,
    PageRank,
    SpMV,
    run_kcore_decomposition,
    run_mcst,
    run_scc,
)
from repro.core.runtime import ChaosCluster
from repro.graph import rmat_graph, to_undirected
from repro.graph.edgelist import bytes_per_edge
from repro.partition.streaming import partition_edges
from repro.store import FileChunkStore
from repro.store.chunk import ChunkKind
from repro.store.engine import StorageEngine

from tests.conftest import fast_config

PINS_PATH = os.path.join(os.path.dirname(__file__), "ingest_invariance_pins.json")

KB = 1024
MACHINES = (1, 3, 4)
CHUNK_BYTES = (4 * KB, 16 * KB)
PROVIDERS = ("memory", "file")
AGGREGATION = (False, True)


def _directed():
    return rmat_graph(8, seed=5, weighted=True)


def _undirected():
    return to_undirected(_directed())


#: name -> (which graph, how to run it on (edges, config)).
ALGORITHMS = {
    "BFS": ("undirected", lambda g, c: ChaosCluster(c).run(BFS(root=1), g)),
    "WCC": ("undirected", lambda g, c: ChaosCluster(c).run(WCC(), g)),
    "MCST": ("undirected", lambda g, c: run_mcst(g, c)),
    "MIS": ("undirected", lambda g, c: ChaosCluster(c).run(MIS(), g)),
    "SSSP": ("undirected", lambda g, c: ChaosCluster(c).run(SSSP(root=1), g)),
    "PR": ("directed", lambda g, c: ChaosCluster(c).run(PageRank(iterations=3), g)),
    "SCC": ("directed", lambda g, c: run_scc(g, c)),
    "Conductance": ("directed", lambda g, c: ChaosCluster(c).run(Conductance(), g)),
    "SpMV": ("directed", lambda g, c: ChaosCluster(c).run(SpMV(seed=2), g)),
    "BP": ("directed", lambda g, c: ChaosCluster(c).run(BeliefPropagation(iterations=3), g)),
    "KCore": ("undirected", lambda g, c: run_kcore_decomposition(g, c)),
}
#: The ten algorithms of Table 1, plus k-core (one more driver).
CELLS = list(
    itertools.product(ALGORITHMS, MACHINES, CHUNK_BYTES, PROVIDERS, AGGREGATION)
)


def cell_id(cell) -> str:
    name, machines, chunk_bytes, provider, aggregate = cell
    return (
        f"{name}-m{machines}-{chunk_bytes // KB}k-{provider}"
        f"-{'agg' if aggregate else 'raw'}"
    )


def _digest(values) -> str:
    digest = hashlib.sha256()
    for name in sorted(values):
        array = np.asarray(values[name])
        digest.update(f"{name}|{array.dtype}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


@contextmanager
def _recording(provider: str, root: str):
    """Collect every job a driver runs; back it with files if asked."""
    jobs = []
    original = ChaosCluster.run

    def run(self, *args, **kwargs):
        if provider == "file":
            where = os.path.join(root, f"job{len(jobs)}")
            self.backend_factory = lambda m: FileChunkStore(
                os.path.join(where, f"m{m}")
            )
        result = original(self, *args, **kwargs)
        jobs.append(result)
        return result

    with mock.patch.object(ChaosCluster, "run", run):
        yield jobs


def measure(cell, graphs) -> dict:
    name, machines, chunk_bytes, provider, aggregate = cell
    which, runner = ALGORITHMS[name]
    config = fast_config(
        machines, chunk_bytes=chunk_bytes, aggregate_updates=aggregate, seed=3
    )
    with tempfile.TemporaryDirectory() as root:
        with _recording(provider, root) as jobs:
            result = runner(graphs[which], config)
    values = result if isinstance(result, dict) else result.values
    return {
        "digest": _digest(values),
        "runtime": sum(job.runtime for job in jobs),
        "bytes_moved": sum(job.storage_bytes + job.network_bytes for job in jobs),
        "edges_streamed": sum(
            s.edges_streamed for job in jobs for s in job.iteration_stats
        ),
        "updates_written": sum(job.updates_written_records for job in jobs),
    }


@pytest.fixture(scope="module")
def graphs():
    return {"directed": _directed(), "undirected": _undirected()}


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as handle:
        return json.load(handle)


def test_pins_cover_every_cell(pins):
    assert sorted(pins) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_matches_pin(cell, graphs, pins):
    assert measure(cell, graphs) == pins[cell_id(cell)]


class TestGroupedChunks:
    """The stored layout: each edge chunk is its range of the source
    partition's edges, grouped stably by destination partition."""

    @pytest.mark.parametrize("which", ["directed", "undirected"])
    @pytest.mark.parametrize("chunk_bytes", CHUNK_BYTES)
    @pytest.mark.parametrize("machines", MACHINES)
    def test_chunk_is_its_range_grouped(self, graphs, machines, chunk_bytes, which):
        edges = graphs[which]
        cluster = ChaosCluster(fast_config(machines, chunk_bytes=chunk_bytes))
        stored = []
        original = StorageEngine.preload_chunk

        def preload(self, chunk):
            if chunk.kind is ChunkKind.EDGES:
                stored.append(chunk)
            return original(self, chunk)

        with mock.patch.object(StorageEngine, "preload_chunk", preload):
            cluster.run(PageRank(iterations=1), edges)
        layout = cluster._make_layout(edges.num_vertices, PageRank())
        # Chunks are placed partition by partition, range by range.
        step = chunk_bytes // bytes_per_edge(edges.num_vertices, edges.weighted)
        expected = [
            (p, part, start, min(start + step, part.num_edges))
            for p, part in enumerate(partition_edges(edges, layout))
            for start in range(0, part.num_edges, step)
        ]
        assert len(stored) == len(expected) > layout.num_partitions
        for chunk, (p, part, start, stop) in zip(stored, expected):
            assert (chunk.partition, chunk.records) == (p, stop - start)
            owners = layout.partition_of(chunk.payload["dst"]).astype(np.int64)
            assert np.all(np.diff(owners) >= 0)
            # Same records, and input order within each destination group.
            order = layout.partition_of(part.dst[start:stop]).argsort(kind="stable")
            for column in ("src", "dst", "weight"):
                assert np.array_equal(
                    chunk.payload[column], getattr(part, column)[start:stop][order]
                )


if __name__ == "__main__":
    built = {"directed": _directed(), "undirected": _undirected()}
    table = {cell_id(cell): measure(cell, built) for cell in CELLS}
    print(json.dumps(table, indent=1, sort_keys=True))
