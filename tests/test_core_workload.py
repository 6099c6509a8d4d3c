"""Unit tests for the workload layer (data-plane semantics)."""

import numpy as np
import pytest

from repro.algorithms import WCC, PageRank
from repro.core.compute import ComputationEngine
from repro.core.gas import GraphContext, state_slice
from repro.core.runtime import ChaosCluster
from repro.core.workload import DataWorkload, ModelWorkload
from repro.graph import rmat_graph
from repro.graph.stats import out_degrees
from repro.partition.streaming import PartitionLayout
from repro.perf.profiles import fixed_profile
from repro.store.chunk import Chunk, ChunkKind
from repro.store.integrity import seal_chunk
from tests.conftest import fast_config


def _workload(scale=6, partitions=4, iterations=2):
    graph = rmat_graph(scale, seed=1)
    layout = PartitionLayout.even(graph.num_vertices, partitions)
    ctx = GraphContext(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        weighted=False,
        out_degrees=out_degrees(graph),
    )
    return graph, layout, DataWorkload(PageRank(iterations=iterations), layout, ctx)


def _edge_chunk(graph, layout, partition, grouped=False):
    rows = np.flatnonzero(layout.partition_of(graph.src) == partition)
    if grouped:  # the stored layout: by destination partition, stably
        rows = rows[layout.partition_of(graph.dst[rows]).argsort(kind="stable")]
    return Chunk(
        partition=partition,
        kind=ChunkKind.EDGES,
        size=len(rows) * 8,
        payload={"src": graph.src[rows], "dst": graph.dst[rows]},
        records=len(rows),
    )


class TestStateSlice:
    def test_views_share_memory(self):
        values = {"x": np.arange(10.0)}
        view = state_slice(values, 3, 7)
        view["x"][0] = 99.0
        assert values["x"][3] == 99.0

    def test_slice_bounds(self):
        values = {"x": np.arange(10.0)}
        view = state_slice(values, 2, 5)
        assert list(view["x"]) == [2.0, 3.0, 4.0]


class TestDataWorkload:
    def test_scatter_bins_by_destination_partition(self):
        graph, layout, workload = _workload()
        chunk = _edge_chunk(graph, layout, 0)
        batches = workload.scatter_chunk(0, chunk, iteration=0)
        for batch in batches:
            targets = layout.partition_of(batch.payload["dst"])
            assert (targets == batch.partition).all()
        assert sum(b.count for b in batches) == chunk.records

    def test_out_of_range_destinations_are_an_error(self):
        """A scatter that emits ``dst == num_vertices`` or a negative id
        used to lose those updates silently (4 produced, 2 routed)."""

        class Stray(WCC):
            def scatter(self, values, src_local, dst, weight, iteration):
                return self.emit, np.zeros(len(self.emit), dtype=np.int64)

        layout = PartitionLayout.even(8, 2)
        ctx = GraphContext(num_vertices=8, num_edges=2, weighted=False)
        algorithm = Stray()
        workload = DataWorkload(algorithm, layout, ctx)
        chunk = Chunk(
            partition=0,
            kind=ChunkKind.EDGES,
            size=16,
            payload={"src": np.array([0, 1]), "dst": np.array([2, 3])},
            records=2,
        )
        algorithm.emit = np.array([2, 7, 0, 5])
        assert sum(b.count for b in workload.scatter_chunk(0, chunk, 0)) == 4
        for stray in (8, -1):
            algorithm.emit = np.array([2, stray, 0, 5])
            with pytest.raises(
                ValueError, match=rf"vertex id {stray} is outside \[0, 8\)"
            ):
                workload.scatter_chunk(0, chunk, 0)

    def test_batch_bytes_use_algorithm_update_size(self):
        graph, layout, workload = _workload()
        chunk = _edge_chunk(graph, layout, 0)
        for batch in workload.scatter_chunk(0, chunk, 0):
            assert batch.nbytes == batch.count * workload.algorithm.update_bytes

    def test_gather_and_apply_roundtrip(self):
        graph, layout, workload = _workload(iterations=1)
        # Scatter everything, gather per partition, apply.
        batches_by_partition = {}
        for p in range(layout.num_partitions):
            for batch in workload.scatter_chunk(p, _edge_chunk(graph, layout, p), 0):
                batches_by_partition.setdefault(batch.partition, []).append(batch)
        for p in range(layout.num_partitions):
            accum = workload.begin_gather(p)
            for batch in batches_by_partition.get(p, []):
                chunk = Chunk(
                    partition=p,
                    kind=ChunkKind.UPDATES,
                    size=batch.nbytes,
                    payload=batch.payload,
                    records=batch.count,
                )
                workload.gather_chunk(p, accum, chunk)
            workload.apply_partition(p, accum, 0)
        from tests.references import reference_pagerank

        assert np.allclose(
            workload.values["rank"], reference_pagerank(graph, iterations=1)
        )

    def test_split_accumulators_merge_to_same_result(self):
        """Gather in two halves + merge == gather in one go (the
        stealer-accumulator protocol's core invariant).

        Accumulator handles buffer raw updates and the master folds
        them at apply time with a fold that is exact in any order, so
        the invariant is that the split-and-merged buffer holds the same
        updates and folds to the same bits as the one-shot buffer.
        """
        graph, layout, workload = _workload()
        batches = []
        for p in range(layout.num_partitions):
            batches += workload.scatter_chunk(p, _edge_chunk(graph, layout, p), 0)
        target = 0
        mine = [b for b in batches if b.partition == target]
        if len(mine) < 2:
            pytest.skip("need at least two batches")

        def as_chunk(batch):
            return Chunk(
                partition=target,
                kind=ChunkKind.UPDATES,
                size=batch.nbytes,
                payload=batch.payload,
                records=batch.count,
            )

        whole = workload.begin_gather(target)
        for batch in mine:
            workload.gather_chunk(target, whole, as_chunk(batch))

        master = workload.begin_gather(target)
        stealer = workload.begin_gather(target)
        half = len(mine) // 2
        for batch in mine[:half]:
            workload.gather_chunk(target, master, as_chunk(batch))
        for batch in mine[half:]:
            workload.gather_chunk(target, stealer, as_chunk(batch))
        workload.merge_accumulators(target, master, stealer)
        folded = []
        for buffer in (whole, master):
            dst, values = buffer.drain()
            accum = workload.algorithm.make_accumulator(
                layout.vertex_count(target)
            )
            workload.algorithm.gather(accum, dst, values)
            folded.append((sorted(zip(dst, values)), accum.tobytes()))
        assert folded[0] == folded[1]

    def test_vertex_and_accum_bytes(self):
        _graph, layout, workload = _workload()
        for p in range(layout.num_partitions):
            assert workload.vertex_set_bytes(p) == layout.vertex_count(p) * 8
            assert workload.accum_bytes(p) == layout.vertex_count(p) * 4

    def test_rejects_wrong_state_length(self):
        graph = rmat_graph(5, seed=1)
        layout = PartitionLayout.even(graph.num_vertices, 2)

        class Broken(PageRank):
            def init_values(self, ctx):
                return {"rank": np.zeros(3)}

        ctx = GraphContext(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            weighted=False,
            out_degrees=out_degrees(graph),
        )
        with pytest.raises(ValueError, match="length"):
            DataWorkload(Broken(iterations=1), layout, ctx)

    def test_phantom_chunk_rejected(self):
        _graph, _layout, workload = _workload()
        phantom = Chunk(partition=0, kind=ChunkKind.EDGES, size=10, records=1)
        with pytest.raises(ValueError, match="payload"):
            workload.scatter_chunk(0, phantom, 0)


def _columns(batches):
    return [column for batch in batches for column in batch.payload.values()]


def _buffer(column):
    """The array that owns ``column``'s memory (itself unless a view):
    two disjoint slices of one array do not share memory, but they
    share this buffer and keep all of it alive."""
    while isinstance(column.base, np.ndarray):
        column = column.base
    return column


def _shares_buffer(a, b):
    return np.shares_memory(_buffer(a), _buffer(b))


class TestPreparedScatterState:
    """PageRank scatters ``rank / degree`` prepared once per partition;
    every write of the partition's state drops it, so the next scatter
    reads the written state."""

    @staticmethod
    def _updates(workload, graph, layout):
        batches = workload.scatter_chunk(0, _edge_chunk(graph, layout, 0), 0)
        return np.concatenate([b.payload["value"] for b in batches])

    @pytest.mark.parametrize("write", ["apply", "restore", "reset"])
    def test_a_state_write_drops_the_prepared_state(self, write):
        graph, layout, workload = _workload()
        initial = self._updates(workload, graph, layout)  # prepares p0
        if write == "apply":
            workload.apply_partition(0, None, 0)
        else:
            snapshot = {
                name: array.copy()
                for name, array in workload._partition_state(0).items()
            }
            snapshot["rank"] *= 3
            workload.restore_partition(0, snapshot)
            if write == "reset":
                self._updates(workload, graph, layout)  # prepares the restored
                workload.reset_to_initial()
        fresh = _workload()[2]
        for name, array in fresh.values.items():
            array[:] = workload.values[name]
        written = self._updates(workload, graph, layout)
        assert np.array_equal(written, self._updates(fresh, graph, layout))
        assert np.array_equal(written, initial) == (write == "reset")


class TestBatchOwnership:
    """``store/integrity.py``: a producer must not keep a writable base
    of a sealed column alive.  Scatter slices its (grouped or once
    permuted) output per partition, so every slice must be a copy."""

    def test_scatter_batches_share_no_memory(self):
        graph, layout, workload = _workload()
        for p in range(layout.num_partitions):
            chunk = _edge_chunk(graph, layout, p)
            columns = _columns(workload.scatter_chunk(p, chunk, 0))
            assert len(columns) > 2  # more than one batch
            for i, column in enumerate(columns):
                for other in columns[i + 1 :] + list(chunk.payload.values()):
                    assert not _shares_buffer(column, other)

    def test_grouped_chunk_batches_share_no_memory(self):
        """A stored chunk is grouped by destination: its output is sliced
        without a permutation, and the slices are still copies."""
        graph, layout, workload = _workload()
        for p in range(layout.num_partitions):
            chunk = seal_chunk(_edge_chunk(graph, layout, p, grouped=True))
            batches = workload.scatter_chunk(p, chunk, 0)
            columns = _columns(batches)
            assert len(columns) > 2
            for i, column in enumerate(columns):
                for other in columns[i + 1 :] + list(chunk.payload.values()):
                    assert not _shares_buffer(column, other)
            assert np.array_equal(
                np.concatenate([b.payload["dst"] for b in batches]),
                chunk.payload["dst"],
            )

    def test_sealed_update_chunks_share_no_memory_with_batches(
        self, monkeypatch
    ):
        sealed = []
        update_chunk = ComputationEngine._update_chunk

        def recording(engine, partition, batches, nbytes, count):
            chunk = update_chunk(engine, partition, batches, nbytes, count)
            sealed.append((batches, chunk))
            return chunk

        monkeypatch.setattr(ComputationEngine, "_update_chunk", recording)
        # One partition: every flush seals a single batch.
        for config in (fast_config(2), fast_config(1, partitions_per_machine=1)):
            ChaosCluster(config).run(PageRank(iterations=2), rmat_graph(8, seed=1))
        assert any(len(batches) == 1 for batches, _ in sealed)
        assert any(len(batches) > 1 for batches, _ in sealed)
        for batches, chunk in sealed:
            for column in chunk.payload.values():
                assert not column.flags.writeable
                for other in _columns(batches):
                    assert not _shares_buffer(column, other)


class TestModelWorkload:
    def _model(self, partitions=4, factor=1.0, iterations=3, pass_edges=1000):
        layout = PartitionLayout.even(1024, partitions)
        return ModelWorkload(
            PageRank(iterations=iterations),
            layout,
            fixed_profile(iterations, update_factor=factor),
            pass_edges,
        )

    def test_update_volume_follows_factor(self):
        workload = self._model(factor=0.5)
        chunk = Chunk(partition=0, kind=ChunkKind.EDGES, size=8000, records=1000)
        batches = workload.scatter_chunk(0, chunk, iteration=0)
        produced = sum(b.count for b in batches)
        assert produced == pytest.approx(500, rel=0.05)
        assert all(b.payload is None for b in batches)

    def test_pass_emits_exactly_its_total(self):
        # 0.3 updates per edge: no chunk's share is whole, but the
        # remainder carries, so each pass emits exactly 300, and each
        # chunk's count splits over the partitions with none lost.
        workload = self._model(partitions=3, factor=0.3)
        for iteration in (0, 1):
            emitted = []
            for records in (333, 333, 334):
                chunk = Chunk(
                    partition=0, kind=ChunkKind.EDGES, size=8 * records,
                    records=records,
                )
                batches = workload.scatter_chunk(0, chunk, iteration)
                emitted.append(sum(b.count for b in batches))
                assert max(b.count for b in batches) - min(
                    b.count for b in batches
                ) <= 1
            assert emitted == [99, 100, 101]

    def test_zero_factor_produces_nothing(self):
        workload = self._model(factor=0.0)
        chunk = Chunk(partition=0, kind=ChunkKind.EDGES, size=800, records=100)
        assert workload.scatter_chunk(0, chunk, 0) == []

    def test_finished_follows_profile(self):
        workload = self._model(iterations=3)
        assert not workload.finished(0, None)
        assert not workload.finished(1, None)
        assert workload.finished(2, None)

    def test_gather_and_apply_are_noops(self):
        workload = self._model()
        accum = workload.begin_gather(0)
        assert accum is None
        chunk = Chunk(partition=0, kind=ChunkKind.UPDATES, size=80, records=10)
        workload.gather_chunk(0, accum, chunk)
        assert workload.apply_partition(0, accum, 0) == 0
