"""Unit tests for streaming partitions (Section 3)."""

import numpy as np
import pytest

from repro.graph import EdgeList, rmat_graph
from repro.partition import (
    PartitionLayout,
    choose_partition_count,
    partition_edges,
    preprocess,
)


class TestPartitionLayout:
    def test_even_split(self):
        layout = PartitionLayout.even(10, 3)
        assert list(layout.boundaries) == [0, 4, 7, 10]
        assert layout.vertex_count(0) == 4
        assert layout.vertex_count(2) == 3

    def test_partition_of_vectorized(self):
        layout = PartitionLayout.even(10, 2)
        result = layout.partition_of(np.array([0, 4, 5, 9]))
        assert list(result) == [0, 0, 1, 1]

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_partition_of_rejects_ids_outside_the_graph(self, bad):
        """It used to answer -1 for a negative id and 2 for id 10."""
        with pytest.raises(ValueError, match=rf"{bad} is outside \[0, 10\)"):
            PartitionLayout.even(10, 2).partition_of(np.array([bad]))

    def test_owner_table_is_built_on_first_use(self):
        """A capacity-mode layout answers sizes and offsets without a
        table of 2**36 entries; a routing layout builds the narrowest."""
        layout = PartitionLayout.even(1 << 36, 64)
        assert layout.vertex_count(63) == 1 << 30
        assert layout.start(1) == 1 << 30
        assert list(layout.to_local(1, np.array([1 << 30]))) == [0]
        assert "_owner" not in vars(layout)
        for partitions, dtype in [(1, np.uint8), (256, np.uint8), (257, np.uint16)]:
            layout = PartitionLayout.even(1000, partitions)
            layout.route(np.arange(1000))
            assert vars(layout)["_owner"].dtype == dtype

    def test_vertex_range(self):
        layout = PartitionLayout.even(10, 2)
        assert list(layout.vertex_range(1)) == [5, 6, 7, 8, 9]

    def test_to_local(self):
        layout = PartitionLayout.even(10, 2)
        local = layout.to_local(1, np.array([5, 9]))
        assert list(local) == [0, 4]

    def test_invalid_boundaries_rejected(self):
        with pytest.raises(ValueError):
            PartitionLayout(10, 2, np.array([0, 5, 9]))  # does not span
        with pytest.raises(ValueError):
            PartitionLayout(10, 2, np.array([0, 7, 5]))  # decreasing

    def test_more_partitions_than_vertices(self):
        layout = PartitionLayout.even(2, 4)
        counts = [layout.vertex_count(p) for p in range(4)]
        assert sum(counts) == 2


    @pytest.mark.parametrize(
        "num_vertices, partitions", [(10, 1), (10, 3), (2, 4), (5000, 300)]
    )
    def test_route_is_the_stable_grouping_by_partition(
        self, num_vertices, partitions
    ):
        """``route`` == stable argsort of a search of the boundaries +
        a search for the cuts (independent of the owner table), for one
        radix width on each side of 256 partitions and for layouts with
        empty partitions."""
        layout = PartitionLayout.even(num_vertices, partitions)
        ids = np.random.default_rng(3).integers(0, num_vertices, size=4000)
        order, cut_points = layout.route(ids)
        target = np.searchsorted(layout.boundaries, ids, side="right") - 1
        expected = np.argsort(target, kind="stable")
        assert np.array_equal(order, expected)
        assert np.array_equal(
            cut_points,
            np.searchsorted(target[expected], np.arange(partitions + 1)),
        )

    def test_group_skips_the_sort_of_grouped_ids(self):
        layout = PartitionLayout.even(10, 3)  # [0, 4) [4, 7) [7, 10)
        order, cut_points = layout.group(np.array([3, 0, 2, 8, 9, 7]))
        assert order is None
        assert list(cut_points) == [0, 3, 3, 6]

    def test_group_falls_back_to_route(self):
        layout = PartitionLayout.even(10, 3)
        ids = np.array([8, 3, 5, 0, 9])
        order, cut_points = layout.group(ids)
        expected = layout.route(ids)
        assert list(order) == list(expected[0]) == [1, 3, 2, 0, 4]
        assert list(cut_points) == list(expected[1]) == [0, 2, 3, 5]

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_group_rejects_ids_outside_the_graph(self, bad):
        with pytest.raises(ValueError, match=rf"{bad} is outside \[0, 10\)"):
            PartitionLayout.even(10, 2).group(np.array([3, 7, bad]))

    def test_route_of_nothing(self):
        order, cut_points = PartitionLayout.even(10, 3).route(np.arange(0))
        assert len(order) == 0
        assert list(cut_points) == [0, 0, 0, 0]

    @pytest.mark.parametrize("bad", [-1, 10, 1 << 40])
    def test_route_rejects_ids_outside_the_graph(self, bad):
        layout = PartitionLayout.even(10, 2)
        with pytest.raises(ValueError, match=rf"{bad} is outside \[0, 10\)"):
            layout.route(np.array([3, bad, 7]))

    @pytest.mark.parametrize(
        "dtype, bad",
        [
            (np.int32, -1),
            (np.int64, -(1 << 40)),
            (np.int32, 10),
            (np.int64, 10),
            (np.uint32, 10),
            (np.uint64, 10),
            (np.uint64, 1 << 63),
            (np.uint64, (1 << 64) - 1),
        ],
    )
    def test_route_rejects_ids_outside_the_graph_in_every_dtype(self, dtype, bad):
        """Negative signed ids, |V| itself, and uint64 ids that a cast
        to a signed index would turn negative."""
        layout = PartitionLayout.even(10, 2)
        with pytest.raises(ValueError, match=rf"{bad} is outside \[0, 10\)"):
            layout.route(np.array([3, bad, 7], dtype=dtype))


class TestChoosePartitionCount:
    def test_one_partition_when_memory_ample(self):
        assert choose_partition_count(1000, 1, 16, 10**9) == 1

    def test_multiple_of_machines(self):
        count = choose_partition_count(1000, 4, 16, 10**9)
        assert count == 4

    def test_grows_until_fits(self):
        # 1000 vertices x 16 B = 16 kB total; 3 kB memory -> need >= 6
        # partitions, rounded up to a multiple of 2 -> 6.
        count = choose_partition_count(1000, 2, 16, 3000)
        assert count % 2 == 0
        per_partition = -(-1000 // count) * 16
        assert per_partition <= 3000
        # Smallest such multiple: count-2 must NOT fit.
        if count > 2:
            previous = -(-1000 // (count - 2)) * 16
            assert previous > 3000

    def test_memory_too_small_rejected(self):
        with pytest.raises(ValueError):
            choose_partition_count(10, 1, 16, 8)


class TestPartitionEdges:
    def test_edges_follow_source_partition(self):
        graph = rmat_graph(8, seed=0)
        layout = PartitionLayout.even(graph.num_vertices, 4)
        parts = partition_edges(graph, layout)
        for p, part in enumerate(parts):
            if part.num_edges:
                assert (layout.partition_of(part.src) == p).all()

    def test_union_equals_input(self):
        graph = rmat_graph(8, seed=0, weighted=True)
        layout = PartitionLayout.even(graph.num_vertices, 4)
        parts = partition_edges(graph, layout)
        assert sum(p.num_edges for p in parts) == graph.num_edges
        merged = sorted(
            (s, d, w)
            for part in parts
            for s, d, w in zip(part.src, part.dst, part.weight)
        )
        original = sorted(zip(graph.src, graph.dst, graph.weight))
        assert merged == original

    def test_empty_partitions_allowed(self):
        edges = EdgeList(num_vertices=8, src=[0, 1], dst=[2, 3])
        layout = PartitionLayout.even(8, 4)
        parts = partition_edges(edges, layout)
        assert parts[0].num_edges == 2
        assert all(p.num_edges == 0 for p in parts[1:])


    def test_layout_smaller_than_graph_rejected(self):
        """An edge whose source no partition owns used to vanish from
        the split; now it is an error."""
        edges = EdgeList(num_vertices=8, src=[0, 7], dst=[2, 3])
        with pytest.raises(ValueError, match=r"7 is outside \[0, 4\)"):
            partition_edges(edges, PartitionLayout.even(4, 2))


class TestPreprocess:
    def test_sharded_split_equals_serial(self):
        """Parallel pre-processing must produce the same partitions."""
        graph = rmat_graph(9, seed=2, weighted=True)
        serial = preprocess(graph, machines=4, input_shards=1)
        parallel = preprocess(graph, machines=4, input_shards=7)
        for a, b in zip(
            serial.partition_edge_lists, parallel.partition_edge_lists
        ):
            assert sorted(zip(a.src, a.dst, a.weight)) == sorted(
                zip(b.src, b.dst, b.weight)
            )

    def test_total_edges_preserved(self):
        graph = rmat_graph(9, seed=2)
        result = preprocess(graph, machines=3)
        assert result.total_edges() == graph.num_edges

    def test_partition_count_respects_memory(self):
        graph = rmat_graph(10, seed=0)  # 1024 vertices
        result = preprocess(
            graph, machines=2, vertex_state_bytes=16, memory_bytes=2048
        )
        layout = result.layout
        assert layout.num_partitions % 2 == 0
        for p in range(layout.num_partitions):
            assert layout.vertex_count(p) * 16 <= 2048
