"""Unit tests for the graph substrate: formats, generators, transforms."""

import numpy as np
import pytest

from repro.graph import (
    EdgeList,
    add_reverse_edges,
    bytes_per_edge,
    data_commons_like,
    degree_histogram,
    in_degrees,
    out_degrees,
    permute_vertices,
    read_edges,
    rmat_edge_count,
    rmat_graph,
    to_undirected,
    write_edges,
)
from repro.graph.rmat import RmatParameters
from repro.graph.stats import gini_coefficient


class TestEdgeList:
    def test_basic_construction(self):
        edges = EdgeList(num_vertices=4, src=[0, 1], dst=[2, 3])
        assert edges.num_edges == 2
        assert not edges.weighted

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=4, src=[0, 1], dst=[2])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=2, src=[0], dst=[5])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=2, src=[-1], dst=[0])

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            EdgeList(num_vertices=4, src=[0], dst=[1], weight=[0.5, 0.6])

    def test_storage_bytes_compact_format(self):
        edges = EdgeList(num_vertices=100, src=[0, 1], dst=[2, 3])
        assert edges.storage_bytes() == 2 * 8  # 4+4 bytes per edge

    def test_storage_bytes_weighted(self):
        edges = EdgeList(
            num_vertices=100, src=[0], dst=[2], weight=[0.5]
        )
        assert edges.storage_bytes() == 12

    def test_bytes_per_edge_non_compact(self):
        assert bytes_per_edge(2**33, weighted=False) == 16
        assert bytes_per_edge(2**33, weighted=True) == 24

    def test_subset_preserves_weights(self):
        edges = EdgeList(
            num_vertices=10, src=[0, 1, 2], dst=[3, 4, 5], weight=[1.0, 2.0, 3.0]
        )
        sub = edges.subset(np.array([0, 2]))
        assert list(sub.src) == [0, 2]
        assert list(sub.weight) == [1.0, 3.0]

    def test_shuffled_is_permutation(self):
        edges = EdgeList(num_vertices=10, src=np.arange(9), dst=np.arange(1, 10))
        shuffled = edges.shuffled(np.random.default_rng(0))
        assert sorted(zip(shuffled.src, shuffled.dst)) == sorted(
            zip(edges.src, edges.dst)
        )


class TestBinaryFormat:
    def test_roundtrip_unweighted(self, tmp_path):
        edges = rmat_graph(6, seed=1)
        path = str(tmp_path / "edges.bin")
        size = write_edges(edges, path)
        assert size == edges.storage_bytes()
        loaded = read_edges(path, edges.num_vertices, weighted=False)
        assert np.array_equal(loaded.src, edges.src)
        assert np.array_equal(loaded.dst, edges.dst)

    def test_roundtrip_weighted(self, tmp_path):
        edges = rmat_graph(6, seed=1, weighted=True)
        path = str(tmp_path / "edges.bin")
        write_edges(edges, path)
        loaded = read_edges(path, edges.num_vertices, weighted=True)
        # Compact format stores float32 weights.
        assert np.allclose(loaded.weight, edges.weight, atol=1e-6)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 13)
        with pytest.raises(ValueError, match="not a multiple"):
            read_edges(str(path), 100, weighted=False)


class TestRmat:
    def test_sizes_follow_scale(self):
        graph = rmat_graph(10, seed=0)
        assert graph.num_vertices == 1024
        assert graph.num_edges == rmat_edge_count(10) == 16384

    def test_deterministic_for_seed(self):
        a = rmat_graph(8, seed=3)
        b = rmat_graph(8, seed=3)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a = rmat_graph(8, seed=3)
        b = rmat_graph(8, seed=4)
        assert not np.array_equal(a.src, b.src)

    def test_degree_skew_present(self):
        graph = rmat_graph(12, seed=0)
        gini = gini_coefficient(out_degrees(graph))
        assert gini > 0.4, "RMAT should be heavily skewed"

    def test_unpermuted_low_ids_dominate(self):
        """Raw RMAT concentrates edges at low vertex ids (quadrant a)."""
        graph = rmat_graph(12, seed=0, permute=False)
        half = graph.num_vertices // 2
        low = int((graph.src < half).sum())
        assert low > 0.6 * graph.num_edges

    def test_permutation_removes_id_correlation(self):
        graph = rmat_graph(12, seed=0, permute=True)
        half = graph.num_vertices // 2
        low = int((graph.src < half).sum())
        assert 0.4 * graph.num_edges < low < 0.6 * graph.num_edges

    def test_weights_in_unit_interval(self):
        graph = rmat_graph(8, seed=0, weighted=True)
        assert (graph.weight > 0).all() and (graph.weight <= 1).all()

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            RmatParameters(a=0.9, b=0.3, c=0.1, d=0.1)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            rmat_edge_count(-1)


class TestDataCommonsLike:
    def test_average_degree_close_to_target(self):
        graph = data_commons_like(5000, avg_degree=10.0, seed=1)
        assert graph.num_edges / graph.num_vertices == pytest.approx(10.0, rel=0.2)

    def test_no_self_links(self):
        graph = data_commons_like(2000, avg_degree=8.0, seed=2)
        assert (graph.src != graph.dst).all()

    def test_in_degree_skew(self):
        graph = data_commons_like(5000, avg_degree=10.0, seed=3)
        gini = gini_coefficient(in_degrees(graph))
        assert gini > 0.3

    def test_deterministic(self):
        a = data_commons_like(1000, seed=7)
        b = data_commons_like(1000, seed=7)
        assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)

    def test_too_few_pages_rejected(self):
        with pytest.raises(ValueError):
            data_commons_like(1)


class TestConvert:
    def test_add_reverse_doubles_edges(self):
        graph = rmat_graph(6, seed=0, weighted=True)
        doubled = add_reverse_edges(graph)
        assert doubled.num_edges == 2 * graph.num_edges

    def test_to_undirected_symmetric(self):
        graph = rmat_graph(8, seed=1, weighted=True)
        undirected = to_undirected(graph)
        forward = set(zip(undirected.src, undirected.dst))
        assert all((d, s) in forward for s, d in forward)

    def test_to_undirected_weights_symmetric(self):
        graph = rmat_graph(8, seed=1, weighted=True)
        undirected = to_undirected(graph)
        weight_of = {}
        for s, d, w in zip(undirected.src, undirected.dst, undirected.weight):
            weight_of[(s, d)] = w
        for (s, d), w in weight_of.items():
            assert weight_of[(d, s)] == w

    def test_to_undirected_drops_self_loops(self):
        graph = EdgeList(num_vertices=4, src=[0, 1, 2], dst=[0, 2, 1])
        undirected = to_undirected(graph)
        assert (undirected.src != undirected.dst).all()
        assert undirected.num_edges == 2  # single undirected edge {1,2}

    def test_to_undirected_keeps_min_weight_of_parallels(self):
        graph = EdgeList(
            num_vertices=3,
            src=[0, 1, 0],
            dst=[1, 0, 1],
            weight=[5.0, 2.0, 7.0],
        )
        undirected = to_undirected(graph)
        assert undirected.num_edges == 2
        assert set(undirected.weight) == {2.0}

    def test_permute_preserves_structure(self):
        graph = rmat_graph(7, seed=2)
        permuted = permute_vertices(graph, seed=1)
        assert permuted.num_edges == graph.num_edges
        assert sorted(np.bincount(permuted.src, minlength=128)) == sorted(
            np.bincount(graph.src, minlength=128)
        )


class TestStats:
    def test_degrees(self):
        edges = EdgeList(num_vertices=4, src=[0, 0, 1], dst=[1, 2, 2])
        assert list(out_degrees(edges)) == [2, 1, 0, 0]
        assert list(in_degrees(edges)) == [0, 1, 2, 0]

    def test_degree_histogram(self):
        hist = degree_histogram(np.array([0, 1, 1, 3]))
        assert hist == {0: 1, 1: 2, 3: 1}

    def test_gini_uniform_is_zero(self):
        assert gini_coefficient(np.full(100, 5)) == pytest.approx(0.0, abs=1e-9)

    def test_gini_concentrated_near_one(self):
        degrees = np.zeros(1000)
        degrees[0] = 10_000
        assert gini_coefficient(degrees) > 0.99
