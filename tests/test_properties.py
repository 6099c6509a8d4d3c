"""Property-based tests (hypothesis) for core data structures and
invariants, plus randomized end-to-end algorithm checks."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batching import request_window, utilization, utilization_limit
from repro.core.runtime import rmat_partition_fractions
from repro.core.stealing import should_accept_steal
from repro.graph import EdgeList, to_undirected
from repro.graph.stats import in_degrees, out_degrees
from repro.partition import PartitionLayout, choose_partition_count, partition_edges
from repro.store.chunk import split_into_chunks

SUPPRESS = [HealthCheck.too_slow]


# -- strategies -------------------------------------------------------------


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=60, weighted=None):
    num_vertices = draw(st.integers(min_value=2, max_value=max_vertices))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_vertices - 1),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    dst = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_vertices - 1),
            min_size=num_edges,
            max_size=num_edges,
        )
    )
    if weighted is None:
        weighted = draw(st.booleans())
    weight = None
    if weighted:
        weight = draw(
            st.lists(
                st.floats(
                    min_value=0.001,
                    max_value=100.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=num_edges,
                max_size=num_edges,
            )
        )
    return EdgeList(num_vertices=num_vertices, src=src, dst=dst, weight=weight)


# -- data structure properties ------------------------------------------------


class TestEdgeListProperties:
    @given(edges=edge_lists())
    @settings(max_examples=50, suppress_health_check=SUPPRESS)
    def test_degree_sums_equal_edge_count(self, edges):
        assert out_degrees(edges).sum() == edges.num_edges
        assert in_degrees(edges).sum() == edges.num_edges

    @given(edges=edge_lists(), seed=st.integers(0, 2**16))
    @settings(max_examples=30, suppress_health_check=SUPPRESS)
    def test_shuffle_preserves_multiset(self, edges, seed):
        shuffled = edges.shuffled(np.random.default_rng(seed))
        assert sorted(zip(shuffled.src, shuffled.dst)) == sorted(
            zip(edges.src, edges.dst)
        )


class TestUndirectedProperties:
    @given(edges=edge_lists())
    @settings(max_examples=50, suppress_health_check=SUPPRESS)
    def test_symmetry_no_loops_no_duplicates(self, edges):
        undirected = to_undirected(edges)
        pairs = list(zip(undirected.src, undirected.dst))
        pair_set = set(pairs)
        assert len(pairs) == len(pair_set), "no duplicate records"
        assert all(s != d for s, d in pairs), "no self loops"
        assert all((d, s) in pair_set for s, d in pairs), "symmetric"

    @given(edges=edge_lists(weighted=True))
    @settings(max_examples=50, suppress_health_check=SUPPRESS)
    def test_weight_symmetry_and_minimality(self, edges):
        undirected = to_undirected(edges)
        weight_of = {
            (s, d): w
            for s, d, w in zip(undirected.src, undirected.dst, undirected.weight)
        }
        for (s, d), w in weight_of.items():
            assert weight_of[(d, s)] == w
        # Each kept weight is the minimum over the original parallels.
        from collections import defaultdict

        minimum = defaultdict(lambda: np.inf)
        for s, d, w in zip(edges.src, edges.dst, edges.weight):
            if s != d:
                key = (min(s, d), max(s, d))
                minimum[key] = min(minimum[key], w)
        for (s, d), w in weight_of.items():
            assert w == pytest.approx(minimum[(min(s, d), max(s, d))])


class TestPartitionProperties:
    @given(edges=edge_lists(), partitions=st.integers(1, 8))
    @settings(max_examples=50, suppress_health_check=SUPPRESS)
    def test_split_is_a_partition_of_the_edges(self, edges, partitions):
        layout = PartitionLayout.even(edges.num_vertices, partitions)
        parts = partition_edges(edges, layout)
        assert sum(p.num_edges for p in parts) == edges.num_edges
        merged = sorted(
            (s, d) for part in parts for s, d in zip(part.src, part.dst)
        )
        assert merged == sorted(zip(edges.src, edges.dst))

    @given(
        num_vertices=st.integers(1, 10_000),
        machines=st.integers(1, 16),
        vertex_bytes=st.integers(1, 64),
        memory_multiplier=st.integers(1, 100),
    )
    @settings(max_examples=50, suppress_health_check=SUPPRESS)
    def test_partition_count_rule(
        self, num_vertices, machines, vertex_bytes, memory_multiplier
    ):
        memory = vertex_bytes * memory_multiplier
        count = choose_partition_count(num_vertices, machines, vertex_bytes, memory)
        assert count % machines == 0
        per_partition = -(-num_vertices // count)
        assert per_partition * vertex_bytes <= memory
        # Minimality: the next smaller multiple must not fit (unless
        # count is already the smallest multiple).
        if count > machines:
            smaller = count - machines
            assert -(-num_vertices // smaller) * vertex_bytes > memory

    @given(
        num_vertices=st.integers(1, 1000),
        partitions=st.integers(1, 20),
        vertex=st.integers(0, 999),
    )
    @settings(max_examples=50, suppress_health_check=SUPPRESS)
    def test_partition_of_matches_ranges(self, num_vertices, partitions, vertex):
        if vertex >= num_vertices:
            vertex = vertex % num_vertices
        layout = PartitionLayout.even(num_vertices, partitions)
        p = int(layout.partition_of(np.array([vertex]))[0])
        assert vertex in layout.vertex_range(p)

    @given(
        num_vertices=st.integers(1, 3000),
        partitions=st.sampled_from([1, 255, 256, 257]),
        dtype=st.sampled_from([np.int32, np.int64, np.uint32, np.uint64]),
        count=st.integers(0, 600),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, suppress_health_check=SUPPRESS)
    def test_route_is_the_stable_grouping_by_boundary_search(
        self, num_vertices, partitions, dtype, count, seed
    ):
        """``route`` over random, uneven layouts (empty partitions
        included) and every id width equals a stable argsort of a search
        of the boundaries, across the 8-bit -> 16-bit key width."""
        rng = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, num_vertices + 1, size=partitions - 1))
        layout = PartitionLayout(
            num_vertices, partitions, np.concatenate([[0], cuts, [num_vertices]])
        )
        ids = rng.integers(0, num_vertices, size=count).astype(dtype)
        order, cut_points = layout.route(ids)
        target = np.searchsorted(layout.boundaries, ids, side="right") - 1
        expected = np.argsort(target, kind="stable")
        assert np.array_equal(order, expected)
        assert np.array_equal(
            cut_points, np.searchsorted(target[expected], np.arange(partitions + 1))
        )
        assert np.array_equal(layout.partition_of(ids), target)


class TestChunkProperties:
    @given(total=st.integers(0, 10**5), chunk=st.integers(1, 10**4))
    @settings(max_examples=100, deadline=None)
    def test_split_covers_total_exactly(self, total, chunk):
        sizes = split_into_chunks(total, chunk)
        assert sum(sizes) == total
        assert all(0 < s <= chunk for s in sizes)
        # Only the last chunk may be short.
        assert all(s == chunk for s in sizes[:-1])


class TestBatchingProperties:
    @given(m=st.integers(1, 500), k=st.integers(1, 50))
    @settings(max_examples=100)
    def test_utilization_bounds(self, m, k):
        rho = utilization(m, k)
        assert 0.0 < rho <= 1.0
        assert rho >= utilization_limit(k) - 1e-12

    @given(m=st.integers(2, 100), k=st.integers(1, 20))
    @settings(max_examples=100)
    def test_utilization_monotone_in_k(self, m, k):
        assert utilization(m, k + 1) >= utilization(m, k)

    @given(
        k=st.integers(1, 20),
        rtt=st.floats(0, 1e-2, allow_nan=False),
        latency=st.floats(1e-7, 1e-2, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_window_at_least_k(self, k, rtt, latency):
        assert request_window(k, rtt, latency) >= k


class TestStealProperties:
    @given(
        vertex_bytes=st.integers(0, 10**9),
        remaining=st.integers(0, 10**12),
        workers=st.integers(1, 64),
    )
    @settings(max_examples=100)
    def test_monotone_in_workers(self, vertex_bytes, remaining, workers):
        """If rejected at H workers, rejected at H+1 too."""
        now = should_accept_steal(vertex_bytes, remaining, workers)
        later = should_accept_steal(vertex_bytes, remaining, workers + 1)
        if not now.accept:
            assert not later.accept

    @given(
        vertex_bytes=st.integers(0, 10**9),
        remaining=st.integers(0, 10**12),
        workers=st.integers(1, 64),
        shrink=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_monotone_in_remaining_data(
        self, vertex_bytes, remaining, workers, shrink
    ):
        """If rejected with D remaining, rejected with any smaller D."""
        now = should_accept_steal(vertex_bytes, remaining, workers)
        later = should_accept_steal(vertex_bytes, remaining * shrink, workers)
        if not now.accept:
            assert not later.accept


class TestRmatFractionProperties:
    @given(partitions=st.integers(1, 64))
    @settings(max_examples=50)
    def test_fractions_form_distribution(self, partitions):
        fractions = rmat_partition_fractions(partitions)
        assert len(fractions) == partitions
        assert fractions.sum() == pytest.approx(1.0)
        assert (fractions >= 0).all()
        # Skew decreases with partition index blocks (low ids dominate).
        if partitions >= 4:
            assert fractions[0] >= fractions[-1]


# -- randomized end-to-end checks ----------------------------------------------


class TestRandomizedAlgorithms:
    @given(edges=edge_lists(max_vertices=16, max_edges=40, weighted=True))
    @settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
    def test_wcc_matches_networkx_on_random_graphs(self, edges):
        import networkx as nx

        from repro.algorithms import WCC
        from repro.core.runtime import run_algorithm
        from tests.conftest import fast_config

        undirected = to_undirected(edges)
        result = run_algorithm(WCC(), undirected, fast_config(2))
        graph = nx.Graph()
        graph.add_nodes_from(range(edges.num_vertices))
        graph.add_edges_from(zip(undirected.src, undirected.dst))
        labels = result.values["label"]
        for component in nx.connected_components(graph):
            assert len({labels[v] for v in component}) == 1
            assert labels[min(component)] == min(component)

    @given(edges=edge_lists(max_vertices=14, max_edges=30, weighted=True))
    @settings(max_examples=15, deadline=None, suppress_health_check=SUPPRESS)
    def test_mis_invariants_on_random_graphs(self, edges):
        from repro.algorithms import MIS
        from repro.core.runtime import run_algorithm
        from tests.conftest import fast_config

        undirected = to_undirected(edges)
        result = run_algorithm(MIS(), undirected, fast_config(2))
        status = result.values["status"]
        in_set = status == 1
        assert (status != 0).all()
        assert not (in_set[undirected.src] & in_set[undirected.dst]).any()
        neighbour = np.zeros(undirected.num_vertices, dtype=bool)
        neighbour[undirected.dst[in_set[undirected.src]]] = True
        assert neighbour[status == 2].all()

    @given(edges=edge_lists(max_vertices=12, max_edges=30, weighted=True))
    @settings(max_examples=10, deadline=None, suppress_health_check=SUPPRESS)
    def test_mst_weight_matches_networkx(self, edges):
        import networkx as nx

        from repro.algorithms import run_mcst
        from tests.conftest import fast_config

        undirected = to_undirected(edges)
        result = run_mcst(undirected, fast_config(2))
        graph = nx.Graph()
        graph.add_nodes_from(range(edges.num_vertices))
        graph.add_weighted_edges_from(
            zip(undirected.src, undirected.dst, undirected.weight)
        )
        expected = sum(
            d["weight"] for *_pair, d in nx.minimum_spanning_edges(graph, data=True)
        )
        assert result.values["mst_weight"] == pytest.approx(expected)
