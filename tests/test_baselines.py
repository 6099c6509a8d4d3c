"""Tests for the X-Stream, Giraph and PowerGraph baselines."""

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank, WCC
from repro.baselines import (
    XStreamConfig,
    grid_partition,
    partitioning_time,
    run_giraph,
    run_xstream,
)
from repro.baselines.giraph import vertex_owners
from repro.baselines.powergraph import rebalance_time
from repro.core.runtime import run_algorithm
from repro.graph import rmat_graph, to_undirected

from tests.conftest import fast_config
from tests.references import (
    reference_bfs_distances,
    reference_component_labels,
    reference_pagerank,
)


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, seed=4)


@pytest.fixture(scope="module")
def undirected(graph):
    return to_undirected(graph)


class TestXStream:
    def test_pagerank_matches_reference(self, graph):
        result = run_xstream(PageRank(iterations=4), graph)
        assert np.allclose(
            result.values["rank"], reference_pagerank(graph, iterations=4)
        )

    def test_bfs_matches_reference(self, undirected):
        result = run_xstream(BFS(root=0), undirected)
        assert np.array_equal(
            result.values["distance"], reference_bfs_distances(undirected, 0)
        )

    def test_wcc_matches_reference(self, undirected):
        result = run_xstream(WCC(), undirected)
        assert np.array_equal(
            result.values["label"], reference_component_labels(undirected)
        )

    def test_runtime_scales_with_device_bandwidth(self, graph):
        fast = run_xstream(
            PageRank(iterations=3),
            graph,
            config=XStreamConfig(partitions=4),
        )
        from repro.store.device import HDD_RAID0

        slow = run_xstream(
            PageRank(iterations=3),
            graph,
            config=XStreamConfig(device=HDD_RAID0, partitions=4),
        )
        # HDD bandwidth is half the SSD's; an I/O-bound run roughly
        # doubles.
        assert slow.runtime / fast.runtime == pytest.approx(2.0, rel=0.2)

    def test_chaos_single_machine_slower_than_xstream(self):
        """Table 1's architectural point: the client-server I/O path
        costs Chaos some single-machine performance vs direct I/O.
        Needs a streaming-dominated regime (enough chunks per phase)."""
        graph = rmat_graph(13, seed=4)
        algorithm = PageRank(iterations=3)
        config = fast_config(
            1, partitions_per_machine=2, chunk_bytes=16 * 1024
        )
        chaos = run_algorithm(algorithm, graph, config)
        xstream = run_xstream(
            PageRank(iterations=3), graph, XStreamConfig.from_cluster(config)
        )
        assert chaos.runtime > xstream.runtime
        # ... but within the paper's observed band (<= ~2.5x).
        assert chaos.runtime < 3.0 * xstream.runtime

    def test_requires_weights_when_algorithm_demands(self, graph):
        from repro.algorithms import SSSP

        with pytest.raises(ValueError, match="weight"):
            run_xstream(SSSP(root=0), graph)

    def test_iterations_recorded(self, graph):
        result = run_xstream(PageRank(iterations=4), graph)
        assert result.iterations == 4


class TestGiraph:
    def test_functional_correctness(self, graph):
        result = run_giraph(PageRank(iterations=3), graph, machines=4)
        assert np.allclose(
            result.values["rank"], reference_pagerank(graph, iterations=3)
        )

    def test_vertex_owners_deterministic_and_spread(self):
        owners = vertex_owners(10_000, 8)
        assert np.array_equal(owners, vertex_owners(10_000, 8))
        counts = np.bincount(owners, minlength=8)
        assert counts.min() > 1000

    def test_slower_than_chaos_absolute(self, graph):
        """Out-of-core Giraph is an order of magnitude slower (JVM and
        engineering overheads, Section 10.2)."""
        chaos = run_algorithm(
            PageRank(iterations=3), graph, fast_config(4)
        )
        giraph = run_giraph(PageRank(iterations=3), graph, machines=4)
        assert giraph.runtime > 3 * chaos.runtime

    def test_scaling_worse_than_chaos(self):
        """Figure 19: normalized to its own 1-machine runtime, Giraph
        scales far worse than Chaos."""
        graph = rmat_graph(12, seed=6)
        algorithm = lambda: PageRank(iterations=3)

        giraph_1 = run_giraph(algorithm(), graph, machines=1).runtime
        giraph_16 = run_giraph(algorithm(), graph, machines=16).runtime
        chaos_1 = run_algorithm(algorithm(), graph, fast_config(1)).runtime
        chaos_16 = run_algorithm(
            algorithm(), graph, fast_config(16, partitions_per_machine=1)
        ).runtime
        giraph_speedup = giraph_1 / giraph_16
        chaos_speedup = chaos_1 / chaos_16
        assert chaos_speedup > giraph_speedup

    def test_superstep_overhead_counted(self, graph):
        cheap = run_giraph(
            PageRank(iterations=3), graph, machines=2, superstep_overhead=0.0
        )
        costly = run_giraph(
            PageRank(iterations=3), graph, machines=2, superstep_overhead=5.0
        )
        assert costly.runtime - cheap.runtime == pytest.approx(15.0)


class TestPowerGraph:
    def test_grid_shape_near_square(self):
        from repro.baselines.powergraph import _grid_shape

        assert _grid_shape(16) == (4, 4)
        assert _grid_shape(32) == (4, 8)
        assert _grid_shape(7) == (1, 7)

    def test_assignment_within_machines(self, graph):
        result = grid_partition(graph, machines=16)
        assert result.assignment.min() >= 0
        assert result.assignment.max() < 16
        assert len(result.assignment) == graph.num_edges

    def test_replication_factor_reasonable(self, graph):
        """Grid partitioning bounds replicas per vertex by row+col size."""
        result = grid_partition(graph, machines=16)
        assert 1.0 <= result.replication_factor <= 8.0  # 4 + 4

    def test_edge_balance_close_to_one(self, graph):
        result = grid_partition(graph, machines=16)
        assert result.edge_balance < 1.5

    def test_partitioning_time_scales(self):
        assert partitioning_time(10**9, 32) == pytest.approx(
            10**9 / (500_000 * 32)
        )
        with pytest.raises(ValueError):
            partitioning_time(10, 0)

    def test_rebalance_vs_partitioning_ratio(self):
        """Figure 20: dynamic rebalancing costs a fraction of upfront
        partitioning."""
        graph = rmat_graph(12, seed=2)
        result = run_algorithm(
            PageRank(iterations=3),
            graph,
            fast_config(8, partitions_per_machine=1, chunk_bytes=4096),
        )
        rebalance = rebalance_time(result)
        upfront = partitioning_time(graph.num_edges, 8)
        assert rebalance < upfront
