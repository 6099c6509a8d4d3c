"""Tests for activity profiles and capacity projections."""

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, WCC, PageRank
from repro.core import ClusterConfig
from repro.core.runtime import ChaosCluster, GraphSpec, run_algorithm
from repro.graph import rmat_graph, to_undirected
from repro.perf import (
    ActivityProfile,
    bfs_profile,
    extract_profile,
    fixed_profile,
    project_capacity,
)

from tests.conftest import fast_config


class TestActivityProfile:
    def test_fixed_profile(self):
        profile = fixed_profile(5, update_factor=0.5)
        assert profile.iterations == 5
        assert profile.updates(2, 1000) == 500
        assert profile.updates(99, 1000) == 0
        assert profile.total_update_factor() == pytest.approx(2.5)

    def test_bfs_profile_shape(self):
        profile = bfs_profile(13)
        factors = np.array(profile.update_factors)
        assert factors.sum() == pytest.approx(1.0)
        peak = int(np.argmax(factors))
        assert 0 < peak < 13 - 1  # bell-shaped: interior peak
        assert factors[0] < factors[peak]
        assert factors[-1] < factors[peak]

    def test_stretch_preserves_total_volume(self):
        profile = bfs_profile(10)
        stretched = profile.stretched(25)
        assert stretched.iterations == 25
        assert stretched.total_update_factor() == pytest.approx(
            profile.total_update_factor()
        )

    def test_stretch_identity(self):
        profile = fixed_profile(4)
        assert profile.stretched(4) is profile

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            ActivityProfile(update_factors=())
        with pytest.raises(ValueError):
            ActivityProfile(update_factors=(0.5, -0.1))
        with pytest.raises(ValueError):
            fixed_profile(0)


class TestExtractProfile:
    def test_pagerank_extraction_is_flat_ones(self, small_graph):
        result = run_algorithm(
            PageRank(iterations=3), small_graph, fast_config(2)
        )
        profile = extract_profile(result)
        assert profile.iterations == 3
        # Every edge emits exactly one update per PR iteration.
        assert all(f == pytest.approx(1.0) for f in profile.update_factors)

    def test_bfs_extraction_sums_to_reached_fraction(self):
        graph = to_undirected(rmat_graph(9, seed=2, weighted=True))
        result = run_algorithm(BFS(root=0), graph, fast_config(2))
        profile = extract_profile(result)
        # Total updates over the run = one per edge out of reached
        # vertices; bounded by 1 per streamed edge.
        assert 0 < profile.total_update_factor() <= 1.0
        # Final iteration is the empty frontier.
        assert profile.update_factors[-1] == 0.0

    def test_extraction_keeps_exact_totals(self, small_graph):
        result = run_algorithm(BFS(root=0), small_graph, fast_config(2))
        profile = extract_profile(result)
        totals = [s.updates_produced for s in result.iteration_stats]
        assert profile.iterations == result.iterations
        edges = small_graph.num_edges
        assert [profile.updates(i, edges) for i in range(len(totals))] == totals
        # On a graph twice the size a pass produces twice the updates.
        assert profile.updates(1, 2 * edges) == 2 * totals[1]
        assert profile.updates(len(totals), edges) == 0


class TestModelVsDataConsistency:
    def test_model_runtime_tracks_data_runtime(self):
        """A phantom run driven by a profile extracted from a data run
        should land close to the data run's simulated time."""
        graph = rmat_graph(13, seed=1)
        config = fast_config(4, chunk_bytes=16 * 1024, partitions_per_machine=1)
        data_result = run_algorithm(PageRank(iterations=3), graph, config)
        profile = extract_profile(data_result)
        spec = GraphSpec(
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            skew="rmat",
        )
        model_result = ChaosCluster(config).run_model(
            PageRank(iterations=3), spec, profile
        )
        assert model_result.runtime == pytest.approx(
            data_result.runtime, rel=0.25
        )


@pytest.fixture(scope="module")
def lattice_graphs():
    """RMAT-11: directed for PageRank, undirected and weighted for the
    traversals."""
    return {
        "directed": rmat_graph(11, seed=1),
        "undirected": to_undirected(rmat_graph(11, seed=1, weighted=True)),
    }


LATTICE = {
    "PR": (lambda: PageRank(iterations=5), "directed"),
    "BFS": (lambda: BFS(root=0), "undirected"),
    "WCC": (WCC, "undirected"),
    "SSSP": (lambda: SSSP(root=0), "undirected"),
}


@pytest.mark.parametrize("machines", [2, 4, 8])
@pytest.mark.parametrize("algorithm", list(LATTICE))
def test_model_run_reproduces_its_data_run(algorithm, machines, lattice_graphs):
    """Phantom mode replays the run its profile came from: the same
    iterations, the same updates in each, the same storage I/O to 1 %.
    The runtime differs only by the modelled chunk layout (RMAT
    partition skew, placement): every cell within 6 % when pinned."""
    make, kind = LATTICE[algorithm]
    graph = lattice_graphs[kind]
    config = fast_config(
        machines, chunk_bytes=16 * 1024, partitions_per_machine=1
    )
    data = run_algorithm(make(), graph, config)
    spec = GraphSpec(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        weighted=graph.weighted,
    )
    model = ChaosCluster(config).run_model(make(), spec, extract_profile(data))
    assert model.iterations == data.iterations
    assert [s.updates_produced for s in model.iteration_stats] == [
        s.updates_produced for s in data.iteration_stats
    ]
    assert model.storage_bytes == pytest.approx(data.storage_bytes, rel=0.01)
    assert model.runtime == pytest.approx(data.runtime, rel=0.06)


class TestCapacityProjection:
    def test_small_scale_projection_runs(self):
        config = ClusterConfig(
            machines=4,
            chunk_bytes=1 << 22,
            partitions_per_machine=1,
        )
        projection = project_capacity(
            PageRank(iterations=2),
            fixed_profile(2),
            scale=20,
            machines=4,
            config=config,
        )
        assert projection.runtime_hours > 0
        assert projection.iterations == 2
        assert projection.total_io_terabytes > 0
        assert "PR" in projection.summary()

    def test_non_compact_doubling_above_2_32(self):
        # RMAT-32 is exactly 2^32 vertices: the first non-compact scale.
        algorithm = PageRank(iterations=1)
        config = ClusterConfig(
            machines=2, chunk_bytes=1 << 28, partitions_per_machine=1
        )

        def project():
            return project_capacity(
                algorithm, fixed_profile(1), scale=32, machines=2,
                config=config,
            )

        first, second = project(), project()
        assert algorithm.update_bytes == 8  # the caller's object untouched
        assert (first.runtime_hours, first.total_io_terabytes) == (
            second.runtime_hours, second.total_io_terabytes
        )
        compact = ChaosCluster(config).run_model(
            algorithm, GraphSpec.rmat(32), fixed_profile(1)
        )
        assert first.result.storage_bytes > compact.storage_bytes
