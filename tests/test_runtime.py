"""Integration tests of the cluster runtime: determinism, storage
backends, checkpointing, placement policies, stealing and model mode."""

import math

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank, WCC
from repro.core import ClusterConfig
from repro.core.runtime import (
    ChaosCluster,
    GraphSpec,
    rmat_partition_fractions,
    run_algorithm,
    stored_id_dtype,
)
from repro.graph import rmat_graph, to_undirected
from repro.graph.edgelist import COMPACT_VERTEX_LIMIT
from repro.partition import PartitionLayout
from repro.perf.profiles import fixed_profile
from repro.store import ChunkKind, FileChunkStore

from tests.conftest import fast_config
from tests.references import reference_pagerank


class TestDeterminism:
    def test_identical_runs_identical_results(self, medium_graph):
        config = fast_config(4)
        first = run_algorithm(PageRank(iterations=3), medium_graph, config)
        second = run_algorithm(PageRank(iterations=3), medium_graph, config)
        assert first.runtime == second.runtime
        assert first.steals_accepted == second.steals_accepted
        assert np.array_equal(first.values["rank"], second.values["rank"])

    def test_different_seed_changes_timing_not_results(self, medium_graph):
        base = run_algorithm(
            PageRank(iterations=3), medium_graph, fast_config(4, seed=0)
        )
        other = run_algorithm(
            PageRank(iterations=3), medium_graph, fast_config(4, seed=99)
        )
        # Random placement differs -> timing differs ...
        assert base.runtime != other.runtime
        # ... but the computation is exact either way.
        assert np.allclose(base.values["rank"], other.values["rank"])


class TestFileBackend:
    def test_pagerank_through_real_files(self, tmp_path, small_graph):
        config = fast_config(2)
        cluster = ChaosCluster(
            config,
            backend_factory=lambda m: FileChunkStore(str(tmp_path / f"m{m}")),
        )
        result = cluster.run(PageRank(iterations=3), small_graph)
        expected = reference_pagerank(small_graph, iterations=3)
        assert np.allclose(result.values["rank"], expected)
        # Data really flowed through the filesystem.
        assert any((tmp_path / "m0").glob("*")) or any(
            (tmp_path / "m1").glob("*")
        )

    def test_file_and_memory_backends_agree(self, tmp_path, small_graph):
        config = fast_config(2)
        memory = ChaosCluster(config).run(PageRank(iterations=3), small_graph)
        files = ChaosCluster(
            config,
            backend_factory=lambda m: FileChunkStore(str(tmp_path / f"m{m}")),
        ).run(PageRank(iterations=3), small_graph)
        assert np.array_equal(memory.values["rank"], files.values["rank"])
        assert memory.runtime == pytest.approx(files.runtime)


class _ExtentLog(FileChunkStore):
    """A file store that logs ``(kind, records, column dtypes, extent
    bytes)`` per stowed chunk."""

    def __init__(self, root, log):
        super().__init__(root)
        self.log = log

    def _stow(self, chunk):
        held = super()._stow(chunk)
        if chunk.payload is not None:
            dtypes = {name: dtype for name, dtype, _shape in held.layout}
            self.log.append((chunk.kind, chunk.records, dtypes, held.nbytes))
        return held


class TestCompactIds:
    """Stored vertex ids take the paper's 4 bytes below 2**32 vertices
    (Section 8), pinned in bytes on disk: host-side call counts barely
    see the change."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_edge_extents_and_update_ids(self, tmp_path, weighted):
        graph = to_undirected(rmat_graph(8, seed=5, weighted=weighted))
        log = []
        ChaosCluster(
            fast_config(2),
            backend_factory=lambda m: _ExtentLog(str(tmp_path / f"m{m}"), log),
        ).run(SSSP(root=0) if weighted else WCC(), graph)
        per_edge = 16 if weighted else 8  # uint32 src + dst (+ float64)
        edges = [entry for entry in log if entry[0] is ChunkKind.EDGES]
        assert sum(records for _k, records, _d, _n in edges) == graph.num_edges
        for _kind, records, dtypes, nbytes in edges:
            assert nbytes == per_edge * records
            assert dtypes["src"] == dtypes["dst"] == np.uint32
            assert dtypes.get("weight", np.float64) == np.float64
        updates = [entry for entry in log if entry[0] is ChunkKind.UPDATES]
        assert updates
        assert all(dtypes["dst"] == np.uint32 for _k, _r, dtypes, _n in updates)

    def test_id_type_switches_at_the_compact_limit(self):
        assert stored_id_dtype(COMPACT_VERTEX_LIMIT - 1) == np.uint32
        assert stored_id_dtype(COMPACT_VERTEX_LIMIT) == np.int64

    def test_to_local_of_compact_ids_is_non_negative_int64(self):
        layout = PartitionLayout.even(1000, 4)
        local = layout.to_local(3, np.arange(750, 1000, dtype=np.uint32))
        assert local.dtype == np.int64
        assert np.array_equal(local, np.arange(250))
        # The reason ``to_local`` subtracts a numpy int64: a Python int
        # keeps the uint32 column's type and wraps below the boundary.
        assert (np.arange(2, dtype=np.uint32) - 1)[0] == 2**32 - 1


class TestCheckpointing:
    def test_checkpoint_adds_bounded_overhead(self, medium_graph):
        base = run_algorithm(
            PageRank(iterations=3), medium_graph, fast_config(4)
        )
        checkpointed = run_algorithm(
            PageRank(iterations=3),
            medium_graph,
            fast_config(4, checkpointing=True),
        )
        assert checkpointed.checkpoints > 0
        assert checkpointed.runtime > base.runtime
        # Figure 13: overhead under 6% at scale; generous bound for the
        # small graphs of the test suite where vertex state is a larger
        # fraction of total data.
        assert checkpointed.runtime < 1.5 * base.runtime
        # Checkpointing shifts chunk arrival order, so float summation
        # order differs; results agree to numerical precision.
        assert np.allclose(base.values["rank"], checkpointed.values["rank"])

    def test_checkpoints_written_each_phase(self, small_graph):
        result = run_algorithm(
            PageRank(iterations=2),
            small_graph,
            fast_config(2, checkpointing=True),
        )
        # Two phases per iteration, every master partition checkpointed.
        partitions = 2 * 2  # machines x partitions_per_machine
        assert result.checkpoints == partitions * 2 * result.iterations


class TestPlacementPolicies:
    def test_centralized_directory_slower_at_scale(self, medium_graph):
        random_result = run_algorithm(
            PageRank(iterations=2), medium_graph, fast_config(8)
        )
        central_result = run_algorithm(
            PageRank(iterations=2),
            medium_graph,
            fast_config(8, placement="centralized"),
        )
        assert central_result.runtime > random_result.runtime
        assert np.allclose(
            random_result.values["rank"], central_result.values["rank"]
        )


class TestStealing:
    def test_no_stealing_when_alpha_zero(self, medium_graph):
        result = run_algorithm(
            PageRank(iterations=2), medium_graph, fast_config(4, steal_alpha=0.0)
        )
        assert result.steals_accepted == 0

    def test_stealing_occurs_on_skewed_graph(self):
        graph = rmat_graph(12, seed=3)  # raw RMAT: heavy partition skew
        result = run_algorithm(
            PageRank(iterations=3),
            graph,
            fast_config(8, partitions_per_machine=1, chunk_bytes=4096),
        )
        assert result.steals_accepted > 0

    def test_always_steal_accepts_more_than_default(self, medium_graph):
        """alpha = inf accepts every proposal for a still-open partition
        (rejections only come from already-closed partitions)."""
        default = run_algorithm(
            PageRank(iterations=2), medium_graph, fast_config(4)
        )
        always = run_algorithm(
            PageRank(iterations=2),
            medium_graph,
            fast_config(4, steal_alpha=math.inf),
        )
        assert always.steals_accepted > default.steals_accepted
        assert always.steals_accepted > 0

    def test_stealing_preserves_results(self):
        graph = to_undirected(rmat_graph(10, seed=3, weighted=True))
        no_steal = run_algorithm(
            BFS(root=0), graph, fast_config(4, steal_alpha=0.0)
        )
        stealing = run_algorithm(
            BFS(root=0), graph, fast_config(4, steal_alpha=math.inf)
        )
        assert np.array_equal(
            no_steal.values["distance"], stealing.values["distance"]
        )


class TestModelMode:
    def test_phantom_run_produces_timing(self):
        config = ClusterConfig(
            machines=4, chunk_bytes=1 << 20, partitions_per_machine=1
        )
        spec = GraphSpec.rmat(16)
        result = ChaosCluster(config).run_model(
            PageRank(iterations=3), spec, fixed_profile(3)
        )
        assert result.runtime > 0
        assert result.iterations == 3
        assert result.values is None  # phantom: no data

    def test_model_io_volume_tracks_profile(self):
        config = ClusterConfig(
            machines=2, chunk_bytes=1 << 20, partitions_per_machine=1
        )
        spec = GraphSpec.rmat(14)
        light = ChaosCluster(config).run_model(
            PageRank(iterations=2), spec, fixed_profile(2, update_factor=0.1)
        )
        heavy = ChaosCluster(config).run_model(
            PageRank(iterations=2), spec, fixed_profile(2, update_factor=1.0)
        )
        assert heavy.storage_bytes > light.storage_bytes
        assert heavy.runtime > light.runtime

    def test_rmat_fractions_sum_to_one_and_skew(self):
        fractions = rmat_partition_fractions(16)
        assert fractions.sum() == pytest.approx(1.0)
        assert fractions[0] == fractions.max()
        assert fractions[0] > 4 / 16  # far above uniform

    def test_uniform_spec_fractions(self):
        spec = GraphSpec(num_vertices=100, num_edges=1000, skew="uniform")
        fractions = spec.partition_fractions(5)
        assert np.allclose(fractions, 0.2)

    def test_spec_input_bytes(self):
        spec = GraphSpec.rmat(10)
        assert spec.input_bytes() == 16 * 1024 * 8  # compact, unweighted


class TestResultAccounting:
    def test_runtime_includes_preprocessing(self, small_graph):
        result = run_algorithm(PageRank(iterations=1), small_graph, fast_config(2))
        assert 0 < result.preprocessing_seconds < result.runtime

    def test_storage_bytes_cover_edge_passes(self, small_graph):
        iterations = 3
        result = run_algorithm(
            PageRank(iterations=iterations), small_graph, fast_config(2)
        )
        # At minimum: preprocessing (2x input) plus one edge pass per
        # iteration plus update write+read per iteration.
        input_bytes = small_graph.storage_bytes()
        assert result.storage_bytes > (2 + iterations) * input_bytes

    def test_breakdown_total_close_to_engine_time(self, small_graph):
        config = fast_config(2)
        result = run_algorithm(PageRank(iterations=2), small_graph, config)
        for breakdown in result.breakdowns:
            # Each engine's attributed time is within the overall runtime.
            assert breakdown.total() <= result.runtime + 1e-9

    def test_network_bytes_zero_on_single_machine(self, small_graph):
        result = run_algorithm(PageRank(iterations=1), small_graph, fast_config(1))
        assert result.network_bytes == 0

    def test_network_traffic_present_on_cluster(self, small_graph):
        result = run_algorithm(PageRank(iterations=1), small_graph, fast_config(4))
        assert result.network_bytes > 0

    def test_iteration_stats_recorded(self, small_graph):
        result = run_algorithm(PageRank(iterations=3), small_graph, fast_config(2))
        assert len(result.iteration_stats) == 3
        for stats in result.iteration_stats:
            assert stats.edges_streamed == small_graph.num_edges
            assert stats.updates_produced == small_graph.num_edges


class TestPartitionRule:
    def test_partition_count_from_memory_budget(self, small_graph):
        algorithm = PageRank(iterations=1)
        # Budget for ~1/3rd of the vertices per partition, 2 machines.
        budget = small_graph.num_vertices // 3 * algorithm.vertex_state_bytes()
        config = ClusterConfig(
            machines=2,
            memory_bytes=budget,
            chunk_bytes=2048,
        )
        result = ChaosCluster(config).run(algorithm, small_graph)
        expected = reference_pagerank(small_graph, iterations=1)
        assert np.allclose(result.values["rank"], expected)

    def test_quiescent_algorithm_skips_final_gather(self):
        graph = to_undirected(rmat_graph(8, seed=2, weighted=True))
        result = run_algorithm(WCC(), graph, fast_config(2))
        final = result.iteration_stats[-1]
        assert final.updates_produced == 0
