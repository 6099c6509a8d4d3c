"""Tests for the optional extensions: update aggregation (Section 11.1)
and vertex-set replication (Section 6.6)."""

import numpy as np
import pytest

from repro.algorithms import BFS, WCC, BeliefPropagation, PageRank, SpMV
from repro.algorithms.combiners import combine_by_min, combine_by_sum
from repro.core.runtime import run_algorithm
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected

from tests.conftest import fast_config


class TestCombiners:
    def test_combine_by_sum(self):
        dst = np.array([3, 1, 3, 1, 2])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out_dst, out_values = combine_by_sum(dst, values)
        assert list(out_dst) == [1, 2, 3]
        assert list(out_values) == [6.0, 5.0, 4.0]

    def test_combine_by_min(self):
        dst = np.array([3, 1, 3, 1])
        values = np.array([7.0, 2.0, 3.0, 4.0])
        out_dst, out_values = combine_by_min(dst, values)
        assert list(out_dst) == [1, 3]
        assert list(out_values) == [2.0, 3.0]

    def test_combine_preserves_singletons(self):
        dst = np.array([5])
        values = np.array([1.5])
        out_dst, out_values = combine_by_sum(dst, values)
        assert list(out_dst) == [5] and list(out_values) == [1.5]


class TestUpdateAggregation:
    def test_pagerank_results_unchanged(self, medium_graph):
        plain = run_algorithm(
            PageRank(iterations=3), medium_graph, fast_config(4)
        )
        aggregated = run_algorithm(
            PageRank(iterations=3),
            medium_graph,
            fast_config(4, aggregate_updates=True),
        )
        assert np.allclose(plain.values["rank"], aggregated.values["rank"])

    def test_aggregation_reduces_written_updates(self, medium_graph):
        plain = run_algorithm(
            PageRank(iterations=3), medium_graph, fast_config(4)
        )
        aggregated = run_algorithm(
            PageRank(iterations=3),
            medium_graph,
            fast_config(4, aggregate_updates=True),
        )
        assert (
            aggregated.updates_written_records < plain.updates_written_records
        )
        assert aggregated.updates_written_bytes < plain.updates_written_bytes

    def test_bfs_with_min_combiner_correct(self):
        graph = to_undirected(rmat_graph(9, seed=8, weighted=True))
        plain = run_algorithm(BFS(root=0), graph, fast_config(4))
        aggregated = run_algorithm(
            BFS(root=0), graph, fast_config(4, aggregate_updates=True)
        )
        assert np.array_equal(
            plain.values["distance"], aggregated.values["distance"]
        )

    def test_float_sum_aggregation_is_byte_identical_across_configurations(
        self, small_graph
    ):
        """Combining sizes the update chunks but ships the raw updates,
        so every float sum folds exactly, whatever the schedule."""

        def final_bytes(algorithm, machines, fault=None):
            config = fast_config(
                machines,
                chunk_bytes=4096,
                aggregate_updates=True,
                checkpointing=fault is not None,
            )
            plan = FaultPlan.parse([fault]) if fault else None
            result = run_algorithm(
                algorithm(), small_graph, config, fault_plan=plan
            )
            return {name: a.tobytes() for name, a in result.values.items()}

        for algorithm in (
            lambda: PageRank(iterations=3),
            lambda: BeliefPropagation(iterations=3),
            SpMV,
        ):
            reference = final_bytes(algorithm, 1)
            assert final_bytes(algorithm, 3) == reference
            assert final_bytes(algorithm, 3, "crash:1@iter=1") == reference

    def test_written_counts_match_produced_without_aggregation(
        self, small_graph
    ):
        result = run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(2)
        )
        produced = sum(s.updates_produced for s in result.iteration_stats)
        assert result.updates_written_records == produced


class TestVertexReplication:
    def test_results_unchanged(self, small_graph):
        plain = run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(4)
        )
        replicated = run_algorithm(
            PageRank(iterations=2),
            small_graph,
            fast_config(4, vertex_replicas=2),
        )
        assert np.allclose(plain.values["rank"], replicated.values["rank"])

    def test_replication_costs_extra_writes(self, small_graph):
        plain = run_algorithm(
            PageRank(iterations=2), small_graph, fast_config(4)
        )
        replicated = run_algorithm(
            PageRank(iterations=2),
            small_graph,
            fast_config(4, vertex_replicas=3),
        )
        assert replicated.storage_bytes > plain.storage_bytes
        assert replicated.runtime >= plain.runtime

    def test_invalid_replica_counts(self):
        with pytest.raises(ValueError):
            fast_config(2, vertex_replicas=0)
        with pytest.raises(ValueError):
            fast_config(2, vertex_replicas=3)

    def test_placement_returns_distinct_machines(self):
        from repro.store.placement import HashedVertexPlacement

        placement = HashedVertexPlacement(8)
        for partition in range(4):
            machines = placement.machines_for(partition, 0, 3)
            assert len(set(machines)) == 3
        with pytest.raises(ValueError):
            placement.machines_for(0, 0, 9)


class TestCombinerGatherConsistency:
    """gather(combine(updates)) must equal gather(updates) — the
    algebraic requirement for safe pre-aggregation."""

    @pytest.mark.parametrize(
        "algorithm_factory",
        [
            lambda: PageRank(),
            lambda: BFS(),
            lambda: WCC(),
        ],
        ids=["PR", "BFS", "WCC"],
    )
    def test_combined_gather_matches_raw(self, algorithm_factory):
        from repro.core.gas import GraphContext

        algorithm = algorithm_factory()
        ctx = GraphContext(
            num_vertices=16,
            num_edges=0,
            weighted=False,
            out_degrees=np.ones(16, dtype=np.int64),
        )
        algorithm.init_values(ctx)
        rng = np.random.default_rng(7)
        dst = rng.integers(0, 16, size=50)
        if algorithm.name in ("BFS", "WCC"):
            values = rng.integers(0, 1000, size=50)
        else:
            values = rng.random(50)

        raw = algorithm.make_accumulator(16)
        algorithm.gather(raw, dst, values)

        combined_dst, combined_values = algorithm.combine_updates(dst, values)
        assert len(combined_dst) <= len(dst)
        combined = algorithm.make_accumulator(16)
        algorithm.gather(combined, combined_dst, combined_values)

        assert np.allclose(
            np.asarray(raw, dtype=np.float64),
            np.asarray(combined, dtype=np.float64),
        )
