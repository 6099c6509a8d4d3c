"""Unit tests for the job coordinator (barrier decisions, counters)."""

from repro.algorithms import PageRank
from repro.algorithms.traversal import WCC
from repro.core.gas import GraphContext
from repro.core.job import JobCoordinator
from repro.core.workload import DataWorkload, UpdateBatch
from repro.graph import rmat_graph
from repro.graph.stats import out_degrees
from repro.partition.streaming import PartitionLayout
from repro.store.chunk import ChunkKind


class _StubStore:
    """Storage-engine stand-in recording cursor resets."""

    def __init__(self):
        self.resets = []

    def reset_cursors(self, kind):
        self.resets.append(kind)


def _coordinator(algorithm=None):
    graph = rmat_graph(6, seed=1)
    layout = PartitionLayout.even(graph.num_vertices, 2)
    algorithm = algorithm or PageRank(iterations=2)
    ctx = GraphContext(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        weighted=False,
        out_degrees=out_degrees(graph),
    )
    workload = DataWorkload(algorithm, layout, ctx)
    stores = [_StubStore(), _StubStore()]
    return JobCoordinator(workload, stores), stores


class TestBeginScatter:
    def test_resets_edge_cursors_once_per_iteration(self):
        job, stores = _coordinator()
        job.begin_scatter()
        job.begin_scatter()  # second engine: no double reset
        assert stores[0].resets == [ChunkKind.EDGES]
        assert stores[1].resets == [ChunkKind.EDGES]


class TestCounters:
    def test_note_scatter_accumulates(self):
        job, _ = _coordinator()
        job.begin_scatter()
        batch = UpdateBatch(partition=0, count=10, nbytes=80, payload=None)
        job.note_scatter(100, [batch, batch])
        stats = job.current_stats
        assert stats.edges_streamed == 100
        assert stats.updates_produced == 20
        assert stats.update_bytes == 160

    def test_note_apply(self):
        job, _ = _coordinator()
        job.note_apply(5)
        job.note_apply(7)
        assert job.current_stats.vertices_changed == 12


class TestDecisions:
    def test_fixed_iterations_advance_then_finish(self):
        job, _ = _coordinator(PageRank(iterations=2))
        job.begin_scatter()
        job.note_scatter(10, [])
        assert not job.decide_after_scatter(1)
        assert not job.decide_after_gather(2)
        assert job.iteration == 1
        job.begin_scatter()
        assert not job.decide_after_scatter(3)
        assert job.decide_after_gather(4)
        assert job.done

    def test_decision_cached_per_generation(self):
        """All engines reading the same barrier generation get one
        consistent decision (computed once)."""
        job, _ = _coordinator(PageRank(iterations=1))
        job.begin_scatter()
        first = job.decide_after_gather(2)
        # A second engine asking again must not re-advance the iteration.
        second = job.decide_after_gather(2)
        assert first == second
        assert job.iteration == 0

    def test_quiescence_ends_after_scatter(self):
        job, _ = _coordinator(WCC())
        job.begin_scatter()
        # No updates produced -> quiescent algorithms stop right away.
        assert job.decide_after_scatter(1)
        assert job.done

    def test_quiescence_ignored_for_fixed_iteration_algorithms(self):
        job, _ = _coordinator(PageRank(iterations=1))
        job.begin_scatter()
        assert not job.decide_after_scatter(1)

    def test_completed_iterations(self):
        job, _ = _coordinator(PageRank(iterations=3))
        assert job.completed_iterations() == 1
        job.decide_after_gather(2)
        assert job.completed_iterations() == 2
