"""Tests for checkpoint resume and failure recovery (Section 6.6)."""

import numpy as np
import pytest

from repro.algorithms import BFS, BeliefPropagation, KCore, PageRank, WCC
from repro.core.runtime import ChaosCluster, run_algorithm
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected

from tests.conftest import fast_config
from tests.references import reference_pagerank


class TestResumeFromValues:
    def test_split_pagerank_equals_straight_run(self, small_graph):
        """3 iterations, then resume for 2 == 5 straight iterations."""
        config = fast_config(2)
        first = ChaosCluster(config).run(PageRank(iterations=3), small_graph)
        checkpoint = {k: np.copy(v) for k, v in first.values.items()}
        second = ChaosCluster(config).run(
            PageRank(iterations=2), small_graph, initial_values=checkpoint
        )
        straight = reference_pagerank(small_graph, iterations=5)
        assert np.allclose(second.values["rank"], straight)

    def test_resume_quiescent_algorithm_finishes_quickly(self):
        """Resuming WCC from its own fixpoint converges immediately."""
        graph = to_undirected(rmat_graph(8, seed=3, weighted=True))
        config = fast_config(2)
        done = ChaosCluster(config).run(WCC(), graph)
        resumed = ChaosCluster(config).run(
            WCC(), graph, initial_values=done.values
        )
        assert np.array_equal(resumed.values["label"], done.values["label"])
        assert resumed.iterations <= 2

    def test_missing_state_array_rejected(self, small_graph):
        config = fast_config(2)
        with pytest.raises(ValueError, match="missing state array"):
            ChaosCluster(config).run(
                PageRank(iterations=1),
                small_graph,
                initial_values={"rank": np.ones(small_graph.num_vertices)},
            )

    def test_wrong_shape_rejected(self, small_graph):
        config = fast_config(2)
        with pytest.raises(ValueError, match="shape"):
            ChaosCluster(config).run(
                PageRank(iterations=1),
                small_graph,
                initial_values={"rank": np.ones(3), "degree": np.ones(3)},
            )


class TestStartIterationResume:
    """Checkpoint-resume with ``start_iteration`` on an iteration-stamped
    algorithm: the resumed run must continue the iteration numbering,
    so its values equal the undisturbed run's — not just for
    PageRank-style algorithms whose update ignores the iteration.
    (BFS, KCore and MIS go through the real rollback instead:
    ``tests/test_faults.py::TestByteIdentity::test_iteration_stamped``.)"""

    def test_bp_split_equals_straight_run(self, small_graph):
        config = fast_config(2)
        straight = ChaosCluster(config).run(
            BeliefPropagation(iterations=4), small_graph
        )
        first = ChaosCluster(config).run(
            BeliefPropagation(iterations=2), small_graph
        )
        resumed = ChaosCluster(config).run(
            BeliefPropagation(iterations=4),
            small_graph,
            initial_values={k: np.copy(v) for k, v in first.values.items()},
            start_iteration=2,
        )
        for name in straight.values:
            assert np.array_equal(resumed.values[name], straight.values[name])


def _crash(config, algorithm, graph, spec):
    """Run ``algorithm`` with one injected fault; (result, timeline)."""
    cluster = ChaosCluster(config)
    result = cluster.run(algorithm, graph, fault_plan=FaultPlan.parse([spec]))
    return result, cluster.last_fault_timeline


class TestRunWithFailure:
    """The Section 6.6 stop-and-rerun experiment: lose a machine
    mid-iteration, roll back to the last durable checkpoint, re-execute,
    and compare against an undisturbed twin."""

    def test_recovered_result_matches_baseline(self, small_graph):
        config = fast_config(2, checkpointing=True)
        result, timeline = _crash(
            config, PageRank(iterations=4), small_graph, "crash:1@iter=2"
        )
        assert len(timeline.rounds) == 1
        expected = reference_pagerank(small_graph, iterations=4)
        assert np.allclose(result.values["rank"], expected)

    def test_recovery_for_quiescent_algorithm(self):
        graph = to_undirected(rmat_graph(8, seed=6, weighted=True))
        config = fast_config(2, checkpointing=True)
        result, timeline = _crash(config, BFS(root=0), graph, "crash:1@iter=1")
        assert len(timeline.rounds) == 1
        baseline = run_algorithm(BFS(root=0), graph, config)
        assert np.array_equal(
            result.values["distance"], baseline.values["distance"]
        )

    def test_timeline_decomposition(self, small_graph):
        config = fast_config(2, checkpointing=True)
        result, timeline = _crash(
            config, PageRank(iterations=4), small_graph, "crash:1@iter=2"
        )
        twin = run_algorithm(PageRank(iterations=4), small_graph, config)
        round_ = timeline.rounds[0]
        assert round_.from_checkpoint and round_.resume_iteration == 2
        assert timeline.useful_seconds > 0
        assert timeline.lost_seconds > 0
        assert timeline.restore_seconds > 0
        assert result.runtime == pytest.approx(
            timeline.useful_seconds
            + timeline.lost_seconds
            + timeline.restore_seconds
        )
        # Recovering costs detection, reboot and restore on top of the
        # twin, but the work itself is not redone from scratch: what
        # remains after lost + restore is the twin plus at most the
        # partial iteration the checkpoint had not yet captured.
        assert result.runtime > twin.runtime
        assert timeline.useful_seconds < 1.5 * twin.runtime
        assert "fault crash:1@iter=2 fired" in timeline.summary()

    def test_failure_past_convergence_fires_nothing(
        self, small_undirected_graph
    ):
        """``iter=2`` never starts on a job that converges in two
        iterations: no fault, no recovery, the plain result."""
        config = fast_config(4, checkpointing=True, seed=7)
        result, timeline = _crash(
            config, KCore(2), small_undirected_graph, "crash:1@iter=2"
        )
        assert timeline.faults == [] and timeline.rounds == []
        baseline = run_algorithm(KCore(2), small_undirected_graph, config)
        assert result.iterations == baseline.iterations == 2
        for name in baseline.values:
            assert np.array_equal(result.values[name], baseline.values[name])
