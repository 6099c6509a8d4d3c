"""Unit tests for the GAS model base class and algorithm metadata."""

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    Conductance,
    PageRank,
    SpMV,
)
from repro.core.gas import GraphContext


ALL_SINGLE_JOB = [
    BFS(),
    WCC(),
    MIS(),
    SSSP(),
    PageRank(),
    Conductance(),
    SpMV(),
    BeliefPropagation(),
]


class TestMetadata:
    @pytest.mark.parametrize("algorithm", ALL_SINGLE_JOB, ids=lambda a: a.name)
    def test_wire_sizes_positive(self, algorithm):
        assert algorithm.update_bytes > 0
        assert algorithm.vertex_bytes > 0
        assert algorithm.accum_bytes > 0
        assert algorithm.vertex_state_bytes() >= algorithm.vertex_bytes

    def test_undirected_flags(self):
        assert BFS().needs_undirected
        assert WCC().needs_undirected
        assert MIS().needs_undirected
        assert SSSP().needs_undirected
        assert not PageRank().needs_undirected
        assert not SpMV().needs_undirected

    def test_iteration_modes(self):
        assert BFS().max_iterations is None  # quiescence
        assert PageRank(iterations=7).max_iterations == 7
        assert Conductance().max_iterations == 1
        assert SpMV().max_iterations == 1

    def test_repr_contains_name(self):
        assert "PR" in repr(PageRank())


class TestFinishedDefault:
    class _Stats:
        def __init__(self, updates):
            self.updates_produced = updates
            self.vertices_changed = 0

    def test_fixed_iteration_policy(self):
        algorithm = PageRank(iterations=3)
        assert not algorithm.finished(0, self._Stats(100))
        assert not algorithm.finished(1, self._Stats(100))
        assert algorithm.finished(2, self._Stats(100))

    def test_quiescence_policy(self):
        algorithm = WCC()
        assert not algorithm.finished(0, self._Stats(5))
        assert algorithm.finished(0, self._Stats(0))


class TestConstructorValidation:
    def test_pagerank(self):
        with pytest.raises(ValueError):
            PageRank(iterations=0)
        with pytest.raises(ValueError):
            PageRank(damping=1.0)

    def test_bfs_sssp_roots(self):
        with pytest.raises(ValueError):
            BFS(root=-1)
        with pytest.raises(ValueError):
            SSSP(root=-1)

    def test_conductance_split(self):
        with pytest.raises(ValueError):
            Conductance(split_fraction=0.0)
        with pytest.raises(ValueError):
            Conductance(split_fraction=1.0)

    def test_bp(self):
        with pytest.raises(ValueError):
            BeliefPropagation(iterations=0)

    def test_spmv_wrong_vector_length(self):
        algorithm = SpMV(x=np.ones(3))
        ctx = GraphContext(num_vertices=5, num_edges=0, weighted=False)
        with pytest.raises(ValueError, match="length"):
            algorithm.init_values(ctx)
