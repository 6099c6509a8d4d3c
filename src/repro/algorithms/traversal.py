"""Breadth-first search (BFS) — the paper's headline capacity algorithm.

BFS runs on an undirected graph (Table 1).  The frontier discovered in
iteration *t* scatters its vertex id over all incident edges; gather
takes the minimum proposed parent; apply marks newly discovered vertices
(distance *t+1*) as the next frontier.  The job terminates when a
scatter produces no updates (empty frontier).

Note the edge-centric streaming property this inherits from X-Stream:
every scatter phase streams the *entire* edge set, even when the
frontier is small — the per-iteration I/O is what makes the RMAT-36 BFS
of Section 9.3 read ~214 TB for a 16 TB graph.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State


class BFS(GasAlgorithm):
    """Parallel BFS from a root vertex; computes parent and distance."""

    name = "BFS"
    needs_undirected = True
    update_bytes = 8  # destination id + proposed parent id (compact)
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = None  # run until the frontier empties

    def __init__(self, root: int = 0):
        if root < 0:
            raise ValueError("root must be a valid vertex id")
        self.root = root
        self._identity = np.iinfo(np.int64).max

    def init_values(self, ctx: GraphContext) -> State:
        if self.root >= ctx.num_vertices:
            raise ValueError(
                f"root {self.root} out of range for {ctx.num_vertices} vertices"
            )
        parent = np.full(ctx.num_vertices, -1, dtype=np.int64)
        distance = np.full(ctx.num_vertices, -1, dtype=np.int64)
        active = np.zeros(ctx.num_vertices, dtype=bool)
        parent[self.root] = self.root
        distance[self.root] = 0
        active[self.root] = True
        return {
            "vid": np.arange(ctx.num_vertices, dtype=np.int64),
            "parent": parent,
            "distance": distance,
            "active": active,
        }

    def scatter(
        self,
        values: State,
        src_local: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray],
        iteration: int,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        selected = values["active"][src_local]
        if not selected.any():
            return None
        return dst[selected], values["vid"][src_local[selected]]

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.full(n, self._identity, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        np.minimum.at(accum, dst_local, values)

    def combine_updates(self, dst, values):
        from repro.algorithms.combiners import combine_by_min

        return combine_by_min(dst, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        discovered = (values["parent"] == -1) & (accum != self._identity)
        values["parent"][discovered] = accum[discovered]
        values["distance"][discovered] = iteration + 1
        values["active"][:] = discovered
        return int(np.count_nonzero(discovered))


class WCC(GasAlgorithm):
    """Weakly connected components by min-label propagation.

    Every vertex starts with its own id as label; active vertices
    scatter their label; gather keeps the minimum; apply adopts a
    smaller label and reactivates.  At quiescence, each vertex's label
    is the minimum vertex id of its component.  Run on the symmetrized
    graph (Table 1: WCC requires an undirected graph).
    """

    name = "WCC"
    needs_undirected = True
    update_bytes = 8
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = None

    def __init__(self):
        self._identity = np.iinfo(np.int64).max

    def init_values(self, ctx: GraphContext) -> State:
        return {
            "label": np.arange(ctx.num_vertices, dtype=np.int64),
            "active": np.ones(ctx.num_vertices, dtype=bool),
        }

    def scatter(self, values, src_local, dst, weight, iteration):
        selected = values["active"][src_local]
        if not selected.any():
            return None
        return dst[selected], values["label"][src_local[selected]]

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.full(n, self._identity, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        np.minimum.at(accum, dst_local, values)

    def combine_updates(self, dst, values):
        from repro.algorithms.combiners import combine_by_min

        return combine_by_min(dst, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        improved = accum < values["label"]
        values["label"][improved] = accum[improved]
        values["active"][:] = improved
        return int(np.count_nonzero(improved))


class SSSP(GasAlgorithm):
    """Single-source shortest paths (Bellman-Ford style relaxation).

    Runs on an undirected weighted graph.  Active vertices scatter
    ``dist + edge weight``; gather keeps the minimum tentative distance;
    apply relaxes and reactivates improved vertices.  Terminates at
    quiescence; with non-negative weights convergence is guaranteed.
    """

    name = "SSSP"
    needs_undirected = True
    needs_weights = True
    update_bytes = 8  # destination id + float distance (compact)
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = None

    def __init__(self, root: int = 0):
        if root < 0:
            raise ValueError("root must be a valid vertex id")
        self.root = root

    def init_values(self, ctx: GraphContext) -> State:
        if self.root >= ctx.num_vertices:
            raise ValueError(
                f"root {self.root} out of range for {ctx.num_vertices} vertices"
            )
        distance = np.full(ctx.num_vertices, np.inf, dtype=np.float64)
        active = np.zeros(ctx.num_vertices, dtype=bool)
        distance[self.root] = 0.0
        active[self.root] = True
        return {"distance": distance, "active": active}

    def scatter(self, values, src_local, dst, weight, iteration):
        if weight is None:
            raise ValueError("SSSP requires edge weights")
        selected = values["active"][src_local]
        if not selected.any():
            return None
        return (
            dst[selected],
            values["distance"][src_local[selected]] + weight[selected],
        )

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.full(n, np.inf, dtype=np.float64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        # A float min returns an operand unrounded.  Distances start at
        # +0.0 and only grow by addition, so the one order-dependent tie,
        # -0.0 against 0.0, cannot occur.
        np.minimum.at(accum, dst_local, values)

    def combine_updates(self, dst, values):
        from repro.algorithms.combiners import combine_by_min

        return combine_by_min(dst, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        improved = accum < values["distance"]
        values["distance"][improved] = accum[improved]
        values["active"][:] = improved
        return int(np.count_nonzero(improved))
