"""Sparse matrix-vector multiplication: y = A·x in one GAS pass.

The graph's (weighted) edges are the non-zeros of A: edge (i, j, w)
contributes ``w * x[i]`` to ``y[j]``.  Unweighted graphs use w = 1
(the adjacency matrix).  One scatter/gather iteration, like X-Stream's
SpMV benchmark (directed input, Table 1).
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State, exact_add_at


class SpMV(GasAlgorithm):
    """One matrix-vector product over the edge list."""

    name = "SpMV"
    update_bytes = 8
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = 1

    def __init__(self, x: np.ndarray = None, seed: int = 0):
        """``x`` is the input vector; defaults to a deterministic
        pseudo-random vector (seeded) sized at init time."""
        self._x = x
        self._seed = seed

    def init_values(self, ctx: GraphContext) -> State:
        if self._x is not None:
            x = np.asarray(self._x, dtype=np.float64)
            if len(x) != ctx.num_vertices:
                raise ValueError(
                    f"x has length {len(x)}, expected {ctx.num_vertices}"
                )
        else:
            rng = np.random.default_rng(self._seed)
            x = rng.random(ctx.num_vertices)
        return {"x": x, "y": np.zeros(ctx.num_vertices, dtype=np.float64)}

    def scatter(self, values, src_local, dst, weight, iteration):
        contribution = values["x"][src_local]
        if weight is not None:
            contribution = contribution * weight
        return dst, contribution

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        exact_add_at(accum, dst_local, values)

    def combine_updates(self, dst, values):
        from repro.algorithms.combiners import combine_by_sum

        return combine_by_sum(dst, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        values["y"][:] = accum
        return int(np.count_nonzero(accum))
