"""PageRank in the Chaos GAS model (Figure 2 of the paper).

Scatter sends ``rank / out_degree`` over every outgoing edge; gather
sums incoming contributions; apply computes
``rank = 0.15 + 0.85 * accum``.  Runs for a fixed number of iterations,
like the paper's evaluation (5 iterations for the capacity experiment).

Vertices with no outgoing edges contribute nothing (their mass leaks, as
in the paper's formulation — the classic non-normalized variant used by
X-Stream and Chaos).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State, exact_add_at


class PageRank(GasAlgorithm):
    """Fixed-iteration PageRank (damping 0.85)."""

    name = "PR"
    needs_out_degrees = True
    update_bytes = 8  # 4-byte destination id + 4-byte float contribution
    vertex_bytes = 8  # rank + degree, compact format
    accum_bytes = 4

    def __init__(self, iterations: int = 5, damping: float = 0.85):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= damping < 1.0:
            raise ValueError("damping must be in [0, 1)")
        self.max_iterations = iterations
        self.damping = damping

    def init_values(self, ctx: GraphContext) -> State:
        if ctx.out_degrees is None:
            raise ValueError("PageRank requires out-degrees")
        return {
            "rank": np.full(ctx.num_vertices, 1.0, dtype=np.float64),
            "degree": ctx.out_degrees.astype(np.float64),
        }

    def prepare_scatter(self, values: State) -> State:
        """Each vertex's share, ``rank / degree``, once per vertex: the
        same division scatter made per edge, bit for bit.  A vertex of
        degree 0 has no edge to scatter over, so its entry (``inf``) is
        never read."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return {"share": values["rank"] / values["degree"]}

    def scatter(
        self,
        values: State,
        src_local: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray],
        iteration: int,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        return dst, values["share"][src_local]

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float64)

    def gather(
        self,
        accum: np.ndarray,
        dst_local: np.ndarray,
        values: np.ndarray,
        state=None,
    ) -> None:
        exact_add_at(accum, dst_local, values)

    def combine_updates(self, dst, values):
        from repro.algorithms.combiners import combine_by_sum

        return combine_by_sum(dst, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        new_rank = (1.0 - self.damping) + self.damping * accum
        changed = int(np.count_nonzero(new_rank != values["rank"]))
        values["rank"][:] = new_rank
        return changed
