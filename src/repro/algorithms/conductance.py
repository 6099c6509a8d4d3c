"""Conductance of a vertex bisection — a single streaming pass.

The conductance of a cut (S, S̄) is

    cond(S) = |edges crossing the cut| / min(vol(S), vol(S̄))

where vol(X) is the total degree of X.  As in X-Stream's benchmark, S is
a fixed predicate on vertex ids (default: the low half of the id
space).  One scatter/gather pass counts crossing edges: scatter sends
the source's side bit; gather (which can see the destination's side in
the vertex state) counts mismatches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State


class Conductance(GasAlgorithm):
    """One-pass conductance of the id-space bisection (directed input)."""

    name = "Cond"
    needs_out_degrees = True
    update_bytes = 8
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = 1

    def __init__(self, split_fraction: float = 0.5):
        if not 0.0 < split_fraction < 1.0:
            raise ValueError("split_fraction must be in (0, 1)")
        self.split_fraction = split_fraction
        self.result: Optional[float] = None
        self._volumes = (0.0, 0.0)

    def init_values(self, ctx: GraphContext) -> State:
        threshold = int(ctx.num_vertices * self.split_fraction)
        side = (np.arange(ctx.num_vertices) >= threshold).astype(np.int8)
        degrees = (
            ctx.out_degrees
            if ctx.out_degrees is not None
            else np.zeros(ctx.num_vertices)
        )
        vol_s = float(degrees[side == 0].sum())
        vol_t = float(degrees[side == 1].sum())
        self._volumes = (vol_s, vol_t)
        return {
            "side": side,
            "crossing": np.zeros(ctx.num_vertices, dtype=np.int64),
        }

    def scatter(self, values, src_local, dst, weight, iteration):
        return dst, values["side"][src_local].astype(np.int64)

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        if state is None:
            raise ValueError("Conductance gather needs the vertex state")
        crossing = values != state["side"][dst_local]
        np.add.at(accum, dst_local[crossing], 1)  # chaos: ignore[CHX016] integer sum: exact in any order

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        values["crossing"][:] = accum
        return int(np.count_nonzero(accum))

    def finished(self, iteration: int, stats) -> bool:
        return True  # single pass

    def conductance_from_values(self, values: State) -> float:
        """Compute the scalar result from the final vertex state."""
        crossing = float(values["crossing"].sum())
        vol_s, vol_t = self._volumes
        denominator = min(vol_s, vol_t)
        if denominator == 0:
            return 0.0
        return crossing / denominator
