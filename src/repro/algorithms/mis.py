"""Maximal independent set (deterministic Luby-style greedy).

Runs on an undirected graph.  Every vertex starts *undecided*.  Each
iteration:

* undecided vertices scatter their id;
* vertices that joined the MIS in the previous iteration scatter the
  sentinel ``-1`` (which dominates any id under min-gather);
* gather keeps the minimum incoming value;
* apply: an undecided vertex whose accumulator is ``-1`` has an MIS
  neighbor and becomes *excluded*; an undecided vertex whose own id is
  smaller than every undecided neighbor's id joins the MIS.

Two adjacent vertices can never join simultaneously (each sees the
other's id), decided vertices stop competing, and the minimum-id
undecided vertex always makes progress, so the algorithm terminates
with a maximal independent set.
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State

UNDECIDED = 0
IN_SET = 1
EXCLUDED = 2

_MIS_SENTINEL = -1


class MIS(GasAlgorithm):
    """Maximal independent set; final state in the ``status`` array."""

    name = "MIS"
    needs_undirected = True
    needs_out_degrees = True
    update_bytes = 8
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = None

    def __init__(self):
        self._identity = np.iinfo(np.int64).max

    def init_values(self, ctx: GraphContext) -> State:
        status = np.full(ctx.num_vertices, UNDECIDED, dtype=np.int8)
        # Isolated vertices are trivially in every MIS; deciding them up
        # front keeps the invariant that every remaining undecided
        # vertex emits updates each iteration (so quiescence == done).
        if ctx.out_degrees is not None:
            status[ctx.out_degrees == 0] = IN_SET
        return {
            "vid": np.arange(ctx.num_vertices, dtype=np.int64),
            "status": status,
            "joined_last": np.zeros(ctx.num_vertices, dtype=bool),
        }

    def scatter(self, values, src_local, dst, weight, iteration):
        status = values["status"][src_local]
        undecided = status == UNDECIDED
        announcing = values["joined_last"][src_local]
        selected = undecided | announcing
        if not selected.any():
            return None
        payload = np.where(
            announcing[selected],
            _MIS_SENTINEL,
            values["vid"][src_local[selected]],
        )
        return dst[selected], payload

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.full(n, self._identity, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        np.minimum.at(accum, dst_local, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        status = values["status"]
        undecided = status == UNDECIDED
        # Neighbour joined the set -> exclusion dominates.
        excluded = undecided & (accum == _MIS_SENTINEL)
        status[excluded] = EXCLUDED
        # Smaller id than every remaining undecided neighbour -> join.
        # Vertices with no undecided neighbours (identity accumulator)
        # also join: nothing contests them.
        still_undecided = (status == UNDECIDED)
        joins = still_undecided & (values["vid"] < accum)
        status[joins] = IN_SET
        values["joined_last"][:] = joins
        return int(np.count_nonzero(excluded) + np.count_nonzero(joins))
