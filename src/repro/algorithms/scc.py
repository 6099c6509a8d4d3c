"""Strongly connected components (forward-backward coloring driver).

The classic out-of-core SCC strategy (used by X-Stream): repeat two
label-propagation passes over the *unassigned* subgraph until every
vertex is assigned.

1. **Forward coloring** (to quiescence, on the original edges): every
   unassigned vertex starts with its own id; colors propagate along
   out-edges taking the maximum.  At fixpoint, ``color(v)`` is the
   largest-id unassigned vertex that can reach ``v``.

2. **Backward confirmation** (to quiescence, on the transposed edges):
   the root of each color class (the vertex whose color equals its id)
   is confirmed; confirmation propagates along *in*-edges but only to
   vertices of the same color.  Confirmed vertices form exactly the SCC
   of the root: mutual reachability within the color class.

Confirmed vertices are assigned their color as SCC id and drop out of
the next round.  Each round assigns at least the SCC of the largest
unassigned id, so the driver terminates.

The transposed edge list is computed once, up front; both orientations
are partitioned independently by the per-job pre-processing passes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.drivers import DriverResult
from repro.core.config import ClusterConfig
from repro.core.gas import GasAlgorithm, GraphContext, State
from repro.core.runtime import ChaosCluster
from repro.graph.edgelist import EdgeList


class _ForwardColor(GasAlgorithm):
    """Max-label propagation over out-edges, restricted to unassigned."""

    name = "SCC/forward"
    update_bytes = 8
    vertex_bytes = 16
    accum_bytes = 8
    max_iterations = None

    def __init__(self, assigned: np.ndarray, color: np.ndarray):
        self._assigned = assigned
        self._color = color

    def init_values(self, ctx: GraphContext) -> State:
        return {
            "assigned": self._assigned.copy(),
            "color": self._color.copy(),
            "active": ~self._assigned,
        }

    def scatter(self, values, src_local, dst, weight, iteration):
        selected = values["active"][src_local] & ~values["assigned"][src_local]
        if not selected.any():
            return None
        return dst[selected], values["color"][src_local[selected]]

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.full(n, -1, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        np.maximum.at(accum, dst_local, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        improved = ~values["assigned"] & (accum > values["color"])
        values["color"][improved] = accum[improved]
        values["active"][:] = improved
        return int(np.count_nonzero(improved))


class _BackwardConfirm(GasAlgorithm):
    """Confirmation wave along transposed edges within one color class."""

    name = "SCC/backward"
    update_bytes = 8
    vertex_bytes = 16
    accum_bytes = 8
    max_iterations = None

    def __init__(self, assigned: np.ndarray, color: np.ndarray):
        self._assigned = assigned
        self._color = color

    def init_values(self, ctx: GraphContext) -> State:
        vid = np.arange(ctx.num_vertices, dtype=np.int64)
        confirmed = ~self._assigned & (self._color == vid)
        return {
            "assigned": self._assigned.copy(),
            "color": self._color.copy(),
            "confirmed": confirmed,
            "active": confirmed.copy(),
        }

    def scatter(self, values, src_local, dst, weight, iteration):
        selected = values["active"][src_local]
        if not selected.any():
            return None
        return dst[selected], values["color"][src_local[selected]]

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.full(n, -1, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        if state is None:
            raise ValueError("SCC confirmation needs the vertex state")
        # Only same-color, unassigned, unconfirmed destinations accept.
        acceptable = (
            (state["color"][dst_local] == values)
            & ~state["assigned"][dst_local]
            & ~state["confirmed"][dst_local]
        )
        np.maximum.at(accum, dst_local[acceptable], values[acceptable])

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        newly = ~values["confirmed"] & ~values["assigned"] & (
            accum == values["color"]
        ) & (accum >= 0)
        values["confirmed"][newly] = True
        values["active"][:] = newly
        return int(np.count_nonzero(newly))


def transpose_edges(edges: EdgeList) -> EdgeList:
    """The reverse orientation of every edge."""
    return EdgeList(
        num_vertices=edges.num_vertices,
        src=edges.dst.copy(),
        dst=edges.src.copy(),
        weight=edges.weight.copy() if edges.weighted else None,
    )


def run_scc(
    edges: EdgeList,
    config: Optional[ClusterConfig] = None,
    max_rounds: int = 10_000,
    tracer=None,
    **config_overrides,
) -> DriverResult:
    """Compute SCCs of a directed graph.

    The result's ``values["scc"]`` maps each vertex to its SCC id (the
    largest vertex id in the component, by construction of the forward
    coloring).
    """
    if config is None:
        config = ClusterConfig(**config_overrides)
    elif config_overrides:
        config = config.with_(**config_overrides)

    num_vertices = edges.num_vertices
    reversed_edges = transpose_edges(edges)
    assigned = np.zeros(num_vertices, dtype=bool)
    scc_id = np.full(num_vertices, -1, dtype=np.int64)
    jobs = []
    rounds = 0

    while not assigned.all():
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("SCC driver failed to converge")
        color = np.arange(num_vertices, dtype=np.int64)
        color[assigned] = -1

        forward = ChaosCluster(config, tracer=tracer).run(
            _ForwardColor(assigned, color), edges
        )
        jobs.append(forward)
        color = forward.values["color"]

        backward = ChaosCluster(config, tracer=tracer).run(
            _BackwardConfirm(assigned, color), reversed_edges
        )
        jobs.append(backward)
        confirmed = backward.values["confirmed"]

        scc_id[confirmed] = color[confirmed]
        assigned |= confirmed

    runtime = sum(job.runtime for job in jobs)
    return DriverResult(
        algorithm="SCC",
        machines=config.machines,
        runtime=runtime,
        rounds=rounds,
        jobs=jobs,
        values={"scc": scc_id},
    )
