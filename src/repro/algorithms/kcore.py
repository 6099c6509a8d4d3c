"""k-core decomposition (peeling), an extension algorithm.

Not part of the paper's Table 1, but a standard member of the X-Stream
algorithm family and a natural fit for the edge-centric model: removing
a vertex notifies its neighbours over its edges, which is exactly a GAS
update.  Included as a first-class algorithm (and as the worked example
in ``examples/custom_algorithm.py``) to demonstrate the extension
surface.

:class:`KCore` peels to a single k-core; :func:`run_kcore_decomposition`
sweeps k to produce every vertex's coreness, reusing each fixpoint as
the next k's warm start (peeling is monotone in k).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.gas import GasAlgorithm, GraphContext, State
from repro.core.runtime import run_algorithm
from repro.graph.edgelist import EdgeList


class KCore(GasAlgorithm):
    """Peel an undirected graph to its k-core.

    Final state: ``alive`` marks k-core membership; ``degree`` holds the
    induced degree within the surviving subgraph.
    """

    name = "KCore"
    needs_undirected = True
    needs_out_degrees = True
    update_bytes = 8
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = None  # peel until quiescent

    def __init__(
        self,
        k: int,
        alive: Optional[np.ndarray] = None,
        degree: Optional[np.ndarray] = None,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._alive = alive
        self._degree = degree

    def init_values(self, ctx: GraphContext) -> State:
        if self._alive is not None:
            alive = self._alive.copy()
            degree = self._degree.copy()
        else:
            if ctx.out_degrees is None:
                raise ValueError("KCore requires out-degrees")
            alive = np.ones(ctx.num_vertices, dtype=bool)
            degree = ctx.out_degrees.astype(np.int64).copy()
        died = alive & (degree < self.k)
        alive[died] = False
        return {"alive": alive, "degree": degree, "died_last": died}

    def scatter(self, values, src_local, dst, weight, iteration):
        dying = values["died_last"][src_local]
        if not dying.any():
            return None
        return dst[dying], np.ones(int(dying.sum()), dtype=np.int64)

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        np.add.at(accum, dst_local, values)  # chaos: ignore[CHX016] integer sum: exact in any order

    def combine_updates(self, dst, values):
        from repro.algorithms.combiners import combine_by_sum

        return combine_by_sum(dst, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        values["degree"] -= accum
        died = values["alive"] & (values["degree"] < self.k)
        values["alive"][died] = False
        values["died_last"][:] = died
        return int(np.count_nonzero(died))


def run_kcore_decomposition(
    edges: EdgeList,
    config: Optional[ClusterConfig] = None,
    **config_overrides,
) -> dict:
    """Coreness of every vertex, by sweeping k on the cluster.

    Returns ``{"coreness": array, "degeneracy": int, "runtime": float}``
    (runtime summed over the per-k jobs).
    """
    if config is None:
        config = ClusterConfig(**config_overrides)
    elif config_overrides:
        config = config.with_(**config_overrides)

    coreness = np.zeros(edges.num_vertices, dtype=np.int64)
    alive = None
    degree = None
    runtime = 0.0
    k = 1
    while True:
        result = run_algorithm(KCore(k, alive, degree), edges, config)
        runtime += result.runtime
        alive = result.values["alive"]
        degree = result.values["degree"]
        if not alive.any():
            break
        coreness[alive] = k
        k += 1
    return {
        "coreness": coreness,
        "degeneracy": int(coreness.max(initial=0)),
        "runtime": runtime,
    }
