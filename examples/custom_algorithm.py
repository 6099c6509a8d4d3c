#!/usr/bin/env python
"""Writing your own algorithm: k-core decomposition on Chaos.

Demonstrates the public extension surface — subclass
:class:`repro.GasAlgorithm` with vectorized scatter/gather/apply and the
runtime gives you distribution, streaming, batching and work stealing
for free.

The algorithm: the k-core of a graph is the maximal subgraph where every
vertex has degree >= k.  Peeling computes it iteratively — remove
vertices with effective degree < k; their removal lowers neighbours'
degrees; repeat to fixpoint.  Removal notifications are exactly GAS
updates: dead vertices scatter "1" over their edges, gather sums the
losses, apply decrements degrees and kills newly under-k vertices.

The example sweeps k to produce the full coreness decomposition and
checks itself against networkx.  (A production version of this
algorithm ships in the library as :class:`repro.KCore` /
:func:`repro.run_kcore_decomposition`; this example keeps its own copy
so the full implementation is visible in one file.)

Run:  python examples/custom_algorithm.py
"""

import networkx as nx
import numpy as np

from repro import ClusterConfig, GasAlgorithm, rmat_graph, run_algorithm, to_undirected


class KCore(GasAlgorithm):
    """Peel to the k-core; final ``alive`` marks core membership."""

    name = "kcore"
    needs_undirected = True
    needs_out_degrees = True
    update_bytes = 8
    vertex_bytes = 8
    accum_bytes = 4
    max_iterations = None  # peel until quiescent

    def __init__(self, k: int, alive=None, degree=None):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        # Optional warm start from the previous k's fixpoint (peeling is
        # monotone in k, so the sweep reuses state).
        self._alive = alive
        self._degree = degree

    def init_values(self, ctx):
        if self._alive is not None:
            alive = self._alive.copy()
            degree = self._degree.copy()
        else:
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

    def make_accumulator(self, n):
        return np.zeros(n, dtype=np.int64)

    def gather(self, accum, dst_local, values, state=None):
        # Updates arrive in a schedule-dependent order, so the fold must
        # be exact in any order.  An integer sum is, like a min or a max;
        # a float sum would go through repro.core.gas.exact_add_at.
        np.add.at(accum, dst_local, values)

    def apply(self, values, accum, iteration):
        values["degree"] -= accum
        died = values["alive"] & (values["degree"] < self.k)
        values["alive"][died] = False
        values["died_last"][:] = died
        return int(np.count_nonzero(died))


def coreness_decomposition(graph, config):
    """Coreness of every vertex, by sweeping k on the cluster."""
    coreness = np.zeros(graph.num_vertices, dtype=np.int64)
    alive = None
    degree = None
    k = 1
    while True:
        result = run_algorithm(KCore(k, alive, degree), graph, config)
        alive = result.values["alive"]
        degree = result.values["degree"]
        if not alive.any():
            break
        coreness[alive] = k
        k += 1
    return coreness


def main() -> None:
    directed = rmat_graph(scale=10, seed=21, weighted=True)
    graph = to_undirected(directed)
    print(f"graph: {graph}")

    config = ClusterConfig(
        machines=4, chunk_bytes=8 * 1024, partitions_per_machine=2
    )
    coreness = coreness_decomposition(graph, config)

    values, counts = np.unique(coreness, return_counts=True)
    print("\ncoreness histogram (coreness: vertices):")
    for value, count in zip(values, counts):
        print(f"  {value:3d}: {count}")
    print(f"degeneracy (max coreness): {coreness.max()}")

    # Self-check against networkx.
    reference_graph = nx.Graph()
    reference_graph.add_nodes_from(range(graph.num_vertices))
    reference_graph.add_edges_from(zip(graph.src, graph.dst))
    reference = nx.core_number(reference_graph)
    expected = np.array([reference[v] for v in range(graph.num_vertices)])
    assert np.array_equal(coreness, expected), "mismatch vs networkx!"
    print("\nvalidated against networkx.core_number: exact match")


if __name__ == "__main__":
    main()
