"""Edge-list transformations.

*"If necessary, we convert directed to undirected graphs by adding a
reverse edge."* (Section 8).  Chaos' GAS variant scatters only over
outgoing edges, so an undirected graph is represented as a directed
graph containing both orientations of every edge.
"""

from __future__ import annotations

import numpy as np

from repro.graph.edgelist import EdgeList


def add_reverse_edges(edges: EdgeList) -> EdgeList:
    """Append the reverse of every edge (weights are duplicated)."""
    src = np.concatenate([edges.src, edges.dst])
    dst = np.concatenate([edges.dst, edges.src])
    weight = None
    if edges.weighted:
        weight = np.concatenate([edges.weight, edges.weight])
    return EdgeList(
        num_vertices=edges.num_vertices, src=src, dst=dst, weight=weight
    )


def to_undirected(edges: EdgeList, dedup: bool = True) -> EdgeList:
    """Symmetrize the graph; optionally collapse parallel edges.

    With ``dedup`` the result contains each undirected edge exactly
    twice (once per orientation, with *equal* weights — parallel edges
    collapse to the minimum weight) and no self-loops, which is what the
    undirected algorithms (BFS, WCC, MCST, MIS, SSSP) expect.
    """
    if not dedup:
        return add_reverse_edges(edges)
    num_vertices = edges.num_vertices
    lo = np.minimum(edges.src, edges.dst)
    hi = np.maximum(edges.src, edges.dst)
    proper = lo != hi  # drop self-loops
    key = (lo * num_vertices + hi)[proper]
    if edges.weighted:
        order = np.argsort(key)
        key, index = key[order], np.flatnonzero(proper)[order]
    else:
        key.sort()
    run_start = np.empty(key.size, dtype=bool)
    run_start[:1] = True
    np.not_equal(key[1:], key[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    out_weight = None
    if edges.weighted:
        # Each pair keeps the edge a (weight, index) order puts first:
        # the least weight (NaN sorts last, so it wins only an all-NaN
        # pair), the lowest index among equal ones (-0.0 == 0.0).
        weight = edges.weight[index]
        least = np.fmin.reduceat(weight, starts)[np.cumsum(run_start) - 1]
        index[(weight != least) & ~np.isnan(least)] = edges.num_edges
        weight = edges.weight[np.minimum.reduceat(index, starts)]
        out_weight = np.concatenate([weight, weight])
    lo, hi = np.divmod(key[starts], num_vertices)
    return EdgeList(
        num_vertices=num_vertices,
        src=np.concatenate([lo, hi]),
        dst=np.concatenate([hi, lo]),
        weight=out_weight,
    )


def permute_vertices(edges: EdgeList, seed: int = 0) -> EdgeList:
    """Relabel vertices by a uniform random permutation."""
    rng = np.random.default_rng(seed)
    mapping = rng.permutation(edges.num_vertices)
    return EdgeList(
        num_vertices=edges.num_vertices,
        src=mapping[edges.src],
        dst=mapping[edges.dst],
        weight=edges.weight.copy() if edges.weighted else None,
    )
