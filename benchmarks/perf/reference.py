"""Correctness oracle: the engine's answers against scipy and plain numpy.

Independent of everything under ``src/repro`` except the ``EdgeList``
fields it reads (``src``, ``dst``, ``weight``, ``num_vertices``).  Runs
once per worker, outside every timed region.  Each check returns a list
of human-readable misses; an empty list means the values are right.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

RTOL = 1e-9


def pagerank(graph, iterations: int, damping: float = 0.85) -> np.ndarray:
    """Non-normalised PageRank by power iteration on a dense rank vector.

    Parallel edges each carry a contribution (``coo -> csr`` sums the
    duplicates), and a vertex with no out-edge leaks its mass — the
    X-Stream/Chaos formulation the engine implements.
    """
    n = graph.num_vertices
    out_degree = np.bincount(graph.src, minlength=n).astype(np.float64)
    matrix = sparse.coo_matrix(
        (1.0 / out_degree[graph.src], (graph.dst, graph.src)), shape=(n, n)
    ).tocsr()
    rank = np.ones(n)
    for _ in range(iterations):
        rank = (1.0 - damping) + damping * (matrix @ rank)
    return rank


def component_labels(graph) -> np.ndarray:
    """Per vertex, the smallest vertex id of its connected component."""
    n = graph.num_vertices
    adjacency = sparse.coo_matrix(
        (np.ones(len(graph.src)), (graph.src, graph.dst)), shape=(n, n)
    ).tocsr()
    count, component = csgraph.connected_components(adjacency, directed=False)
    smallest = np.full(count, n, dtype=np.int64)
    np.minimum.at(smallest, component, np.arange(n, dtype=np.int64))
    return smallest[component]


def _relax(distance: np.ndarray, graph) -> np.ndarray:
    """One synchronous Bellman-Ford round over every edge."""
    relaxed = distance.copy()
    np.minimum.at(relaxed, graph.dst, distance[graph.src] + graph.weight)
    return relaxed


def dijkstra(graph, root: int) -> np.ndarray:
    """scipy's answer on the graph with parallel edges min-deduplicated."""
    n = graph.num_vertices
    key = graph.src * n + graph.dst
    order = np.lexsort((graph.weight, key))
    _unique, first = np.unique(key[order], return_index=True)
    keep = order[first]
    matrix = sparse.csr_matrix(
        (graph.weight[keep], (graph.src[keep], graph.dst[keep])), shape=(n, n)
    )
    return csgraph.dijkstra(matrix, directed=True, indices=root)


def shortest_paths(graph, root: int, rounds: Optional[int]) -> np.ndarray:
    """Distances after ``rounds`` relaxation rounds (``None``: all of them).

    The engine is stopped after a fixed number of rounds (see
    ``workloads.SSSP_ROUNDS``), where scipy has no counterpart, so the
    reference is the loop below — and the loop itself is held to scipy:
    continued to its fixed point it must reproduce ``dijkstra``.
    """
    distance = np.full(graph.num_vertices, np.inf)
    distance[root] = 0.0
    at_rounds = None
    done = 0
    while True:
        if rounds is not None and done == rounds:
            at_rounds = distance
        relaxed = _relax(distance, graph)
        done += 1
        if np.array_equal(relaxed, distance):
            break
        distance = relaxed
    expected = dijkstra(graph, root)
    if not _same_distances(distance, expected):
        raise AssertionError(
            "reference Bellman-Ford loop disagrees with scipy dijkstra"
        )
    return distance if at_rounds is None else at_rounds


def _same_distances(got: np.ndarray, expected: np.ndarray) -> bool:
    unreachable = np.isinf(expected)
    return bool(
        np.array_equal(np.isinf(got), unreachable)
        and np.allclose(got[~unreachable], expected[~unreachable],
                        rtol=RTOL, atol=0.0)
    )


def check(algorithm, graph, values: Dict[str, np.ndarray]) -> List[str]:
    """Misses of the engine's final ``values`` for ``algorithm`` on ``graph``."""
    kind = type(algorithm).__name__
    if kind == "PageRank":
        expected = pagerank(graph, algorithm.max_iterations, algorithm.damping)
        if not np.allclose(values["rank"], expected, rtol=RTOL, atol=0.0):
            worst = float(np.max(np.abs(values["rank"] / expected - 1.0)))
            return [f"PageRank ranks differ from power iteration by {worst:.3e}"]
        return []
    if kind == "WCC":
        expected = component_labels(graph)
        wrong = int(np.count_nonzero(values["label"] != expected))
        if wrong:
            return [f"WCC: {wrong} vertices not labelled with their "
                    f"component's smallest id"]
        return []
    if kind == "SSSP":
        expected = shortest_paths(graph, algorithm.root, algorithm.max_iterations)
        if not _same_distances(values["distance"], expected):
            return ["SSSP distances differ from the reference relaxation"]
        return []
    raise ValueError(f"no reference for algorithm {kind}")
