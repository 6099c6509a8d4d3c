"""Structural statistics of edge lists.

Used by tests (validating generator skew) and by some algorithms
(PageRank needs out-degrees).  Per-partition ownership lives in
:class:`repro.partition.streaming.PartitionLayout`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.graph.edgelist import EdgeList


def out_degrees(edges: EdgeList) -> np.ndarray:
    """Out-degree of every vertex (int64 array of length |V|)."""
    return np.bincount(edges.src, minlength=edges.num_vertices).astype(np.int64)


def in_degrees(edges: EdgeList) -> np.ndarray:
    """In-degree of every vertex (int64 array of length |V|)."""
    return np.bincount(edges.dst, minlength=edges.num_vertices).astype(np.int64)


def degree_histogram(degrees: np.ndarray) -> Dict[int, int]:
    """Map degree value -> number of vertices with that degree."""
    values, counts = np.unique(degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def gini_coefficient(degrees: np.ndarray) -> float:
    """Gini coefficient of the degree distribution (0 = uniform, →1 = skewed).

    A cheap scalar summary of skew, used to sanity-check that RMAT and
    the synthetic web graph are meaningfully imbalanced.
    """
    if degrees.size == 0:
        return 0.0
    sorted_degrees = np.sort(degrees.astype(np.float64))
    total = sorted_degrees.sum()
    if total == 0:
        return 0.0
    n = sorted_degrees.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * (ranks * sorted_degrees).sum()) / (n * total) - (n + 1) / n)
