"""Update combiners: vectorized per-destination pre-aggregation.

Shared by the algorithms that opt into the optional Pregel-style
combining of Section 11.1 (sum-gatherers combine by sum, min-gatherers
by min).  Both run in O(n log n) on the buffered batch and return one
update per distinct destination.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def combine_by_sum(
    dst: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One summed update per distinct destination.

    The engine uses the result to size a combined update chunk only and
    ships the raw updates: over floats this partial sum rounds, and what
    it sums is whatever one worker's buffer held — a function of the
    schedule — which no exact fold at the master could undo.
    """
    unique_dst, inverse = np.unique(dst, return_inverse=True)
    combined = np.zeros(len(unique_dst), dtype=values.dtype)
    np.add.at(combined, inverse, values)
    return unique_dst, combined


def combine_by_min(
    dst: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One minimum update per distinct destination."""
    order = np.lexsort((values, dst))
    sorted_dst = dst[order]
    unique_dst, first = np.unique(sorted_dst, return_index=True)
    return unique_dst, values[order[first]]
