"""R-MAT recursive-matrix graph generator (Chakrabarti, Zhan, Faloutsos).

The paper's synthetic workloads are RMAT graphs: *"a scale-n RMAT graph
has 2^n vertices and 2^(n+4) edges"* (Section 8).  We use the standard
Graph500 skew (a=0.57, b=0.19, c=0.19, d=0.05), which produces the
heavy-tailed degree distribution responsible for the partition-level
load imbalance that Chaos' work stealing corrects.

Generation is blocked: :func:`rmat_blocks` draws the edges a cache-sized
block at a time, each of the ``scale`` recursion levels resolving one bit
of the block's source and destination ids, so a block's working set stays
in cache and host memory holds only the output.  The draws are the ones
a level-by-level pass over every edge would make (level ``l`` reads the
PCG64 doubles at stream offsets ``2lE`` and ``(2l+1)E``, the permutation
and the weights follow at ``2·scale·E``): each (level, side) keeps its
own generator, advanced once to its offset, so the bytes do not depend
on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.graph.edgelist import EdgeList

#: Paper convention: edges per vertex in a scale-n RMAT graph (2^(n+4)/2^n).
EDGE_FACTOR = 16


@dataclass(frozen=True)
class RmatParameters:
    """Quadrant probabilities of the recursive matrix."""

    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    d: float = 0.05

    def __post_init__(self):
        total = self.a + self.b + self.c + self.d
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"RMAT probabilities must sum to 1, got {total}")
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("RMAT probabilities must be non-negative")


def rmat_edge_count(scale: int, edge_factor: int = EDGE_FACTOR) -> int:
    """Number of edges in a scale-``scale`` RMAT graph."""
    if scale < 0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    return edge_factor * (2**scale)


def rmat_blocks(
    scale: int,
    seed: int = 0,
    edge_factor: int = EDGE_FACTOR,
    params: Optional[RmatParameters] = None,
    weighted: bool = False,
    permute: bool = False,
    block_edges: int = 1 << 15,
) -> Iterator[Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Yield :func:`rmat_graph`'s edges in order, ``block_edges`` at a time.

    Each item is ``(src, dst, weight)`` for the next block: int64 ids and
    float64 weights (``None`` unless ``weighted``), arrays the caller
    owns.  Concatenated, the blocks are ``rmat_graph``'s arrays byte for
    byte, whatever ``block_edges``.
    """
    if block_edges < 1:
        raise ValueError(f"block_edges must be positive, got {block_edges}")
    if params is None:
        params = RmatParameters()
    num_vertices = 2**scale
    num_edges = rmat_edge_count(scale, edge_factor)
    # Per-level quadrant thresholds: P(right half) for src bit, and
    # conditional P(bottom half) for dst bit within each src-bit choice.
    p_src_one = params.c + params.d
    p_dst_one_given_src_zero = params.b / max(params.a + params.b, 1e-300)
    p_dst_one_given_src_one = params.d / max(params.c + params.d, 1e-300)

    def stream(offset: int) -> np.random.Generator:
        bits = np.random.PCG64(seed)
        bits.advance(offset)
        return np.random.Generator(bits)

    levels = [
        (stream(2 * level * num_edges), stream((2 * level + 1) * num_edges))
        for level in range(scale)
    ]
    tail = stream(2 * scale * num_edges)
    mapping = None
    if permute and num_vertices > 1:
        mapping = tail.permutation(num_vertices)

    # One block's working set, reused: the two draws of a level, its
    # src bit and both dst-bit candidates, and the ids built so far.
    block = max(1, min(block_edges, num_edges))
    draws = np.empty((2, block))
    bits = np.empty((3, block), dtype=bool)
    ids = np.empty((2, block), dtype=np.uint32 if scale <= 32 else np.uint64)
    for start in range(0, num_edges, block):
        n = min(block, num_edges - start)
        u, v = draws[:, :n]
        s, x, y = bits[:, :n]
        src, dst = ids[:, :n]
        src.fill(0)
        dst.fill(0)
        for src_stream, dst_stream in levels:
            src_stream.random(out=u)
            dst_stream.random(out=v)
            np.less(u, p_src_one, out=s)
            np.less(v, p_dst_one_given_src_zero, out=x)
            np.less(v, p_dst_one_given_src_one, out=y)
            # dst bit = y where the src bit is set, else x
            np.bitwise_xor(x, y, out=y)
            np.bitwise_and(y, s, out=y)
            np.bitwise_xor(x, y, out=x)
            np.left_shift(src, 1, out=src)
            np.bitwise_or(src, s, out=src)
            np.left_shift(dst, 1, out=dst)
            np.bitwise_or(dst, x, out=dst)
        if mapping is None:
            block_src, block_dst = src.astype(np.int64), dst.astype(np.int64)
        else:
            block_src, block_dst = mapping[src], mapping[dst]
        weight = None
        if weighted:
            # Uniform on (0, 1] so zero-weight edges never arise (MCST ties).
            weight = 1.0 - tail.random(n)
        yield block_src, block_dst, weight


def rmat_graph(
    scale: int,
    seed: int = 0,
    edge_factor: int = EDGE_FACTOR,
    params: Optional[RmatParameters] = None,
    weighted: bool = False,
    permute: bool = False,
) -> EdgeList:
    """Generate a scale-``scale`` RMAT graph (2^scale vertices).

    Parameters
    ----------
    scale:
        log2 of the vertex count.
    seed:
        Seed for the numpy PCG64 generator; generation is deterministic.
    edge_factor:
        Edges per vertex (paper default 16).
    params:
        Quadrant probabilities (Graph500 defaults).
    weighted:
        Attach uniform(0, 1] float weights (for SSSP / MCST / SpMV / BP).
    permute:
        Apply a random vertex-id permutation.  Raw R-MAT correlates
        vertex id with degree, which — under Chaos' consecutive-range
        partitioning — yields the per-partition load skew the paper's
        work stealing corrects; the default keeps that skew.  Permuting
        decorrelates id and degree (useful as an ablation).
    """
    num_edges = rmat_edge_count(scale, edge_factor)
    src = np.empty(num_edges, dtype=np.int64)
    dst = np.empty(num_edges, dtype=np.int64)
    weight = np.empty(num_edges) if weighted else None
    start = 0
    for block_src, block_dst, block_weight in rmat_blocks(
        scale, seed, edge_factor, params, weighted, permute
    ):
        stop = start + len(block_src)
        src[start:stop] = block_src
        dst[start:stop] = block_dst
        if weight is not None and block_weight is not None:
            weight[start:stop] = block_weight
        start = stop
    return EdgeList(num_vertices=2**scale, src=src, dst=dst, weight=weight)
