"""Edge lists and the paper's binary input formats.

*"Input to the computation consists of an unsorted edge list, with each
edge represented by its source and target vertex and an optional weight.
Graphs with fewer than 2^32 vertices are represented in compact format,
with 4 bytes for each vertex and for the weight, if any.  Graphs with
more vertices are represented in non-compact format, using 8 bytes
instead."* (Section 8)

The in-memory representation is structure-of-arrays (numpy) for
vectorized processing by the engines.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Threshold above which the non-compact (8-byte) format is required.
COMPACT_VERTEX_LIMIT = 2**32


def bytes_per_edge(num_vertices: int, weighted: bool) -> int:
    """On-storage bytes for one edge in the paper's wire format."""
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    field_size = 4 if num_vertices < COMPACT_VERTEX_LIMIT else 8
    fields = 3 if weighted else 2
    return field_size * fields


def _edge_dtype(num_vertices: int, weighted: bool) -> np.dtype:
    vertex = np.uint32 if num_vertices < COMPACT_VERTEX_LIMIT else np.uint64
    fields = [("src", vertex), ("dst", vertex)]
    if weighted:
        fields.append(("weight", np.float32 if vertex == np.uint32 else np.float64))
    return np.dtype(fields)


@dataclass
class EdgeList:
    """An unsorted edge list: the sole input format of Chaos.

    Attributes
    ----------
    num_vertices:
        Number of vertices; ids are ``0 .. num_vertices-1``.
    src, dst:
        int64 arrays of equal length (one entry per edge).
    weight:
        Optional float64 array of per-edge weights.
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    weight: Optional[np.ndarray] = None

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError(
                f"src/dst length mismatch: {self.src.shape} vs {self.dst.shape}"
            )
        if self.weight is not None:
            self.weight = np.asarray(self.weight, dtype=np.float64)
            if self.weight.shape != self.src.shape:
                raise ValueError("weight length must match edge count")
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if self.src.size:
            top = max(int(self.src.max()), int(self.dst.max()))
            if top >= self.num_vertices:
                raise ValueError(
                    f"vertex id {top} out of range for {self.num_vertices} vertices"
                )
            if int(self.src.min()) < 0 or int(self.dst.min()) < 0:
                raise ValueError("negative vertex ids are not allowed")

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def weighted(self) -> bool:
        return self.weight is not None

    def storage_bytes(self) -> int:
        """Input size on storage in the paper's wire format."""
        return self.num_edges * bytes_per_edge(self.num_vertices, self.weighted)

    def subset(self, mask_or_index: np.ndarray) -> "EdgeList":
        """A new edge list containing the selected edges."""
        weight = self.weight[mask_or_index] if self.weighted else None
        return EdgeList(
            num_vertices=self.num_vertices,
            src=self.src[mask_or_index],
            dst=self.dst[mask_or_index],
            weight=weight,
        )

    def shuffled(self, rng: np.random.Generator) -> "EdgeList":
        """The same edges in a uniformly random order (unsorted input)."""
        order = rng.permutation(self.num_edges)
        return self.subset(order)

    def __repr__(self) -> str:
        kind = "weighted" if self.weighted else "unweighted"
        return (
            f"EdgeList(|V|={self.num_vertices}, |E|={self.num_edges}, {kind})"
        )


def write_edges(edges: EdgeList, path: str) -> int:
    """Write the edge list in the paper's binary format; return byte size."""
    dtype = _edge_dtype(edges.num_vertices, edges.weighted)
    record = np.empty(edges.num_edges, dtype=dtype)
    record["src"] = edges.src
    record["dst"] = edges.dst
    if edges.weighted:
        record["weight"] = edges.weight
    record.tofile(path)
    return record.nbytes


def read_edges(path: str, num_vertices: int, weighted: bool) -> EdgeList:
    """Read a binary edge list written by :func:`write_edges`.

    The format is self-describing only given ``num_vertices`` and
    ``weighted`` (exactly like the raw inputs the paper consumes).
    """
    dtype = _edge_dtype(num_vertices, weighted)
    size = os.path.getsize(path)
    if size % dtype.itemsize != 0:
        raise ValueError(
            f"{path}: size {size} is not a multiple of record size {dtype.itemsize}"
        )
    record = np.fromfile(path, dtype=dtype)
    weight = record["weight"].astype(np.float64) if weighted else None
    return EdgeList(
        num_vertices=num_vertices,
        src=record["src"].astype(np.int64),
        dst=record["dst"].astype(np.int64),
        weight=weight,
    )
