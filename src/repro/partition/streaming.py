"""Vertex-range streaming partitions and the one-pass edge split.

This module implements Section 3 of the paper verbatim:

* the partition count is *"the smallest multiple of the number of
  machines such that the vertex set of each partition fits into
  memory"*;
* vertex ids are split into ranges of consecutive identifiers;
* an edge belongs to the partition of its **source** vertex;
* the split is a single pass over the edge list with O(1) work per edge
  and parallelizes trivially (each machine splits an even share of the
  input — we expose that as :func:`preprocess`'s ``input_shards``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.edgelist import EdgeList


@dataclass(frozen=True)
class PartitionLayout:
    """Immutable description of the streaming partitions of a graph.

    ``boundaries`` has ``num_partitions + 1`` entries; partition ``p``
    owns vertex ids ``boundaries[p] .. boundaries[p+1]-1``.
    """

    num_vertices: int
    num_partitions: int
    boundaries: np.ndarray

    def __post_init__(self):
        if self.num_partitions < 1:
            raise ValueError("need at least one partition")
        bounds = np.asarray(self.boundaries, dtype=np.int64)
        if bounds.shape != (self.num_partitions + 1,):
            raise ValueError(
                f"boundaries must have {self.num_partitions + 1} entries"
            )
        if bounds[0] != 0 or bounds[-1] != self.num_vertices:
            raise ValueError("boundaries must span [0, num_vertices]")
        if np.any(np.diff(bounds) < 0):
            raise ValueError("boundaries must be non-decreasing")
        object.__setattr__(self, "boundaries", bounds)

    @classmethod
    def even(cls, num_vertices: int, num_partitions: int) -> "PartitionLayout":
        """Split ids into ``num_partitions`` near-equal consecutive ranges."""
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        base = num_vertices // num_partitions
        extra = num_vertices % num_partitions
        sizes = np.full(num_partitions, base, dtype=np.int64)
        sizes[:extra] += 1
        boundaries = np.concatenate([[0], np.cumsum(sizes)])
        return cls(num_vertices, num_partitions, boundaries)

    def partition_of(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Partition index for each vertex id (vectorized)."""
        return (
            np.searchsorted(self.boundaries, vertex_ids, side="right") - 1
        ).astype(np.int64)

    def route(self, vertex_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Group ``vertex_ids`` by owning partition: ``(order, cut_points)``.

        ``order[cut_points[p]:cut_points[p + 1]]`` indexes the ids owned
        by partition ``p``, in input order (the grouping is stable).
        This is the one router behind both the scatter-side update
        binning and the pre-processing edge split.  The partition id is
        narrowed to the smallest unsigned type that holds it so the
        stable argsort is a radix sort (numpy uses one for 8- and 16-bit
        keys), and the cuts come from a histogram, not a search.

        An id outside ``[0, num_vertices)`` belongs to no partition and
        raises ``ValueError`` instead of being dropped (the histogram's
        two end slots catch it, so the check costs no extra pass).
        """
        # Slot 0 counts the ids below every boundary, slots 1..P the ids
        # of each partition, slot P + 1 the ids at or past the last one.
        slot = np.searchsorted(self.boundaries, vertex_ids, side="right")
        counts = np.bincount(slot, minlength=self.num_partitions + 2)
        if counts[0] or counts[-1]:
            ids = np.asarray(vertex_ids)
            offending = ids.min() if counts[0] else ids.max()
            raise ValueError(
                f"vertex id {offending} is outside [0, {self.num_vertices})"
            )
        order = np.argsort(
            slot.astype(np.min_scalar_type(self.num_partitions)),
            kind="stable",
        )
        cut_points = np.cumsum(counts[:-1])
        return order, cut_points

    def vertex_range(self, partition: int) -> range:
        return range(
            int(self.boundaries[partition]), int(self.boundaries[partition + 1])
        )

    def vertex_count(self, partition: int) -> int:
        return int(self.boundaries[partition + 1] - self.boundaries[partition])

    def start(self, partition: int) -> int:
        return int(self.boundaries[partition])

    def to_local(self, partition: int, vertex_ids: np.ndarray) -> np.ndarray:
        """Global vertex ids -> indices local to ``partition``'s range."""
        return vertex_ids - self.boundaries[partition]


def choose_partition_count(
    num_vertices: int,
    machines: int,
    vertex_state_bytes: int,
    memory_bytes: int,
) -> int:
    """Smallest multiple of ``machines`` whose per-partition vertex state
    fits in ``memory_bytes`` (Section 3).

    ``vertex_state_bytes`` is the per-vertex footprint including the
    auxiliary structures (value + accumulator + bookkeeping).
    """
    if machines < 1:
        raise ValueError("machines must be >= 1")
    if vertex_state_bytes < 1:
        raise ValueError("vertex_state_bytes must be >= 1")
    if memory_bytes < vertex_state_bytes:
        raise ValueError("memory cannot hold even one vertex")
    multiple = 1
    while True:
        partitions = machines * multiple
        per_partition = -(-num_vertices // partitions)  # ceil division
        if per_partition * vertex_state_bytes <= memory_bytes:
            return partitions
        multiple += 1


def partition_edges(
    edges: EdgeList, layout: PartitionLayout
) -> List[EdgeList]:
    """One-pass split of the edge list by source-vertex partition.

    Returns one edge list per partition; the union equals the input.
    This is the whole of Chaos' pre-processing.
    """
    order, cut_points = layout.route(edges.src)
    return [
        edges.subset(order[cut_points[p] : cut_points[p + 1]])
        for p in range(layout.num_partitions)
    ]


def preprocess(
    edges: EdgeList,
    machines: int,
    vertex_state_bytes: int = 16,
    memory_bytes: Optional[int] = None,
    input_shards: Optional[int] = None,
) -> "PreprocessResult":
    """Full pre-processing pipeline: choose layout, split edges.

    ``input_shards`` models the parallel split: the input edge list is
    divided evenly into that many shards (default: one per machine), and
    each shard is partitioned independently — exactly how a cluster would
    parallelize the single pass.  The result is identical to a serial
    split; we keep the sharding explicit so tests can assert that.
    """
    if memory_bytes is None:
        # Permissive default: one partition per machine.
        memory_bytes = max(
            vertex_state_bytes,
            -(-edges.num_vertices // machines) * vertex_state_bytes,
        )
    count = choose_partition_count(
        edges.num_vertices, machines, vertex_state_bytes, memory_bytes
    )
    layout = PartitionLayout.even(edges.num_vertices, count)

    shards = input_shards if input_shards is not None else machines
    shards = max(1, min(shards, max(1, edges.num_edges)))
    per_partition: List[List[EdgeList]] = [[] for _ in range(count)]
    shard_bounds = np.linspace(0, edges.num_edges, shards + 1, dtype=np.int64)
    for s in range(shards):
        shard = edges.subset(np.arange(shard_bounds[s], shard_bounds[s + 1]))
        for p, part in enumerate(partition_edges(shard, layout)):
            if part.num_edges:
                per_partition[p].append(part)
    merged = []
    for p in range(count):
        parts = per_partition[p]
        if not parts:
            merged.append(
                EdgeList(
                    num_vertices=edges.num_vertices,
                    src=np.empty(0, dtype=np.int64),
                    dst=np.empty(0, dtype=np.int64),
                    weight=np.empty(0) if edges.weighted else None,
                )
            )
            continue
        merged.append(
            EdgeList(
                num_vertices=edges.num_vertices,
                src=np.concatenate([e.src for e in parts]),
                dst=np.concatenate([e.dst for e in parts]),
                weight=(
                    np.concatenate([e.weight for e in parts])
                    if edges.weighted
                    else None
                ),
            )
        )
    return PreprocessResult(layout=layout, partition_edge_lists=merged)


@dataclass
class PreprocessResult:
    """Output of pre-processing: the layout plus per-partition edges."""

    layout: PartitionLayout
    partition_edge_lists: List[EdgeList]

    def total_edges(self) -> int:
        return sum(e.num_edges for e in self.partition_edge_lists)
