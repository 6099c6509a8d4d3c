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

:meth:`PartitionLayout.route` groups ids by owner for that split and for
every scatter chunk's updates: a lookup per id in a lazily built owner
table, then one stable radix pass over those 8- or 16-bit keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def _owner(self) -> np.ndarray:
        """Owning partition of every vertex id, in the narrowest unsigned
        type that holds ``num_partitions - 1``.  Built on first use: a
        capacity-mode layout of 2**36 vertices never routes."""
        partitions = np.arange(
            self.num_partitions, dtype=np.min_scalar_type(self.num_partitions - 1)
        )
        return np.repeat(partitions, np.diff(self.boundaries))

    def partition_of(self, vertex_ids: np.ndarray) -> np.ndarray:
        """Owning partition of each vertex id, in the owner table's type.

        An id outside ``[0, num_vertices)`` raises ``ValueError``.  The
        check is one reduction: read as unsigned, a negative id is past
        every vertex.
        """
        ids = np.asarray(vertex_ids)
        unsigned = ids.view(f"u{ids.itemsize}") if ids.dtype.kind == "i" else ids
        if ids.size and unsigned.max() >= self.num_vertices:
            offending = ids.min() if ids.min() < 0 else ids.max()
            raise ValueError(
                f"vertex id {offending} is outside [0, {self.num_vertices})"
            )
        return self._owner.take(ids)

    def route(self, vertex_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Group ``vertex_ids`` by owning partition: ``(order, cut_points)``.

        ``order[cut_points[p]:cut_points[p + 1]]`` indexes the ids owned
        by partition ``p``, in input order (the grouping is stable).
        This is the one router behind both the scatter-side update
        binning and the pre-processing edge split.

        :meth:`partition_of` checks the bounds (an id outside
        ``[0, num_vertices)`` raises ``ValueError`` instead of being
        dropped), then looks each id up in the owner table: one entry
        per vertex, built on the first call and never for a layout that
        does not route.  The table holds the narrowest unsigned type for
        a partition index, so the keys are 8 or 16 bits wide and the
        stable argsort is one radix pass (numpy's sort for such keys).
        The ``P + 1`` cut points are a search of the sorted keys.
        """
        keys = self.partition_of(vertex_ids)
        order = keys.argsort(kind="stable")
        partitions = self.num_partitions
        cut_points = keys.take(order).searchsorted(
            np.arange(partitions + 1, dtype=np.min_scalar_type(partitions))
        )
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
