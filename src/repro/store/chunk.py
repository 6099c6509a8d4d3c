"""Chunks: the unit of placement, access and stealing.

*"All data structures are maintained and accessed in units called
chunks.  The size of a chunk is chosen large enough so that access to
storage appears sequential, but small enough so that they can serve as
units of distribution ...  Chunks are also the unit of stealing."*
(Section 6.2).  The paper uses 4 MB chunks (Section 7).

A chunk couples a *modelled* wire/storage size (what the hardware model
charges for) with an optional *payload* (named numpy columns in
functional runs, ``None`` for phantom chunks in model-mode capacity
runs).  ``store.codec`` defines the one layout memory, files, the CRC
seal and the fault arms share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: The paper's chunk size: a 4 MB block in the per-partition file.
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024


class ChunkKind(str, enum.Enum):
    """The three stored data structures of a streaming partition.

    A ``str`` subclass so that hashing a member (the stores key their
    chunk sets by kind) is ``str.__hash__`` in C, not ``Enum.__hash__``
    in Python.  ``str()``, ``format()`` and ``.value`` read as a plain
    ``Enum``'s on every Python version.
    """

    EDGES = "edges"
    UPDATES = "updates"
    VERTICES = "vertices"

    def __format__(self, spec: str) -> str:
        # Python 3.10 formats a str-mixin member by its value.
        return format(str(self), spec)


@dataclass(slots=True)
class Chunk:
    """One chunk of one partition's edge, update or vertex set."""

    partition: int
    kind: ChunkKind
    size: int
    #: Named columns, one fixed dtype each (structured dtypes allowed).
    payload: Optional[Dict[str, np.ndarray]] = None
    #: For vertex chunks only: position within the partition's vertex
    #: set, used by the hashed placement (Section 6.4).
    index: int = 0
    #: Number of records (edges / updates / vertices) the chunk holds.
    #: Drives the modelled CPU cost of processing it.
    records: int = 0
    #: CRC32 seal over header + columns (``store.codec``); ``None`` for
    #: unsealed chunks (phantom / model-mode), which verify trivially.
    crc: Optional[int] = None
    #: Small header ints covered by the seal.  Checkpoint chunks carry
    #: ``(resume_iteration, *freshness key)`` here; empty otherwise.
    tag: Tuple[int, ...] = ()
    #: This object's bytes are known to match ``crc`` and its columns are
    #: read-only.  Set only by ``store.integrity``; not an ``__init__``
    #: argument, so no way of building a chunk from another carries it.
    verified: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"chunk size must be non-negative, got {self.size}")
        if self.records < 0:
            raise ValueError(f"records must be non-negative, got {self.records}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through ``__init__``, like
        # ``dataclasses.replace``: every copy starts unverified.
        return (
            Chunk,
            (self.partition, self.kind, self.size, self.payload,
             self.index, self.records, self.crc, self.tag),
        )

    @property
    def is_phantom(self) -> bool:
        """True when the chunk models volume only (no real data)."""
        return self.payload is None


def split_into_chunks(total_bytes: int, chunk_bytes: int) -> list:
    """Sizes of the chunks covering ``total_bytes`` (last may be short)."""
    if chunk_bytes <= 0:
        raise ValueError("chunk_bytes must be positive")
    if total_bytes < 0:
        raise ValueError("total_bytes must be non-negative")
    full, rest = divmod(total_bytes, chunk_bytes)
    sizes = [chunk_bytes] * full
    if rest:
        sizes.append(rest)
    return sizes
