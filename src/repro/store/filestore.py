"""File-backed chunk provider: real secondary-storage I/O.

The production system keeps, per machine and streaming partition, one
ext4 file each for the vertex, edge and update set, accessed through the
page cache in 4 MB blocks (Section 7).  This provider reproduces the
data plane with real files: every chunk payload is written to disk when
stored and read back from disk when fetched, so functional runs really
do stream the graph through secondary storage.

Each stored chunk is one *extent* of its (partition, kind) stream file:
its columns back to back in the order ``store.codec`` fixes (sorted by
name).  What stays in memory is the index entry — the chunk header with
its seal and ``tag``, plus the extent's offset and column layout — so
the store holds O(#chunks) metadata, not the data itself, and a chunk
read back verifies against the seal it was stored with.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

from repro.store import codec
from repro.store.chunk import Chunk, ChunkKind
from repro.store.memstore import ChunkStore


@dataclass
class _Extent:
    """Index entry of a chunk whose columns live in the stream file."""

    #: The chunk minus its payload: identity, seal and ``tag``.
    header: Chunk
    offset: int
    nbytes: int
    layout: codec.Layout

    @property
    def size(self) -> int:
        return self.header.size


class FileChunkStore(ChunkStore):
    """Provider whose payloads live in real files under ``root``."""

    def __init__(self, root: str):
        super().__init__()
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, partition: int, kind: ChunkKind) -> str:
        return os.path.join(self.root, f"p{partition}.{kind.value}")

    def _stow(self, chunk: Chunk):
        """Append the chunk's columns as one extent; hold the index entry."""
        if chunk.payload is None:
            return chunk
        cols = codec.columns(chunk)
        with open(self._path(chunk.partition, chunk.kind), "ab") as stream:
            offset = stream.tell()
            stream.writelines(array for _name, array in cols)
            nbytes = stream.tell() - offset
        return _Extent(
            replace(chunk, payload=None), offset, nbytes, codec.layout_of(cols)
        )

    def _load(self, held) -> Optional[Chunk]:
        if not isinstance(held, _Extent):
            return held
        header = held.header
        with open(self._path(header.partition, header.kind), "rb") as stream:
            stream.seek(held.offset)
            extent = stream.read(held.nbytes)
        return replace(header, payload=codec.decode(held.layout, extent))

    def append_chunk(self, chunk: Chunk) -> None:
        self._append(chunk)

    def fetch_any(self, partition: int, kind: ChunkKind) -> Optional[Chunk]:
        return self._fetch(partition, kind)

    def put_vertex_chunk(self, chunk: Chunk) -> None:
        self._put_vertex(chunk)

    def get_vertex_chunk(self, partition: int, index: int) -> Optional[Chunk]:
        return self._get_vertex(partition, index)

    def delete(self, partition: int, kind: ChunkKind) -> None:
        super().delete(partition, kind)
        path = self._path(partition, kind)
        if os.path.exists(path):
            os.remove(path)
