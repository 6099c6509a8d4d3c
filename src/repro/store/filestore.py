"""File-backed chunk provider: real secondary-storage I/O.

The production system keeps, per machine and streaming partition, one
ext4 file each for the vertex, edge and update set, accessed through the
page cache in 4 MB blocks behind a file pointer (Section 7).  This
provider reproduces the data plane with real files: every chunk payload
is written to disk when stored and read back from disk when fetched, so
functional runs really do stream the graph through secondary storage.

Each (partition, kind) stream is one file and one descriptor, opened on
the store's first use of the stream with ``O_TRUNC``: the index lives in
memory, so bytes an earlier store left in the file are unreachable and
are dropped rather than appended after.  A stored chunk is one *extent*
of its stream: its columns back to back in the order ``store.codec``
fixes (sorted by name), written at the stream's end by one positional
``pwritev`` straight from the column buffers.  What stays in memory is
the index entry — the chunk header with its seal and ``tag``, plus the
extent's offset and column layout — so the store holds O(#chunks)
metadata, not the data itself.  A fetch is one ``pread`` of the extent
into fresh bytes that ``codec.decode`` views: nothing read is kept, so
every read comes from the file and is walked by its first
``verify_chunk`` against the seal it was stored with, which is what
catches bytes that rot on disk outside the model.

``delete`` closes the stream's descriptor and unlinks its file;
``close`` closes every descriptor, as does the garbage collector for a
store nobody closed.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.store import codec
from repro.store.chunk import Chunk, ChunkKind
from repro.store.memstore import ChunkStore

#: One open stream file: ``[descriptor, end offset]``.
_Stream = List[int]


@dataclass(slots=True)
class _Extent:
    """Index entry of a chunk whose columns live in the stream file."""

    #: The chunk minus its payload: identity, seal and ``tag``.
    header: Chunk
    size: int
    stream: _Stream
    offset: int
    nbytes: int
    layout: codec.Layout


def _close_streams(streams: Dict[Tuple[int, ChunkKind], _Stream]) -> None:
    for stream in streams.values():
        os.close(stream[0])
        stream[0] = -1  # a read through a stale index entry fails, EBADF
    streams.clear()


class FileChunkStore(ChunkStore):
    """Provider whose payloads live in real files under ``root``."""

    def __init__(self, root: str):
        super().__init__()
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._streams: Dict[Tuple[int, ChunkKind], _Stream] = {}
        weakref.finalize(self, _close_streams, self._streams)

    def _path(self, partition: int, kind: ChunkKind) -> str:
        return os.path.join(self.root, f"p{partition}.{kind.value}")

    def _stow(self, chunk: Chunk):
        """Write the chunk's columns as one extent at the stream's end;
        hold the index entry."""
        if chunk.payload is None:
            return chunk
        key = (chunk.partition, chunk.kind)
        stream = self._streams.get(key)
        if stream is None:
            fd = os.open(
                self._path(*key), os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666
            )
            stream = self._streams[key] = [fd, 0]
        cols = codec.columns(chunk)
        buffers = [array for _name, array in cols]
        offset = stream[1]
        nbytes = os.pwritev(stream[0], buffers, offset)
        if nbytes != sum([array.nbytes for array in buffers]):
            raise OSError(f"short write to {self._path(*key)}")
        stream[1] = offset + nbytes
        header = Chunk(
            chunk.partition, chunk.kind, chunk.size, None,
            chunk.index, chunk.records, chunk.crc, chunk.tag,
        )
        return _Extent(
            header, chunk.size, stream, offset, nbytes, codec.layout_of(cols)
        )

    def _load(self, held) -> Optional[Chunk]:
        if not isinstance(held, _Extent):
            return held
        header = held.header
        extent = os.pread(held.stream[0], held.nbytes, held.offset)
        return Chunk(
            header.partition, header.kind, header.size,
            codec.decode(held.layout, extent),
            header.index, header.records, header.crc, header.tag,
        )

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
        stream = self._streams.pop((partition, kind), None)
        if stream is not None:
            os.close(stream[0])
            stream[0] = -1
        path = self._path(partition, kind)
        if os.path.exists(path):
            os.remove(path)

    def close(self) -> None:
        """Close every stream's descriptor.  Indexed extents become
        unreadable; a later append starts its stream over."""
        _close_streams(self._streams)
