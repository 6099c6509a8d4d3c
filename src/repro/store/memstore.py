"""Chunk-store bookkeeping, and the in-memory provider over it.

A storage engine keeps, per (partition, kind), an ordered set of chunks
plus a consumption cursor.  The cursor is the whole of the paper's
read-once machinery: *"a storage engine keeps track of which chunks have
already been consumed during the current iteration"* (Section 6.3) —
implemented in the C++ system as a file pointer that is reset at the end
of each iteration (Section 7).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.store.chunk import Chunk, ChunkKind


class ChunkSet:
    """Ordered chunks of one (partition, kind) with a read-once cursor."""

    __slots__ = ("chunks", "cursor")

    def __init__(self):
        self.chunks: List[Chunk] = []
        self.cursor = 0

    def add(self, chunk: Chunk) -> None:
        self.chunks.append(chunk)

    def next_unprocessed(self) -> Optional[Chunk]:
        """Return (and consume) any unprocessed chunk, or None if exhausted.

        We hand chunks out in arrival order; the paper allows the engine
        to return *any* unprocessed chunk, and arrival order maximizes
        sequentiality.
        """
        if self.cursor >= len(self.chunks):
            return None
        chunk = self.chunks[self.cursor]
        self.cursor += 1
        return chunk

    def reset_cursor(self) -> None:
        """Start a new iteration: every chunk becomes unprocessed again."""
        self.cursor = 0

    def clear(self) -> None:
        self.chunks.clear()
        self.cursor = 0

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.chunks)

    def remaining_bytes(self) -> int:
        return sum(c.size for c in self.chunks[self.cursor :])

    def total_bytes(self) -> int:
        return sum(c.size for c in self.chunks)

    def __len__(self) -> int:
        return len(self.chunks)


class ChunkStore:
    """Read-once cursors and vertex-chunk versions, shared by providers.

    A provider decides only how a chunk is *held* while stored —
    :meth:`_stow` on the way in, :meth:`_load` on the way out — and
    defines the four data-plane entry points (``append_chunk``,
    ``fetch_any``, ``put_vertex_chunk``, ``get_vertex_chunk``) in its
    own class body, so that per-provider instrumentation patched onto
    one provider's entry points never sees the other's calls.
    """

    def __init__(self):
        self._sets: Dict[Tuple[int, ChunkKind], ChunkSet] = {}
        self._vertex_chunks: Dict[Tuple[int, int], Chunk] = {}
        # Last overwritten version per vertex-chunk key: the stale-read
        # fault serves this instead of the current version, modelling a
        # lost in-place update (e.g. a cached page surviving a rewrite).
        self._prev_vertex_chunks: Dict[Tuple[int, int], Chunk] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    # -- provider hooks --------------------------------------------------

    def _stow(self, chunk: Chunk):
        """The form in which ``chunk`` is held while stored (anything
        with a ``size``)."""
        return chunk

    def _load(self, held) -> Optional[Chunk]:
        """The chunk a reader gets back for a held one."""
        return held

    # -- edge / update chunks -----------------------------------------

    def _chunk_set(self, partition: int, kind: ChunkKind) -> ChunkSet:
        chunk_set = self._sets.get((partition, kind))
        if chunk_set is None:
            chunk_set = self._sets[partition, kind] = ChunkSet()
        return chunk_set

    def _append(self, chunk: Chunk) -> None:
        if chunk.kind is ChunkKind.VERTICES:
            raise ValueError("vertex chunks use put_vertex_chunk")
        self._chunk_set(chunk.partition, chunk.kind).add(self._stow(chunk))
        self.bytes_written += chunk.size

    def _fetch(self, partition: int, kind: ChunkKind) -> Optional[Chunk]:
        held = self._chunk_set(partition, kind).next_unprocessed()
        if held is not None:
            self.bytes_read += held.size
        return self._load(held)

    def remaining_bytes(self, partition: int, kind: ChunkKind) -> int:
        key = (partition, kind)
        if key not in self._sets:
            return 0
        return self._sets[key].remaining_bytes()

    def stored_bytes(self, partition: int, kind: ChunkKind) -> int:
        key = (partition, kind)
        if key not in self._sets:
            return 0
        return self._sets[key].total_bytes()

    def reset_cursors(self, kind: ChunkKind) -> None:
        for (_partition, k), chunk_set in self._sets.items():
            if k is kind:
                chunk_set.reset_cursor()

    def delete(self, partition: int, kind: ChunkKind) -> None:
        key = (partition, kind)
        if key in self._sets:
            self._sets[key].clear()

    # -- vertex chunks --------------------------------------------------

    def _put_vertex(self, chunk: Chunk) -> None:
        if chunk.kind is not ChunkKind.VERTICES:
            raise ValueError("put_vertex_chunk requires a vertex chunk")
        key = (chunk.partition, chunk.index)
        previous = self._vertex_chunks.get(key)
        if previous is not None:
            self._prev_vertex_chunks[key] = previous
        self._vertex_chunks[key] = self._stow(chunk)
        self.bytes_written += chunk.size

    def _get_vertex(self, partition: int, index: int) -> Optional[Chunk]:
        held = self._vertex_chunks.get((partition, index))
        if held is not None:
            self.bytes_read += held.size
        return self._load(held)

    def get_previous_vertex_chunk(
        self, partition: int, index: int
    ) -> Optional[Chunk]:
        """The version a put overwrote, if any (stale-read fault plane)."""
        return self._load(self._prev_vertex_chunks.get((partition, index)))

    def replace_vertex_chunk(self, chunk: Chunk) -> None:
        """Overwrite a stored vertex chunk *without* version tracking or
        byte accounting — the fault-injection / integrity-repair plane
        (simulated device time is charged by the storage engine)."""
        if chunk.kind is not ChunkKind.VERTICES:
            raise ValueError("replace_vertex_chunk requires a vertex chunk")
        self._vertex_chunks[(chunk.partition, chunk.index)] = self._stow(chunk)

    def vertex_chunk_keys(self) -> List[Tuple[int, int]]:
        """All stored (partition, index) vertex-chunk keys, sorted."""
        return sorted(self._vertex_chunks)

    def vertex_chunk_count(self, partition: int) -> int:
        return sum(1 for (p, _i) in self._vertex_chunks if p == partition)

    # -- statistics ------------------------------------------------------

    def total_stored_bytes(self) -> int:
        data = sum(s.total_bytes() for s in self._sets.values())
        vertices = sum(c.size for c in self._vertex_chunks.values())
        return data + vertices


class MemoryChunkStore(ChunkStore):
    """Default provider: chunks (and their payloads) are held as they are.

    The simulated device model provides the timing; this class provides
    the data plane over the shared read-once bookkeeping.
    """

    def append_chunk(self, chunk: Chunk) -> None:
        self._append(chunk)

    def fetch_any(self, partition: int, kind: ChunkKind) -> Optional[Chunk]:
        return self._fetch(partition, kind)

    def put_vertex_chunk(self, chunk: Chunk) -> None:
        self._put_vertex(chunk)

    def get_vertex_chunk(self, partition: int, index: int) -> Optional[Chunk]:
        return self._get_vertex(partition, index)
