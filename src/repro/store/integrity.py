"""End-to-end chunk integrity: CRC32 seals and byzantine corruption.

Chaos' recovery story (Section 6.6) assumes fail-stop machines; on the
commodity clusters the paper targets, silent data corruption (disk
bit-rot, torn writes, NIC bit-flips) is a real additional failure mode.
Every chunk carries a CRC32 seal over the one layout ``store.codec``
defines — header (partition / kind / index / size / records / tag plus
the column descriptors) and then every column's bytes — and any layer
(storage engine, compute engine, restore step) verifies a chunk on
receipt, whichever provider it was stored by.

**A chunk's bytes are walked once per materialisation**: when produced
(``seal_chunk``), when decoded from a file, when cloned by a fault arm.
This module is the only code that sets ``Chunk.verified``: a seal and a
*successful* verify walk set it and make every column read-only, and
``verify_chunk`` answers for a verified object without walking.  Sealed
therefore means immutable through the chunk's own arrays (a write raises
at the write site), and every copy — ``codec.clone``,
``dataclasses.replace``, a file ``decode``, ``copy`` / ``pickle`` —
starts unverified and is walked.  Freezing a view does not freeze its
base: a producer must not keep a writable base of a sealed column alive.

``corrupt_chunk`` is the adversary: it produces a deep copy of a chunk
whose payload has been genuinely perturbed (a numeric cell changed)
while keeping the *stale* seal, so a hardened reader detects the damage
and an unhardened one (``integrity_checks=False``) silently computes
wrong answers.  Fault injection uses it for bit-flip / torn-write /
message-corruption faults; it must never be reachable from a fault-free
run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.store import codec
from repro.store.chunk import Chunk

__all__ = ["seal_chunk", "verify_chunk", "corrupt_chunk"]


def _mark_verified(chunk: Chunk) -> None:
    """The bytes just walked match ``chunk.crc``: freeze them, remember."""
    if chunk.payload:
        for array in chunk.payload.values():
            array.flags.writeable = False
    chunk.verified = True


def seal_chunk(chunk: Chunk) -> Chunk:
    """Stamp ``chunk.crc`` with the current checksum; returns the chunk,
    verified and with read-only columns."""
    chunk.crc = codec.checksum(chunk)
    _mark_verified(chunk)
    return chunk


def verify_chunk(chunk: Optional[Chunk]) -> bool:
    """True iff the chunk carries a seal that matches its content.

    Unsealed chunks (``crc is None``) verify trivially: phantom /
    model-mode chunks never carry payloads worth protecting, and
    requiring seals there would force every capacity run through the
    checksum path for no benefit.  A chunk object this module already
    sealed or verified is not walked again: its columns are read-only.
    """
    if chunk is None or chunk.crc is None or chunk.verified:
        return True
    if codec.checksum(chunk) != chunk.crc:
        return False
    _mark_verified(chunk)
    return True


def corrupt_chunk(chunk: Chunk) -> Chunk:
    """Deep copy of ``chunk`` with one payload cell perturbed, seal stale.

    Prefers a float column (perturbing a value keeps index arrays valid,
    so an unhardened run completes with *wrong* answers rather than
    crashing); falls back to zeroing the first cell of an integer column.
    ``x * 2 + 1`` is ``x`` for ``inf``, ``nan`` and ``-1.0`` (SSSP / BFS
    distances start at ``inf``): there a low mantissa bit is flipped, so
    the fault never fires without changing the bytes.
    A chunk with no non-empty numeric column is returned as an unmodified
    copy — there is nothing to corrupt, and its seal still matches.
    """
    clone = codec.clone(chunk)
    numeric = [
        array
        for _name, array in codec.columns(clone)
        if array.size > 0 and np.issubdtype(array.dtype, np.number)
    ]
    if not numeric:
        return clone
    floats = [a for a in numeric if np.issubdtype(a.dtype, np.floating)]
    if floats:
        cell = floats[0].reshape(-1)[:1]  # a view: clone columns are contiguous
        before = cell.tobytes()
        cell[0] = cell[0] * 2.0 + 1.0
        if cell.tobytes() == before:
            cell.view(np.uint8)[0] ^= 1
    else:
        numeric[0].flat[0] = 0 if numeric[0].flat[0] != 0 else 1
    return clone
