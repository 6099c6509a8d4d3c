"""End-to-end chunk integrity: CRC32 seals and byzantine corruption.

Chaos' recovery story (Section 6.6) assumes fail-stop machines; on the
commodity clusters the paper targets, silent data corruption (disk
bit-rot, torn writes, NIC bit-flips) is a real additional failure mode.
Every chunk carries a CRC32 seal over the one layout ``store.codec``
defines — header (partition / kind / index / size / records / tag plus
the column descriptors) and then every column's bytes — so that any
layer (storage engine, compute engine, restore client) can verify a
chunk cheaply on receipt, whichever provider it was stored by.

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


def seal_chunk(chunk: Chunk) -> Chunk:
    """Stamp ``chunk.crc`` with the current checksum; returns the chunk."""
    chunk.crc = codec.checksum(chunk)
    return chunk


def verify_chunk(chunk: Optional[Chunk]) -> bool:
    """True iff the chunk carries a seal that matches its content.

    Unsealed chunks (``crc is None``) verify trivially: phantom /
    model-mode chunks never carry payloads worth protecting, and
    requiring seals there would force every capacity run through the
    checksum path for no benefit.
    """
    if chunk is None or chunk.crc is None:
        return True
    return codec.checksum(chunk) == chunk.crc


def corrupt_chunk(chunk: Chunk) -> Chunk:
    """Deep copy of ``chunk`` with one payload cell perturbed, seal stale.

    Prefers a float column (perturbing a value keeps index arrays valid,
    so an unhardened run completes with *wrong* answers rather than
    crashing); falls back to zeroing the first cell of an integer column.
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
        floats[0].flat[0] = floats[0].flat[0] * 2.0 + 1.0
    else:
        numeric[0].flat[0] = 0 if numeric[0].flat[0] != 0 else 1
    return clone
