"""The one chunk layout: header + named columns in sorted-name order.

A chunk is a *header* — ``partition | kind | index | size | records |
tag`` followed by one ``name:dtype:shape`` descriptor per column — and
its *columns*: C-contiguous numpy arrays (plain or structured dtype),
always walked in sorted-name order.  Everything that needs a chunk's
bytes is written against :func:`columns`, the only code that iterates a
payload:

* the CRC32 seal folds the header and then each column buffer, through
  the buffer protocol, so it covers identity, ``tag`` and every cell;
* a file extent is the column buffers back to back (the header stays in
  the store's in-memory index entry, which keeps the seal and ``tag``);
* :func:`decode` turns one read of an extent back into zero-copy
  ``np.frombuffer`` views;
* :func:`clone` is the deep copy a fault arm perturbs.

The checkpoint's ``(resume_iteration, *freshness key)`` rides in the
header ``tag``, so a snapshot's state arrays are ordinary columns.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from typing import Dict, List, Tuple

import numpy as np

from repro.store.chunk import Chunk

#: Per column, in extent order: ``(name, dtype, shape)``.
Layout = Tuple[Tuple[str, np.dtype, Tuple[int, ...]], ...]


def columns(chunk: Chunk) -> List[Tuple[str, np.ndarray]]:
    """``(name, C-contiguous array)`` per column, in sorted-name order."""
    payload = chunk.payload
    if not payload:
        return []
    return [(name, np.ascontiguousarray(payload[name])) for name in sorted(payload)]


def layout_of(cols: List[Tuple[str, np.ndarray]]) -> Layout:
    """What :func:`decode` needs to find ``cols`` again in an extent."""
    return tuple((name, array.dtype, array.shape) for name, array in cols)


def checksum(chunk: Chunk) -> int:
    """CRC32 over the chunk's header and then each column's bytes, read
    through the buffer protocol (no copy)."""
    cols = columns(chunk)
    header = (
        f"{chunk.partition}|{chunk.kind.value}|{chunk.index}"
        f"|{chunk.size}|{chunk.records}|{chunk.tag}"
    ) + "".join(
        f"|{name}:{array.dtype.str}:{array.shape}" for name, array in cols
    )
    crc = zlib.crc32(header.encode())
    for _name, array in cols:
        crc = zlib.crc32(array, crc)
    return crc


def decode(layout: Layout, extent: bytes) -> Dict[str, np.ndarray]:
    """Columns as read-only views over ``extent`` (one file read)."""
    payload: Dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype, shape in layout:
        count = math.prod(shape)
        payload[name] = np.frombuffer(extent, dtype, count, offset).reshape(shape)
        offset += count * dtype.itemsize
    return payload


def clone(chunk: Chunk) -> Chunk:
    """Deep copy: same header, seal and ``tag``, freshly owned columns."""
    if chunk.payload is None:
        return dataclasses.replace(chunk)
    return dataclasses.replace(
        chunk, payload={name: array.copy() for name, array in columns(chunk)}
    )
