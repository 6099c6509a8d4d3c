"""The one chunk layout, round-tripped through both providers.

dtype x size x provider, in the style of the Hub chunk-engine suite:
what goes into a store comes back equal, still sealed, still tagged,
and any single change to a cell, an identity field or the tag breaks
the seal.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.algorithms.mcst import _PICK_DTYPE
from repro.store import Chunk, ChunkKind
from repro.store import codec
from repro.store.integrity import corrupt_chunk, seal_chunk, verify_chunk

from tests.conftest import PROVIDERS, make_store

DTYPES = [np.int32, np.int64, np.float32, np.float64, _PICK_DTYPE]
#: Column bytes: zero-length columns, one record, 4 KB, 64 KB.
SIZES = [0, None, 4 * 1024, 64 * 1024]
TAG = (3, 0, 2, 1)


def _column(dtype, count: int, seed: int) -> np.ndarray:
    raw = np.random.default_rng(seed).integers(1, 200, size=count)
    dtype = np.dtype(dtype)
    if dtype.names is None:
        return raw.astype(dtype)
    column = np.zeros(count, dtype=dtype)
    for name in dtype.names:
        column[name] = raw
    return column


def _chunk(dtype, nbytes, kind=ChunkKind.UPDATES) -> Chunk:
    itemsize = np.dtype(dtype).itemsize
    count = 1 if nbytes is None else nbytes // itemsize
    return seal_chunk(
        Chunk(
            partition=1,
            kind=kind,
            size=count * itemsize,
            payload={
                "value": _column(dtype, count, seed=1),
                "dst": _column(np.int64, count, seed=2),
            },
            index=4 if kind is ChunkKind.VERTICES else 0,
            records=count,
            tag=TAG,
        )
    )


def _assert_same_chunk(loaded: Chunk, chunk: Chunk) -> None:
    assert sorted(loaded.payload) == sorted(chunk.payload)
    for name, column in chunk.payload.items():
        assert loaded.payload[name].dtype == column.dtype
        assert loaded.payload[name].tobytes() == column.tobytes()
    for field in ("partition", "kind", "index", "size", "records", "crc", "tag"):
        assert getattr(loaded, field) == getattr(chunk, field), field
    assert loaded.crc is not None and verify_chunk(loaded)


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("nbytes", SIZES, ids=["empty", "one", "4k", "64k"])
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
class TestRoundTrip:
    def test_stream_chunk(self, provider, nbytes, dtype, tmp_path):
        store = make_store(provider, tmp_path)
        other, chunk = _chunk(np.int64, 4096), _chunk(dtype, nbytes)
        store.append_chunk(other)  # the chunk under test is not at offset 0
        store.append_chunk(chunk)
        _assert_same_chunk(store.fetch_any(1, ChunkKind.UPDATES), other)
        _assert_same_chunk(store.fetch_any(1, ChunkKind.UPDATES), chunk)

    def test_vertex_chunk_and_its_overwritten_version(
        self, provider, nbytes, dtype, tmp_path
    ):
        store = make_store(provider, tmp_path)
        old = _chunk(np.float64, 4096, ChunkKind.VERTICES)
        new = _chunk(dtype, nbytes, ChunkKind.VERTICES)
        store.put_vertex_chunk(old)
        store.put_vertex_chunk(new)
        _assert_same_chunk(store.get_vertex_chunk(1, 4), new)
        _assert_same_chunk(store.get_previous_vertex_chunk(1, 4), old)
        store.replace_vertex_chunk(old)
        _assert_same_chunk(store.get_vertex_chunk(1, 4), old)
        assert store.vertex_chunk_keys() == [(1, 4)]


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
class TestSeal:
    def test_any_one_cell_breaks_the_seal(self, dtype):
        # On a clone, the path every injector takes: the sealed chunk's
        # own columns are read-only.
        chunk = codec.clone(_chunk(dtype, 4096))
        for name in chunk.payload:
            cells = chunk.payload[name].view(np.uint8)
            for position in (0, len(cells) // 2, len(cells) - 1):
                cells[position] ^= 0x10
                assert not verify_chunk(chunk), (name, position)
                cells[position] ^= 0x10
        assert verify_chunk(chunk)

    @pytest.mark.parametrize(
        "change",
        [
            {"partition": 2},
            {"kind": ChunkKind.EDGES},
            {"index": 1},
            {"size": 12345},
            {"records": 7},
            {"tag": (3, 0, 2, 0)},
            {"tag": ()},
        ],
        ids=lambda c: "-".join(c),
    )
    def test_identity_and_tag_are_sealed(self, dtype, change):
        chunk = _chunk(dtype, None)
        assert not verify_chunk(dataclasses.replace(chunk, **change))

    def test_column_name_and_dtype_are_sealed(self, dtype):
        chunk = _chunk(dtype, 4096)
        renamed = {"value": chunk.payload["value"], "dst2": chunk.payload["dst"]}
        assert not verify_chunk(dataclasses.replace(chunk, payload=renamed))
        recast = dict(chunk.payload, dst=chunk.payload["dst"].view(np.uint64))
        assert not verify_chunk(dataclasses.replace(chunk, payload=recast))


class TestVerifiedMemo:
    """``Chunk.verified`` stays with the object that earned it: sealed
    columns are read-only and every copy starts unverified."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """``id`` of every chunk ``codec.checksum`` walked, in order."""
        walked, checksum = [], codec.checksum

        def counted(chunk):
            walked.append(id(chunk))
            return checksum(chunk)

        monkeypatch.setattr(codec, "checksum", counted)
        return walked

    def test_sealed_and_verified_columns_are_read_only(self):
        sealed = _chunk(np.float64, 4096)
        verified = codec.clone(sealed)
        assert verify_chunk(verified)
        for chunk in (sealed, verified):
            assert chunk.verified
            for column in chunk.payload.values():
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 0
                with pytest.raises(ValueError, match="read-only"):
                    column.view(np.uint8)[0] ^= 1

    @pytest.mark.parametrize(
        "change",
        [
            {},
            {"partition": 1},
            {"kind": ChunkKind.UPDATES},
            {"size": 4096},
            {"payload": None},
            {"index": 0},
            {"records": 512},
            {"crc": 0},
            {"tag": TAG},
        ],
        ids=lambda c: "-".join(c) or "nothing",
    )
    def test_replace_never_carries_the_verdict(self, change):
        chunk = _chunk(np.float64, 4096)
        assert chunk.verified
        assert not dataclasses.replace(chunk, **change).verified

    def test_verified_is_not_an_init_argument(self):
        with pytest.raises(ValueError):
            dataclasses.replace(_chunk(np.float64, None), verified=True)
        with pytest.raises(TypeError):
            Chunk(partition=0, kind=ChunkKind.EDGES, size=0, verified=True)

    @pytest.mark.parametrize(
        "duplicate",
        [
            codec.clone,
            copy.copy,
            copy.deepcopy,
            lambda chunk: pickle.loads(pickle.dumps(chunk)),
        ],
        ids=["clone", "copy", "deepcopy", "pickle"],
    )
    def test_every_copy_starts_unverified_and_is_walked(self, duplicate, walks):
        chunk = _chunk(np.float64, 4096)
        twin = duplicate(chunk)
        assert twin is not chunk and not twin.verified
        _assert_same_chunk(twin, chunk)
        assert verify_chunk(twin) and twin.verified
        # The seal, then the copy's one walk.
        assert walks == [id(chunk), id(twin)]

    @pytest.mark.parametrize("provider", PROVIDERS)
    def test_store_round_trip(self, provider, tmp_path, walks):
        store = make_store(provider, tmp_path)
        chunk = _chunk(np.float64, 4096)
        store.append_chunk(chunk)
        loaded = store.fetch_any(1, ChunkKind.UPDATES)
        # Memory hands back the sealed object; a file decode is new bytes.
        assert (loaded is chunk) == (provider == "memory")
        assert loaded.verified == (provider == "memory")
        assert verify_chunk(loaded) and verify_chunk(loaded)
        assert len(walks) == (1 if provider == "memory" else 2)

    def test_an_intact_clone_is_walked_exactly_once(self, walks):
        clone = codec.clone(_chunk(np.float64, 4096))
        del walks[:]
        assert verify_chunk(clone) and verify_chunk(clone)
        assert walks == [id(clone)]

    def test_a_failed_verify_leaves_no_trace(self, walks):
        damaged = corrupt_chunk(_chunk(np.float64, 4096))
        frozen = np.arange(4)
        frozen.flags.writeable = False
        damaged.payload["extra"] = frozen
        del walks[:]
        assert not verify_chunk(damaged) and not verify_chunk(damaged)
        assert walks == [id(damaged)] * 2  # no verdict to remember
        assert not damaged.verified
        writable = {n: c.flags.writeable for n, c in damaged.payload.items()}
        assert writable == {"dst": True, "value": True, "extra": False}

    def test_unsealed_chunks_are_neither_walked_nor_frozen(self, walks):
        column = np.arange(4)
        chunk = Chunk(partition=0, kind=ChunkKind.UPDATES, size=32,
                      payload={"value": column})
        assert verify_chunk(chunk) and not chunk.verified and not walks
        column[0] = 9


class TestCodec:
    def test_columns_are_walked_in_sorted_name_order(self):
        chunk = _chunk(np.float32, 4096)
        cols = codec.columns(chunk)
        assert [name for name, _ in cols] == ["dst", "value"]
        extent = b"".join(array.tobytes() for _name, array in cols)
        assert extent.startswith(chunk.payload["dst"].tobytes())
        decoded = codec.decode(codec.layout_of(cols), extent)
        assert decoded["value"].tobytes() == chunk.payload["value"].tobytes()

    def test_non_contiguous_and_2d_columns(self):
        wide = np.arange(24, dtype=np.float64).reshape(4, 6)
        chunk = seal_chunk(
            Chunk(
                partition=0,
                kind=ChunkKind.VERTICES,
                size=96,
                payload={"belief": wide[:, ::2], "vid": np.arange(8)[::2]},
            )
        )
        cols = codec.columns(chunk)
        extent = b"".join(array.tobytes() for _name, array in cols)
        decoded = codec.decode(codec.layout_of(cols), extent)
        assert np.array_equal(decoded["belief"], wide[:, ::2])
        assert np.array_equal(decoded["vid"], [0, 2, 4, 6])

    def test_unsealed_and_phantom_chunks_verify_trivially(self):
        assert verify_chunk(None)
        assert verify_chunk(Chunk(partition=0, kind=ChunkKind.EDGES, size=10))
        phantom = codec.clone(Chunk(partition=0, kind=ChunkKind.EDGES, size=10))
        assert phantom.is_phantom


class TestCorruptChunk:
    def test_prefers_a_float_column_and_keeps_the_stale_seal(self):
        chunk = _chunk(np.float64, 4096)
        before = {n: c.copy() for n, c in chunk.payload.items()}
        damaged = corrupt_chunk(chunk)
        assert damaged.crc == chunk.crc and damaged.tag == chunk.tag
        assert not verify_chunk(damaged)
        assert np.array_equal(damaged.payload["dst"], before["dst"])
        assert damaged.payload["value"][0] == before["value"][0] * 2.0 + 1.0
        assert np.array_equal(damaged.payload["value"][1:], before["value"][1:])
        # The original is untouched: the store's copy stays intact.
        assert verify_chunk(chunk)
        assert np.array_equal(chunk.payload["value"], before["value"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "first", [np.inf, -np.inf, np.nan, -1.0, 0.0, 1.0], ids=str
    )
    def test_never_a_no_op_on_a_float_fixed_point(self, first, dtype):
        # x * 2 + 1 == x for inf, -inf, nan and -1.0: SSSP / BFS
        # distances start at inf, so the fault used to fire unseen.
        values = np.array([first, 2.0, 3.0], dtype=dtype)
        sealed = seal_chunk(
            Chunk(partition=0, kind=ChunkKind.UPDATES, size=3 * values.itemsize,
                  payload={"value": values, "dst": np.arange(3)}, records=3)
        )
        damaged = corrupt_chunk(sealed)
        assert not verify_chunk(damaged)
        assert damaged.payload["value"].tobytes() != values.tobytes()
        assert damaged.payload["value"][1:].tobytes() == values[1:].tobytes()
        if first in (0.0, 1.0):  # the pinned perturbation, where it bites
            assert damaged.payload["value"][0] == first * 2.0 + 1.0

    def test_falls_back_to_an_integer_column(self):
        chunk = _chunk(np.int32, 4096)
        damaged = corrupt_chunk(chunk)
        assert not verify_chunk(damaged)
        assert damaged.payload["dst"][0] == 0  # sorted-name order: dst first

    def test_nothing_numeric_to_corrupt(self):
        for chunk in (
            _chunk(np.float64, 0),
            seal_chunk(
                Chunk(
                    partition=0,
                    kind=ChunkKind.UPDATES,
                    size=32,
                    payload={"value": _column(_PICK_DTYPE, 1, seed=3)},
                )
            ),
        ):
            assert verify_chunk(corrupt_chunk(chunk))
