"""Unit tests for the storage substrate: chunks, backends, engines, placement."""

import os

import numpy as np
import pytest

from repro.net import GIGE_40, Network
from repro.net.transport import COMPUTE_SERVICE, MESSAGE_KINDS
from repro.sim import Simulator
from repro.store import (
    CentralizedDirectory,
    Chunk,
    ChunkKind,
    FileChunkStore,
    HashedVertexPlacement,
    MemoryChunkStore,
    RandomPlacement,
    SSD_480GB,
    StorageEngine,
)
from repro.store.chunk import split_into_chunks
from repro.store.device import HDD_RAID0, DeviceSpec
from repro.store.integrity import seal_chunk, verify_chunk

from tests.conftest import PROVIDERS, make_store


class TestChunk:
    def test_phantom_detection(self):
        chunk = Chunk(partition=0, kind=ChunkKind.EDGES, size=10)
        assert chunk.is_phantom
        chunk = Chunk(partition=0, kind=ChunkKind.EDGES, size=10, payload={})
        assert not chunk.is_phantom

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Chunk(partition=0, kind=ChunkKind.EDGES, size=-1)

    def test_split_into_chunks(self):
        assert split_into_chunks(10, 4) == [4, 4, 2]
        assert split_into_chunks(8, 4) == [4, 4]
        assert split_into_chunks(0, 4) == []
        assert split_into_chunks(3, 4) == [3]

    def test_split_invalid(self):
        with pytest.raises(ValueError):
            split_into_chunks(10, 0)
        with pytest.raises(ValueError):
            split_into_chunks(-1, 4)


class TestDeviceSpec:
    def test_chunk_time(self):
        device = DeviceSpec("d", bandwidth=100.0, latency=0.5, capacity=10)
        assert device.chunk_time(50) == pytest.approx(1.0)

    def test_presets_ordering(self):
        assert SSD_480GB.bandwidth == 2 * HDD_RAID0.bandwidth
        assert HDD_RAID0.latency > SSD_480GB.latency

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", bandwidth=0, latency=0, capacity=1)


def _edge_chunk(partition=0, size=100, seq=0):
    return Chunk(partition=partition, kind=ChunkKind.EDGES, size=size, records=seq)


def _data_chunk(kind=ChunkKind.EDGES, partition=0, size=100, seq=0, index=0):
    """A chunk with real columns, so the file provider really spills it."""
    column = np.arange(3, dtype=np.int64) + seq
    return Chunk(
        partition=partition,
        kind=kind,
        size=size,
        payload={"dst": column, "src": column * 2},
        index=index,
        records=seq,
    )


def _open_descriptors():
    """Descriptors this process holds, or ``None`` without ``/proc``."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.fixture(params=PROVIDERS)
def store(request, tmp_path):
    return make_store(request.param, tmp_path)


class TestChunkStoreProviders:
    """The read-once / vertex-version bookkeeping, on either provider."""

    def test_read_once_semantics(self, store):
        store.append_chunk(_data_chunk(seq=1))
        store.append_chunk(_data_chunk(seq=2))
        assert store.fetch_any(0, ChunkKind.EDGES).records == 1
        second = store.fetch_any(0, ChunkKind.EDGES)
        assert second.records == 2
        assert np.array_equal(second.payload["src"], [4, 6, 8])
        assert store.fetch_any(0, ChunkKind.EDGES) is None

    def test_reset_cursors_makes_rereadable(self, store):
        store.append_chunk(_data_chunk())
        store.fetch_any(0, ChunkKind.EDGES)
        assert store.fetch_any(0, ChunkKind.EDGES) is None
        store.reset_cursors(ChunkKind.EDGES)
        loaded = store.fetch_any(0, ChunkKind.EDGES)
        assert loaded is not None and loaded.payload is not None

    def test_remaining_and_stored_bytes(self, store):
        store.append_chunk(_data_chunk(size=100))
        store.append_chunk(_data_chunk(size=50))
        assert store.remaining_bytes(0, ChunkKind.EDGES) == 150
        store.fetch_any(0, ChunkKind.EDGES)
        assert store.remaining_bytes(0, ChunkKind.EDGES) == 50
        assert store.stored_bytes(0, ChunkKind.EDGES) == 150
        assert store.total_stored_bytes() == 150
        assert (store.bytes_written, store.bytes_read) == (150, 100)

    def test_partitions_are_independent(self, store):
        store.append_chunk(_data_chunk(partition=0))
        store.append_chunk(_data_chunk(partition=1))
        assert store.fetch_any(0, ChunkKind.EDGES) is not None
        assert store.fetch_any(0, ChunkKind.EDGES) is None
        assert store.fetch_any(1, ChunkKind.EDGES) is not None

    def test_delete_clears_set(self, store):
        store.append_chunk(_data_chunk(ChunkKind.UPDATES, size=10))
        store.delete(0, ChunkKind.UPDATES)
        assert store.fetch_any(0, ChunkKind.UPDATES) is None
        assert store.remaining_bytes(0, ChunkKind.UPDATES) == 0
        # The stream starts over: a chunk appended after the delete is
        # the one read back.
        store.append_chunk(_data_chunk(ChunkKind.UPDATES, seq=5))
        assert store.fetch_any(0, ChunkKind.UPDATES).payload["dst"][0] == 5

    def test_phantom_chunks_pass_through(self, store):
        store.append_chunk(_edge_chunk(seq=1))
        assert store.fetch_any(0, ChunkKind.EDGES).is_phantom

    def test_vertex_chunks_keyed_by_index(self, store):
        for index in range(3):
            store.put_vertex_chunk(
                _data_chunk(ChunkKind.VERTICES, size=10, index=index, seq=index)
            )
        assert store.get_vertex_chunk(0, 1).records == 1
        assert store.get_vertex_chunk(0, 5) is None
        assert store.vertex_chunk_count(0) == 3

    def test_vertex_chunk_overwrite(self, store):
        for records in (1, 2):
            store.put_vertex_chunk(
                _data_chunk(ChunkKind.VERTICES, size=10, seq=records)
            )
        assert store.get_vertex_chunk(0, 0).records == 2
        assert store.get_previous_vertex_chunk(0, 0).records == 1
        assert store.vertex_chunk_count(0) == 1

    def test_vertex_chunk_wrong_method_rejected(self, store):
        with pytest.raises(ValueError):
            store.append_chunk(_data_chunk(ChunkKind.VERTICES, size=1))
        with pytest.raises(ValueError):
            store.put_vertex_chunk(_data_chunk())
        with pytest.raises(ValueError):
            store.replace_vertex_chunk(_data_chunk())


class TestFileChunkStore:
    def test_files_created_on_disk(self, tmp_path):
        store = FileChunkStore(str(tmp_path))
        store.append_chunk(_data_chunk(partition=3))
        assert (tmp_path / "p3.edges").exists()
        # One extent: the two int64 columns back to back, nothing else.
        assert (tmp_path / "p3.edges").stat().st_size == 2 * 3 * 8

    def test_delete_removes_file(self, tmp_path):
        store = FileChunkStore(str(tmp_path))
        store.append_chunk(_data_chunk(partition=1))
        store.delete(1, ChunkKind.EDGES)
        assert not (tmp_path / "p1.edges").exists()
        assert store.fetch_any(1, ChunkKind.EDGES) is None

    def test_reusing_a_root_keeps_one_extent(self, tmp_path):
        """A store truncates each stream on first use: bytes an earlier
        store left behind are unreachable through the new index."""
        for chunks in (2, 1):
            store = FileChunkStore(str(tmp_path))
            for seq in range(chunks):
                store.append_chunk(_data_chunk(seq=seq))
            store.close()
        assert (tmp_path / "p0.edges").stat().st_size == 2 * 3 * 8

    def test_delete_closes_the_stream_and_a_later_append_reads_back(
        self, tmp_path
    ):
        store = FileChunkStore(str(tmp_path))
        store.append_chunk(_data_chunk(ChunkKind.UPDATES, seq=1))
        store.append_chunk(_data_chunk(ChunkKind.EDGES))
        before = _open_descriptors()
        store.delete(0, ChunkKind.UPDATES)
        if before is not None:
            assert _open_descriptors() == before - 1
        store.append_chunk(_data_chunk(ChunkKind.UPDATES, seq=4))
        loaded = store.fetch_any(0, ChunkKind.UPDATES)
        assert np.array_equal(loaded.payload["src"], [8, 10, 12])
        assert store.fetch_any(0, ChunkKind.EDGES) is not None
        store.close()

    @pytest.mark.skipif(
        _open_descriptors() is None, reason="needs /proc/self/fd"
    )
    @pytest.mark.parametrize("ending", ["closed", "dropped"])
    def test_descriptors_come_back_to_baseline(self, tmp_path, ending):
        baseline = _open_descriptors()
        for n in range(50):
            store = FileChunkStore(str(tmp_path / f"s{n}"))
            for kind in (ChunkKind.EDGES, ChunkKind.UPDATES):
                store.append_chunk(_data_chunk(kind, partition=n % 3))
            store.put_vertex_chunk(_data_chunk(ChunkKind.VERTICES))
            assert store.fetch_any(n % 3, ChunkKind.EDGES) is not None
            assert _open_descriptors() == baseline + 3
            if ending == "closed":
                store.close()
                store.close()  # idempotent
            del store
            assert _open_descriptors() == baseline

    @pytest.mark.parametrize("kind", list(ChunkKind), ids=lambda k: k.value)
    def test_rot_outside_the_model_is_caught_on_read(self, tmp_path, kind):
        """A byte that changes on disk behind the store's back, not
        through the provider API, fails the read's CRC walk."""
        store = FileChunkStore(str(tmp_path))
        chunk = seal_chunk(_data_chunk(kind, partition=2, seq=7))
        if kind is ChunkKind.VERTICES:
            store.put_vertex_chunk(chunk)
        else:
            store.append_chunk(chunk)
        with open(tmp_path / f"p2.{kind.value}", "r+b") as stream:
            stream.seek(5)
            byte = stream.read(1)
            stream.seek(5)
            stream.write(bytes([byte[0] ^ 0x10]))
        if kind is ChunkKind.VERTICES:
            loaded = store.get_vertex_chunk(2, 0)
        else:
            loaded = store.fetch_any(2, kind)
        assert loaded.crc == chunk.crc and not loaded.verified
        assert not verify_chunk(loaded)


class TestRandomPlacement:
    def test_write_targets_in_range(self):
        placement = RandomPlacement(4, seed=1)
        targets = {placement.choose_write() for _ in range(100)}
        assert targets <= {0, 1, 2, 3}
        assert len(targets) == 4  # all machines eventually used

    def test_read_respects_exclusions(self):
        placement = RandomPlacement(4, seed=1)
        for _ in range(50):
            choice = placement.choose_read({0, 2})
            assert choice in (1, 3)

    def test_all_excluded_returns_none(self):
        placement = RandomPlacement(2, seed=0)
        assert placement.choose_read({0, 1}) is None

    def test_uniformity(self):
        placement = RandomPlacement(4, seed=9)
        counts = np.bincount(
            [placement.choose_write() for _ in range(4000)], minlength=4
        )
        assert counts.min() > 800  # roughly uniform


class TestHashedVertexPlacement:
    def test_deterministic(self):
        a = HashedVertexPlacement(8)
        b = HashedVertexPlacement(8)
        for partition in range(10):
            for index in range(10):
                assert a.machine_for(partition, index) == b.machine_for(
                    partition, index
                )

    def test_spreads_across_machines(self):
        placement = HashedVertexPlacement(8)
        machines = {
            placement.machine_for(p, i) for p in range(16) for i in range(16)
        }
        assert machines == set(range(8))


def _client(network, machine, keep):
    """Stand in for the compute service on ``machine``: every reply it
    is given goes to ``keep``."""
    network.register(
        machine, COMPUTE_SERVICE,
        dict.fromkeys(MESSAGE_KINDS[COMPUTE_SERVICE], keep),
    )


class TestStorageEngineProtocol:
    def _cluster(self, machines=2):
        sim = Simulator()
        network = Network(sim, machines, GIGE_40)
        engines = [
            StorageEngine(sim, network, m, SSD_480GB, MemoryChunkStore())
            for m in range(machines)
        ]
        self.replies = []
        _client(network, 0, self.replies.append)
        return sim, network, engines

    def _request(self, sim, network, kind, payload):
        network.send(0, 1, "storage", kind, 32, payload=payload)
        sim.run()
        return self.replies[-1]

    def test_read_returns_chunk_then_exhausted(self):
        sim, network, engines = self._cluster()
        engines[1].preload_chunk(_edge_chunk(size=4096))
        reply = self._request(
            sim, network, "read", (1, 0, COMPUTE_SERVICE, 0, ChunkKind.EDGES)
        )
        assert reply.payload[1].size == 4096
        reply = self._request(
            sim, network, "read", (2, 0, COMPUTE_SERVICE, 0, ChunkKind.EDGES)
        )
        assert reply.payload[1] is None
        assert engines[1].exhausted_replies == 1

    def test_write_then_read_back(self):
        sim, network, engines = self._cluster()
        chunk = Chunk(partition=2, kind=ChunkKind.UPDATES, size=1000)
        reply = self._request(sim, network, "write", (5, 0, COMPUTE_SERVICE, chunk))
        assert reply.kind == "write_ack"
        reply = self._request(
            sim, network, "read", (6, 0, COMPUTE_SERVICE, 2, ChunkKind.UPDATES)
        )
        assert reply.payload[1].size == 1000

    def test_vread_vwrite_roundtrip(self):
        sim, network, engines = self._cluster()
        chunk = Chunk(
            partition=0, kind=ChunkKind.VERTICES, size=64, index=3
        )
        self._request(sim, network, "vwrite", (7, 0, COMPUTE_SERVICE, chunk))
        reply = self._request(sim, network, "vread", (8, 0, COMPUTE_SERVICE, 0, 3))
        assert reply.payload[1].index == 3

    def test_device_time_charged(self):
        sim, network, engines = self._cluster()
        size = 4 * 1024 * 1024
        engines[1].preload_chunk(_edge_chunk(size=size))
        self._request(sim, network, "read", (1, 0, COMPUTE_SERVICE, 0, ChunkKind.EDGES))
        expected_device = SSD_480GB.latency + size / SSD_480GB.bandwidth
        assert sim.now > expected_device  # device + network time elapsed
        assert engines[1].bytes_served() == size

    def test_remaining_bytes_local_query(self):
        sim, network, engines = self._cluster()
        engines[0].preload_chunk(_edge_chunk(size=100))
        assert engines[0].remaining_bytes(0, ChunkKind.EDGES) == 100
        assert engines[0].remaining_bytes(0, ChunkKind.UPDATES) == 0


class TestCentralizedDirectory:
    def test_lookup_roundtrip(self):
        sim = Simulator()
        network = Network(sim, 4, GIGE_40)
        directory = CentralizedDirectory(sim, network, home=0)
        replies = []
        _client(network, 2, replies.append)
        directory.lookup_from(2, COMPUTE_SERVICE, request_id=42)
        sim.run()
        request_id, location = replies[0].payload
        assert request_id == 42
        assert 0 <= location < 4
        assert directory.lookups == 1

    def test_lookups_serialize(self):
        """Concurrent lookups queue at the single directory server."""
        sim = Simulator()
        network = Network(sim, 2, GIGE_40)
        directory = CentralizedDirectory(
            sim, network, home=0, lookups_per_second=10.0
        )
        arrival_times = []
        _client(network, 1, lambda _reply: arrival_times.append(sim.now))
        for request_id in range(3):
            directory.lookup_from(1, COMPUTE_SERVICE, request_id)
        sim.run()
        assert len(arrival_times) == 3
        gaps = np.diff(arrival_times)
        assert (gaps > 0.09).all()  # ~0.1 s service time each


class TestFio:
    def test_measured_matches_closed_form(self):
        from repro.store.fio import effective_bandwidth, measure_sequential_bandwidth

        result = measure_sequential_bandwidth(
            SSD_480GB, chunk_bytes=4 * 1024 * 1024, total_bytes=10**9
        )
        assert result.bandwidth == pytest.approx(
            effective_bandwidth(SSD_480GB, 4 * 1024 * 1024), rel=1e-6
        )

    def test_latency_degrades_small_chunks(self):
        from repro.store.fio import measure_sequential_bandwidth

        big = measure_sequential_bandwidth(
            SSD_480GB, chunk_bytes=4 * 1024 * 1024, total_bytes=10**8
        )
        small = measure_sequential_bandwidth(
            SSD_480GB, chunk_bytes=16 * 1024, total_bytes=10**7
        )
        assert small.bandwidth < big.bandwidth
        # 4 MB chunks get within 2% of the line rate (the paper's point
        # about the chunk size being "large enough to appear sequential").
        assert big.bandwidth > 0.98 * SSD_480GB.bandwidth

    def test_summary_mentions_device(self):
        from repro.store.fio import measure_sequential_bandwidth

        result = measure_sequential_bandwidth(
            HDD_RAID0, chunk_bytes=1 << 20, total_bytes=10**8
        )
        assert "HDD" in result.summary()

    def test_invalid_parameters(self):
        from repro.store.fio import measure_sequential_bandwidth

        with pytest.raises(ValueError):
            measure_sequential_bandwidth(SSD_480GB, chunk_bytes=0)
        with pytest.raises(ValueError):
            measure_sequential_bandwidth(
                SSD_480GB, chunk_bytes=1024, total_bytes=10
            )
