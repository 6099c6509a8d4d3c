"""Unit tests for the network substrate."""

import pytest

from repro.net import GIGE_1, GIGE_40, Network, NetworkConfig
from repro.net.transport import MEMBERSHIP_SERVICE, STORAGE_SERVICE
from repro.sim import Simulator
from repro.sim.engine import SimulationError


def _collector(network, machine, fence=None):
    """Register the membership service on ``machine`` with one handler
    that keeps every heartbeat it is given; the kept list."""
    got = []
    network.register(
        machine, MEMBERSHIP_SERVICE, {"heartbeat": got.append}, fence
    )
    return got


class TestNetworkConfig:
    def test_presets_bandwidth_ordering(self):
        assert GIGE_40.bandwidth == 40 * GIGE_1.bandwidth

    def test_round_trip_is_twice_one_way(self):
        assert GIGE_40.round_trip() == pytest.approx(2 * GIGE_40.latency)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth=0, latency=1e-6)
        with pytest.raises(ValueError):
            NetworkConfig(bandwidth=1e9, latency=-1)


class TestTransport:
    def _network(self, machines=2, config=None):
        sim = Simulator()
        return sim, Network(sim, machines, config or GIGE_40)

    def test_remote_delivery_time(self):
        sim, network = self._network()
        network.register(1, "svc")
        size = 1_000_000
        delivered = network.send(0, 1, "svc", "data", size, track=True)
        sim.run_until(delivered)
        wire = size + Network.MESSAGE_OVERHEAD
        expected = wire / GIGE_40.bandwidth * 2 + GIGE_40.latency
        assert sim.now == pytest.approx(expected)

    def test_local_delivery_is_free(self):
        sim, network = self._network()
        network.register(0, "svc")
        delivered = network.send(0, 0, "svc", "data", 10**9, track=True)
        sim.run_until(delivered)
        assert sim.now == 0.0
        assert network.total_bytes() == 0

    def test_message_payload_and_metadata(self):
        sim, network = self._network()
        got = _collector(network, 1)
        network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", 100,
                     payload={"x": 1})
        sim.run()
        (message,) = got
        assert message.src == 0 and message.dst == 1
        assert message.kind == "heartbeat" and message.payload == {"x": 1}

    def test_switch_counts_remote_bytes(self):
        sim, network = self._network()
        network.register(1, "svc")
        network.send(0, 1, "svc", "a", 1000)
        sim.run()
        assert network.total_bytes() == 1000 + Network.MESSAGE_OVERHEAD
        assert network.switch.messages_forwarded == 1

    def test_concurrent_sends_share_nic(self):
        """Two messages from one sender serialize on its egress NIC."""
        sim, network = self._network(machines=3)
        network.register(1, "svc")
        network.register(2, "svc")
        arrivals = []
        size = 5_000_000  # 1 ms serialization at 5 GB/s
        for dst in (1, 2):
            network.send(0, dst, "svc", "bulk", size, track=True).subscribe(
                lambda e: arrivals.append(sim.now)
            )
        sim.run()
        assert len(arrivals) == 2
        # Second message waits for the first's egress serialization.
        assert arrivals[1] - arrivals[0] == pytest.approx(
            (size + Network.MESSAGE_OVERHEAD) / GIGE_40.bandwidth
        )

    def test_slow_network_takes_longer(self):
        size = 10_000_000
        times = {}
        for name, config in (("fast", GIGE_40), ("slow", GIGE_1)):
            sim = Simulator()
            network = Network(sim, 2, config)
            network.register(1, "svc")
            done = network.send(0, 1, "svc", "x", size, track=True)
            sim.run_until(done)
            times[name] = sim.now
        assert times["slow"] > 10 * times["fast"]

    def test_unknown_service_raises(self):
        sim, network = self._network()
        with pytest.raises(SimulationError, match="no service"):
            network.send(0, 1, "missing", "x", 10)

    def test_invalid_destination_raises(self):
        sim, network = self._network()
        network.register(1, "svc")
        with pytest.raises(SimulationError, match="invalid destination"):
            network.send(0, 7, "svc", "x", 10)

    def test_nic_byte_accounting(self):
        sim, network = self._network()
        network.register(1, "svc")
        network.send(0, 1, "svc", "x", 500)
        sim.run()
        wire = 500 + Network.MESSAGE_OVERHEAD
        assert network.nics[0].bytes_sent() == wire
        assert network.nics[1].bytes_received() == wire

    def test_invalid_source_raises(self):
        # A negative source used to wrap around and charge the *last*
        # endpoint's egress NIC; one past the end died with a bare
        # IndexError inside the reachability check.
        sim, network = self._network(machines=3)
        got = _collector(network, 1)
        for src in (-1, 3, 5):
            with pytest.raises(SimulationError, match="invalid source machine"):
                network.send(src, 1, MEMBERSHIP_SERVICE, "heartbeat", 10)
        sim.run()
        assert got == []
        assert all(nic.bytes_sent() == 0 for nic in network.nics)

    def test_message_has_no_instance_dict(self):
        sim, network = self._network()
        network.register(1, "svc")
        message = sim.run_until(
            network.send(0, 1, "svc", "data", 8, payload="p", track=True)
        )
        assert not hasattr(message, "__dict__")
        assert (message.src, message.dst, message.service, message.kind,
                message.size, message.payload, message.seq) == (
            0, 1, "svc", "data", 8, "p", 1)
        with pytest.raises(AttributeError):
            message.extra = 1


class _ReferenceWindow:
    """What ``_DedupWindow`` means, with no floor and no fast path:
    remember everything ever delivered, and refuse whatever has fallen
    ``WINDOW`` behind the newest number accepted so far."""

    def __init__(self, window):
        self.window, self.delivered, self.horizon = window, set(), 0

    def accept(self, seq):
        if seq <= self.horizon or seq in self.delivered:
            return False
        self.delivered.add(seq)
        self.horizon = max(self.horizon, seq - self.window)
        return True


class TestDedupWindow:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_set_based_reference(self, seed):
        import random

        from repro.net.transport import _DedupWindow

        rng = random.Random(seed)
        stream, next_seq = [], 1
        while next_seq < 4 * _DedupWindow.WINDOW:
            # Nothing is lost at first, so reordering gaps close again and
            # the in-order branch keeps re-engaging; then drops begin.
            roll = rng.random() * (0.88 if next_seq < 2000 else 1.0)
            if roll < 0.80:  # in order: the fast path
                burst = list(range(next_seq, next_seq + rng.randint(1, 40)))
            elif roll < 0.88:  # a burst arriving shuffled
                burst = list(range(next_seq, next_seq + rng.randint(2, 12)))
                rng.shuffle(burst)
            elif roll < 0.94:  # a dropped run: a gap that never fills
                next_seq += rng.randint(1, 5)
                continue
            else:  # one long drop: the next arrival slides the window
                next_seq += _DedupWindow.WINDOW + rng.randint(1, 50)
                continue
            next_seq = max(burst) + 1
            stream += burst
            # Duplicates: of this burst, of old traffic, of the future gap.
            stream += rng.choices(burst, k=rng.randint(0, 2))
            if rng.random() < 0.3:
                stream.append(rng.randint(1, next_seq))
        window, reference = _DedupWindow(), _ReferenceWindow(_DedupWindow.WINDOW)
        verdicts = [window.accept(seq) for seq in stream]
        assert verdicts == [reference.accept(seq) for seq in stream]
        assert 0.5 < sum(verdicts) / len(verdicts) < 1.0
        assert len(window.seen) <= _DedupWindow.WINDOW

    def test_in_order_stream_never_touches_the_set(self):
        from repro.net.transport import _DedupWindow

        window = _DedupWindow()
        assert all(window.accept(seq) for seq in range(1, 1000))
        assert window.floor == 999 and not window.seen
        assert not window.accept(999) and not window.accept(1)
        assert window.accept(1001) and window.seen == {1001}
        assert window.accept(1000) and window.floor == 1001 and not window.seen


class TestWireHops:
    """A remote message is two heap events: the send books the egress
    slot and pushes the arrival to ``egress_done + latency``; the
    arrival drops the frame if either end was down at ``egress_done``,
    counts the switch crossing and books the ingress slot.

    One frame of 1 MB on 40 GigE: ``egress_done`` is ~200 us, the
    arrival ~250 us, the delivery ~450 us.
    """

    SIZE = 1_000_000
    WIRE = SIZE + Network.MESSAGE_OVERHEAD

    def _send(self, **flips):
        """Send one frame 0 -> 1 and schedule each named flip
        ``(time, (endpoint, reachable))``; the simulator, the network
        and the frames machine 1 kept."""
        sim = Simulator()
        network = Network(sim, 2, GIGE_40)
        got = _collector(network, 1)
        network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", self.SIZE)
        for when, (endpoint, reachable) in sorted(flips.values()):
            sim.schedule_at(when, network.set_reachable, endpoint, reachable)
        return sim, network, got

    @property
    def egress_done(self):
        return self.WIRE / GIGE_40.bandwidth

    def test_frame_lands_where_the_two_step_sum_did(self):
        sim, network, got = self._send()
        sim.run()
        assert len(got) == 1
        arrival = self.egress_done + GIGE_40.latency
        assert sim.now == arrival + (
            (arrival + self.WIRE / GIGE_40.bandwidth) - arrival
        )

    def test_sender_crashed_in_the_egress_queue_drops_the_frame(self):
        sim, network, got = self._send(down=(100e-6, (0, False)))
        sim.run()
        assert got == []
        assert network.messages_dropped == 1
        assert network.total_bytes() == 0
        assert network.switch.messages_forwarded == 0
        assert network.nics[1].bytes_received() == 0

    def test_receiver_down_at_egress_done_drops_even_if_back_by_arrival(self):
        sim, network, got = self._send(
            down=(100e-6, (1, False)), up=(220e-6, (1, True))
        )
        sim.run()
        assert got == []
        assert network.messages_dropped == 1
        assert network.total_bytes() == 0

    def test_receiver_lost_after_egress_done_drops_at_arrival(self):
        sim, network, got = self._send(down=(220e-6, (1, False)))
        sim.run(until=240e-6)
        assert network.messages_dropped == 0
        sim.run()
        assert got == []
        assert network.messages_dropped == 1
        # The frame crossed the switch before the receiver refused it.
        assert network.total_bytes() == self.WIRE
        assert network.switch.messages_forwarded == 1

    def test_flip_at_exactly_egress_done_counts_as_before_the_hop(self):
        """The one tie the two-event wire orders differently: when the
        egress hop was an event, a flip scheduled after the send at the
        same instant ran after it, and the frame went out."""
        sim, network, got = self._send(
            down=(self.egress_done, (1, False)),
            up=(self.egress_done + 10e-6, (1, True)),
        )
        sim.run()
        assert got == []
        assert network.messages_dropped == 1

    @pytest.mark.parametrize("kind", ["dup", "reorder"])
    def test_re_arrival_is_not_rechecked_nor_recounted(self, kind):
        sim, network, got = self._send()
        network.inject_fault(1, kind, delay=1e-3)
        # The sender goes down after its frame left: a re-arrival is
        # not checked at egress again.
        sim.schedule_at(300e-6, network.set_reachable, 0, False)
        sim.run()
        assert network.messages_dropped == 0
        assert len(got) == 1
        assert network.switch.messages_forwarded == 1
        assert network.total_bytes() == self.WIRE
        if kind == "dup":
            assert network.nics[1].bytes_received() == 2 * self.WIRE
            assert network.duplicates_suppressed == 1
        else:
            assert network.messages_reordered == 1


class TestScheduleAt:
    def test_lands_on_when_bit_for_bit(self):
        # ``now + (when - now)`` is an ulp above ``when`` here.
        now, when = 6.40314382269973e-05, 0.00019989507957182746
        assert now + (when - now) != when
        sim, landed = Simulator(), []
        sim.schedule_at(
            now, lambda: sim.schedule_at(when, lambda: landed.append(sim.now))
        )
        sim.run()
        assert [t.hex() for t in landed] == [when.hex()]

    def test_past_or_nan_is_refused(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        for when in (0.5, float("nan")):
            with pytest.raises(SimulationError, match="past"):
                sim.schedule_at(when, lambda: None)

    def test_every_push_takes_the_next_tie_break(self):
        sim = Simulator()
        network = Network(sim, 2, GIGE_40)
        network.register(1, "svc")
        network.send(0, 1, "svc", "data", 100)
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        # The arrival and the delivery (pushed by the transport) and the
        # call: the sink registration pushes nothing.
        assert sim._seq == 3


class TestArmedFaults:
    def _pair(self):
        sim = Simulator()
        network = Network(sim, 3, GIGE_40)
        network.register(1, "svc")
        return sim, network

    def test_first_frame_after_inject_consumes_the_fault(self):
        # Traffic before the fault is armed takes the unarmed fast path;
        # arming must take effect on the very next frame received.
        sim, network = self._pair()
        got = _collector(network, 1)
        for _ in range(3):
            network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", 100)
        sim.run()
        assert network.messages_duplicated == 0
        network.inject_fault(1, "dup")
        network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", 100)
        network.send(2, 1, MEMBERSHIP_SERVICE, "heartbeat", 100)
        sim.run()
        assert network.messages_duplicated == 1
        assert network.duplicates_suppressed == 1
        assert len(got) == 5
        assert not network._pending_faults

    def test_fault_armed_while_frame_is_in_flight_still_applies(self):
        sim, network = self._pair()
        network.send(0, 1, "svc", "data", 1_000_000)  # ~200 us on the wire
        sim.run(until=50e-6)
        network.inject_fault(1, "reorder", delay=1e-3)
        sim.run()
        assert network.messages_reordered == 1
        assert sim.now > 1e-3

    def test_corrupt_stays_armed_past_chunkless_frames(self):
        sim, network = self._pair()
        network.inject_fault(1, "corrupt")
        network.send(0, 1, "svc", "ping", 8, payload=(1, None))
        sim.run()
        assert network.messages_corrupted == 0
        assert list(network._pending_faults) == [1]

    def test_fault_on_another_endpoint_is_left_alone(self):
        sim, network = self._pair()
        network.register(2, "svc")
        network.inject_fault(2, "dup")
        network.send(0, 1, "svc", "data", 100)
        sim.run()
        assert network.messages_duplicated == 0
        network.send(0, 2, "svc", "data", 100)
        sim.run()
        assert network.messages_duplicated == 1


class TestEndpoint:
    """The one receive path: a registration's handler runs where its
    message lands, behind the kind check and the fence."""

    def _network(self, machines=2):
        sim = Simulator()
        return sim, Network(sim, machines, GIGE_40)

    def test_handler_table_must_equal_the_declared_kinds(self):
        sim, network = self._network()
        for table in ({}, {"heartbeat": print, "beat": print}, {"beat": print}):
            with pytest.raises(SimulationError, match="declared kinds"):
                network.register(1, MEMBERSHIP_SERVICE, table)
        with pytest.raises(SimulationError, match="declared kinds"):
            network.register(1, "svc", {"data": print})

    def test_undeclared_kind_raises_at_delivery(self):
        sim, network = self._network()
        _collector(network, 1)
        network.send(0, 1, MEMBERSHIP_SERVICE, "heartbaet", 8)
        with pytest.raises(SimulationError, match=(
            "machine 1: service 'membership' received undeclared "
            "message kind 'heartbaet'"
        )):
            sim.run()

    def test_fence_drops_a_stale_epoch(self):
        sim, network = self._network()
        got = _collector(network, 1, fence=lambda m: m.epoch == 2)
        for epoch in (1, 2, 3):
            network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", 8,
                         epoch=epoch)
        sim.run()
        assert [m.epoch for m in got] == [2]

    def test_storage_counts_what_its_fence_drops(self):
        from repro.store.device import SSD_BENCH as SSD
        from repro.store.engine import CONTROL_BYTES, StorageEngine
        from repro.store.memstore import MemoryChunkStore
        from repro.store.chunk import ChunkKind

        sim, network = self._network()
        store = StorageEngine(sim, network, 1, SSD, MemoryChunkStore())
        store.advance_epoch(2)
        for epoch in (1, 2):
            network.send(0, 1, STORAGE_SERVICE, "delete", CONTROL_BYTES,
                         payload=(0, ChunkKind.UPDATES), epoch=epoch)
        sim.run()
        assert store.stale_dropped == 1

    def test_track_returns_an_event_that_fires_on_delivery(self):
        sim, network = self._network()
        got = _collector(network, 1)
        assert network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", 8) is None
        delivered = network.send(
            0, 1, MEMBERSHIP_SERVICE, "heartbeat", 8, payload=7, track=True
        )
        assert not delivered.triggered
        message = sim.run_until(delivered)
        assert message.payload == 7 and got[-1] is message

    def test_handler_runs_at_the_delivery_instant(self):
        sim, network = self._network()
        times = []
        network.register(
            1, MEMBERSHIP_SERVICE, {"heartbeat": lambda m: times.append(sim.now)}
        )
        delivered = network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", 8,
                                 track=True)
        delivered.subscribe(lambda e: times.append(sim.now))
        sim.run()
        assert len(times) == 2 and times[0] == times[1] > 0

    def test_handlers_run_in_delivery_order(self):
        sim, network = self._network()
        got = _collector(network, 1)
        for payload in range(5):
            network.send(0, 1, MEMBERSHIP_SERVICE, "heartbeat", 8,
                         payload=payload)
        sim.run()
        assert [m.payload for m in got] == list(range(5))

    def test_message_before_the_first_instant_waits_for_it(self):
        # A registration starts receiving at the zero-delay instant
        # after it is made, as the dispatcher process it replaces did:
        # a message landing in between is handled then, in order.
        sim, network = self._network()
        network.register(0, MEMBERSHIP_SERVICE)  # a sink, for now
        network.send(0, 0, MEMBERSHIP_SERVICE, "heartbeat", 8, payload="x")
        got = []
        network.register(0, MEMBERSHIP_SERVICE, {"heartbeat": got.append})
        sim.schedule(0.0, lambda: got.append("first instant"))
        sim.run()
        assert [getattr(m, "payload", m) for m in got] == [
            "x", "first instant"]

    def test_sink_drops_what_reaches_it(self):
        sim, network = self._network()
        sink = network.register(1, "svc")
        delivered = network.send(0, 1, "svc", "anything", 8, track=True)
        sim.run()
        assert delivered.triggered
        assert not sink.alive and not sink.receiving

    def test_close_stops_at_once_and_kill_at_the_next_instant(self):
        sim, network = self._network()
        phases = []
        sim.process_hook = lambda endpoint, phase: phases.append(
            (phase, endpoint.name, sim.now)
        )
        got = []
        endpoint = network.register(
            0, MEMBERSHIP_SERVICE, {"heartbeat": got.append}
        )
        sim.run()
        network.send(0, 0, MEMBERSHIP_SERVICE, "heartbeat", 8, payload=1)
        endpoint.kill()
        endpoint.kill()  # one landing per kill while alive; the second is a no-op
        network.send(0, 0, MEMBERSHIP_SERVICE, "heartbeat", 8, payload=2)
        assert endpoint.alive
        sim.run()
        assert [m.payload for m in got] == [1]  # 2 landed after the kill did
        assert not endpoint.alive
        assert phases == [("start", "m0.membership", 0.0),
                          ("finish", "m0.membership", 0.0)]
        network.register(0, MEMBERSHIP_SERVICE, {"heartbeat": got.append})
        sim.run()
        endpoint.close()
        network.send(0, 0, MEMBERSHIP_SERVICE, "heartbeat", 8, payload=3)
        sim.run()
        assert [m.payload for m in got] == [1] and endpoint.alive
