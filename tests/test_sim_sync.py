"""Unit tests for barriers, latches and wait groups."""

import pytest

from repro.sim import Barrier, Latch, Simulator, WaitGroup
from repro.sim.engine import SimulationError


class TestBarrier:
    def test_releases_when_all_arrive(self):
        sim = Simulator()
        barrier = Barrier(sim, parties=3)
        first = barrier.wait()
        second = barrier.wait()
        assert not first.triggered and not second.triggered
        third = barrier.wait()
        assert first.triggered and second.triggered and third.triggered

    def test_generation_increments(self):
        sim = Simulator()
        barrier = Barrier(sim, parties=2)
        a = barrier.wait()
        barrier.wait()  # chaos: ignore[CHX011] release asserted via `a`
        assert a.value == 1
        b = barrier.wait()
        barrier.wait()  # chaos: ignore[CHX011] release asserted via `b`
        assert b.value == 2
        assert barrier.generation == 2

    def test_cyclic_reuse(self):
        sim = Simulator()
        barrier = Barrier(sim, parties=2)
        trace = []

        def party(name, delay):
            for round_number in range(3):
                yield sim.timeout(delay)
                yield barrier.wait()
                trace.append((round_number, name, sim.now))

        sim.process(party("fast", 1.0))
        sim.process(party("slow", 2.0))
        sim.run()
        # Rounds release at the slow party's pace: t = 2, 4, 6.
        release_times = [t for (_r, _n, t) in trace]
        assert release_times == [2.0, 2.0, 4.0, 4.0, 6.0, 6.0]

    def test_wait_time_accumulates(self):
        # The fast party waits from its arrival (t = 0) to the slow
        # party's (t = 5); the slow party is released as it arrives.
        sim = Simulator()
        barrier = Barrier(sim, parties=2)
        waited = []

        def party(delay):
            yield sim.timeout(delay)
            arrived = sim.now
            yield barrier.wait()
            waited.append(sim.now - arrived)

        sim.process(party(0.0))
        sim.process(party(5.0))
        sim.run()
        assert sorted(waited) == [0.0, 5.0]

    def test_single_party_releases_immediately(self):
        sim = Simulator()
        barrier = Barrier(sim, parties=1)
        assert barrier.wait().triggered

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            Barrier(Simulator(), parties=0)


class TestLatch:
    def test_counts_down_to_release(self):
        sim = Simulator()
        latch = Latch(sim, count=2)
        assert not latch.done.triggered
        latch.count_down()
        assert not latch.done.triggered
        latch.count_down()
        assert latch.done.triggered

    def test_zero_count_released_at_start(self):
        sim = Simulator()
        assert Latch(sim, count=0).done.triggered

    def test_extra_count_down_rejected(self):
        sim = Simulator()
        latch = Latch(sim, count=1)
        latch.count_down()
        with pytest.raises(SimulationError):
            latch.count_down()


class TestWaitGroup:
    def test_wait_with_nothing_outstanding_is_immediate(self):
        sim = Simulator()
        group = WaitGroup(sim)
        assert group.wait().triggered

    def test_wait_blocks_until_all_done(self):
        sim = Simulator()
        group = WaitGroup(sim)
        group.add(2)
        waiter = group.wait()
        group.done_one()
        assert not waiter.triggered
        group.done_one()
        assert waiter.triggered

    def test_add_after_done_reblocks_new_waiters(self):
        sim = Simulator()
        group = WaitGroup(sim)
        group.add(1)
        group.done_one()
        group.add(1)
        waiter = group.wait()
        assert not waiter.triggered
        group.done_one()
        assert waiter.triggered

    def test_done_without_add_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            WaitGroup(sim).done_one()
