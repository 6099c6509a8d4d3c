"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_runs_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "b")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "c")
        sim.run()
        assert seen == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_same_time_fifo_order(self):
        sim = Simulator()
        seen = []
        for tag in range(10):
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == list(range(10))

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        # ``nan < 0`` is false: an unguarded NaN would become ``sim.now``
        # when it fires and poison every later ``max(now, busy_until)``.
        sim = Simulator()
        with pytest.raises(SimulationError, match="delay=nan"):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))
        sim.schedule(1.0, lambda: None)
        assert sim.run() == 1.0

    def test_run_until_time_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=2.0)
        assert seen == ["a"]
        assert sim.now == 2.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(5.0, seen.append, "x")
        sim.run()
        assert sim.now == 5.0 and seen == ["x"]

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)


class TestEvents:
    def test_trigger_delivers_value(self):
        sim = Simulator()
        event = sim.event("e")
        seen = []
        event.subscribe(lambda e: seen.append(e.value))
        event.trigger(42)
        assert seen == [42]
        assert event.triggered and event.value == 42

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_subscribe_after_trigger_fires_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.trigger("late")
        seen = []
        event.subscribe(lambda e: seen.append(e.value))
        assert seen == ["late"]

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_timeout_fires_at_right_time(self):
        sim = Simulator()
        event = sim.timeout(2.5, value="done")
        times = []
        event.subscribe(lambda e: times.append(sim.now))
        sim.run()
        assert times == [2.5]
        assert event.value == "done"

    def test_all_of_collects_values_in_order(self):
        sim = Simulator()
        first = sim.timeout(2.0, value="slow")
        second = sim.timeout(1.0, value="fast")
        combined = sim.all_of([first, second])
        sim.run()
        assert combined.triggered
        assert combined.value == ["slow", "fast"]

    def test_all_of_empty_triggers_immediately(self):
        sim = Simulator()
        assert AllOf(sim, []).triggered

    def test_any_of_fires_on_first(self):
        sim = Simulator()
        slow = sim.timeout(2.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        combined = sim.any_of([slow, fast])
        sim.run_until(combined)
        winner, value = combined.value
        assert winner is fast and value == "fast"
        assert sim.now == 1.0

    def test_any_of_requires_children(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            AnyOf(sim, [])


class TestProcesses:
    def test_process_advances_clock(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(sim.now)
            yield sim.timeout(1.5)
            trace.append(sim.now)
            yield sim.timeout(2.5)
            trace.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trace == [0.0, 1.5, 4.0]

    def test_process_return_value_on_finished(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "result"

        process = sim.process(worker())
        assert sim.run_until(process.finished) == "result"

    def test_processes_interleave(self):
        sim = Simulator()
        trace = []

        def worker(name, delay):
            yield sim.timeout(delay)
            trace.append(name)
            yield sim.timeout(delay)
            trace.append(name)

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.5))
        sim.run()
        assert trace == ["a", "b", "a", "b"]

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield Events"):
            sim.run()

    def test_event_value_passed_into_generator(self):
        sim = Simulator()
        seen = []

        def worker():
            value = yield sim.timeout(1.0, value="payload")
            seen.append(value)

        sim.process(worker())
        sim.run()
        assert seen == ["payload"]

    def test_interrupt_raises_in_process(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                caught.append(interrupt.cause)

        process = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            process.interrupt("wake up")

        sim.process(interrupter())
        sim.run()
        assert caught == ["wake up"]
        assert not process.alive

    def test_deadlock_detected_by_run_until(self):
        sim = Simulator()
        never = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until(never)
