"""Core discrete-event engine: simulator clock, events and processes.

The model follows the classic generator-coroutine style: a *process* is a
Python generator that ``yield``\\ s :class:`Event` objects; the simulator
resumes the generator when the yielded event fires, sending the event's
value back into the generator.  Time only advances between events.

Determinism: events scheduled for the same timestamp fire in FIFO order
of scheduling (a monotone sequence number breaks ties), so simulations
are exactly reproducible for a given seed.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class DeadlineExceeded(SimulationError):
    """A watchdog deadline fired before the run completed.

    The chaos fuzzer arms one per episode: a fault schedule that wedges
    the cluster (livelock, recovery loop, lost wakeup) would otherwise
    run the simulation forever — simulated time advances, nothing
    completes.  The watchdog callback raises this out of the run loop,
    turning a hang into a reportable, shrinkable violation.
    """


class Interrupt(Exception):
    """Thrown into a process that is interrupted while waiting.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *untriggered*; calling :meth:`trigger` fires it,
    invoking all registered callbacks with the event itself.  Processes
    wait on events by yielding them.  A wait ends when its event fires,
    or when the process is killed (:meth:`Process.kill`).
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_value", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has no value yet")
        return self._value

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event now, delivering ``value`` to all waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        return self

    def subscribe(self, callback: Callable[["Event"], None]) -> None:
        """Invoke ``callback(event)`` when the event fires (or immediately
        if it already has)."""
        if self._triggered:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class AllOf(Event):
    """Composite event that fires when *all* child events have fired.

    Its value is the list of the children's values in the original order.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.trigger([])
            return
        for child in self._children:
            child.subscribe(self._on_child)

    def _on_child(self, child: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([c.value for c in self._children])


class AnyOf(Event):
    """Composite event that fires when *any* child event fires.

    Its value is a ``(event, value)`` pair identifying which child fired
    first.
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for child in self._children:
            child.subscribe(self._on_child)

    def _on_child(self, child: Event) -> None:
        if not self._triggered:
            self.trigger((child, child.value))


ProcessGenerator = Generator[Event, Any, Any]


class Process:
    """A generator coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` objects; when a yielded
    event fires, the generator is resumed with the event's value.  When
    the generator returns, :attr:`finished` fires with its return value.
    """

    __slots__ = ("sim", "name", "_gen", "finished", "_waiting_on", "_interrupts")

    def __init__(self, sim: "Simulator", gen: ProcessGenerator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.finished = Event(sim, name=f"{self.name}.finished")
        self._waiting_on: Optional[Event] = None
        self._interrupts: List[Interrupt] = []
        # Start the process at the current simulated time, but *after*
        # the caller finishes its own step: schedule with zero delay.
        sim.schedule(0.0, self._resume, None, None)
        # Lifecycle hook (observability): announce creation/completion.
        hook = sim.process_hook
        if hook is not None:
            hook(self, "start")
            self.finished.subscribe(lambda _e: hook(self, "finish"))

    @property
    def alive(self) -> bool:
        return not self.finished.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait."""
        if not self.alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        self._interrupts.append(Interrupt(cause))
        self.sim.schedule(0.0, self._deliver_interrupts)

    def kill(self, cause: Any = None) -> None:
        """Interrupt the process if it is still alive; no-op otherwise.

        Fault injection uses this to fence a crashed machine's processes:
        unlike :meth:`interrupt`, killing an already-finished process is
        not an error (the supervisor cannot know which of a machine's
        processes happened to finish before the crash struck).
        """
        if self.alive:
            self.interrupt(cause)

    def _deliver_interrupts(self) -> None:
        if not self.alive and self._interrupts:
            self._interrupts.clear()
            return
        while self._interrupts and self.alive:
            interrupt = self._interrupts.pop(0)
            self._waiting_on = None
            self._step(throw=interrupt)

    def _resume(self, event: Optional[Event], _unused: Any = None) -> None:
        self._step(value=event.value if event is not None else None)

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup (e.g. after an interrupt retargeted us)
        self._waiting_on = None
        self._step(event._value)

    def _step(self, value: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self._gen.throw(throw)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.finished.trigger(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: terminate quietly.
            self.finished.trigger(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name} yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.subscribe(self._on_event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "finished"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """The discrete-event loop: a clock plus a time-ordered callback heap."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False
        #: Optional lifecycle hook ``fn(process, phase)`` invoked with
        #: ``phase in ("start", "finish")`` for every process and service
        #: registration (anything with a ``name``) — the tracer uses it
        #: for process naming; ``None`` costs nothing.
        self.process_hook: Optional[Callable[["Process", str], None]] = None

    # -- scheduling ---------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # also rejects NaN, which would poison ``now``
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, args))

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``when``, exactly:
        the heap entry carries ``when`` itself, not ``now + (when -
        now)``, which can be an ulp off.

        Every heap push takes its tie-break from ``_seq``, wherever it is
        made (the transport's two wire hops push inline with
        ``heappush``), so ``_seq`` counts all of them.
        """
        if not when >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule in the past (when={when}, now={self.now})"
            )
        self._seq += 1
        heappush(self._heap, (when, self._seq, fn, args))

    # -- event factories ----------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        event = Event(self, "timeout")
        self.schedule(delay, event.trigger, value)
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Register a generator as a simulation process."""
        return Process(self, gen, name=name)

    # -- execution ----------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event heap.

        Stops when the heap is empty, when the clock would pass ``until``,
        or after ``max_events`` callbacks (a runaway guard).  Returns the
        final simulated time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        count = 0
        heap, heappop = self._heap, heapq.heappop
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    break
                self.now, _seq, fn, args = heappop(heap)
                fn(*args)
                count += 1
                if max_events is not None and count >= max_events:
                    raise SimulationError(
                        f"simulation exceeded max_events={max_events}"
                    )
        finally:
            self._running = False
        return self.now

    def run_until(self, event: Event) -> Any:
        """Run until ``event`` fires; return its value."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap, heappop = self._heap, heapq.heappop
        try:
            while not event._triggered:
                if not heap:
                    raise SimulationError(
                        f"deadlock: event {event.name!r} can never fire "
                        f"(event heap empty at t={self.now:g})"
                    )
                self.now, _seq, fn, args = heappop(heap)
                fn(*args)
        finally:
            self._running = False
        return event._value
