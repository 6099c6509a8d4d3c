"""Synchronization helpers built on the event kernel.

Chaos places a global barrier after every scatter phase and every gather
phase (Section 4).  :class:`Barrier` is a reusable cyclic barrier; the
time a party spends at it is charged by the caller (the compute engine's
``Breakdown.barrier``, Figure 17).  A wait ends when the barrier
releases, or when the rollback fence kills the waiting process.
"""

from __future__ import annotations

from typing import List

from repro.sim.engine import Event, SimulationError, Simulator


class Barrier:
    """Reusable cyclic barrier for a fixed set of parties.

    Each party calls :meth:`wait`, receiving an event that fires when all
    parties of the current generation have arrived.  The barrier then
    resets for the next generation.
    """

    def __init__(
        self,
        sim: Simulator,
        parties: int,
        name: str = "barrier",
    ):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.sim = sim
        self.name = name
        self.parties = parties
        self.generation = 0
        self._arrived: List[Event] = []

    def wait(self) -> Event:
        """Arrive at the barrier; the returned event fires on release."""
        if len(self._arrived) >= self.parties:
            raise SimulationError(f"barrier {self.name}: too many arrivals")
        event = Event(self.sim, name=f"{self.name}.wait(gen={self.generation})")
        self._arrived.append(event)
        if len(self._arrived) == self.parties:
            waiters, self._arrived = self._arrived, []
            self.generation += 1
            for waiter in waiters:
                waiter.trigger(self.generation)
        return event

    @property
    def waiting(self) -> int:
        return len(self._arrived)


class Latch:
    """Count-down latch: fires its event after ``count`` calls to
    :meth:`count_down`."""

    def __init__(self, sim: Simulator, count: int, name: str = "latch"):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.sim = sim
        self.name = name
        self._remaining = count
        self.done = Event(sim, name=f"{name}.done")
        if count == 0:
            self.done.trigger()

    @property
    def remaining(self) -> int:
        return self._remaining

    def count_down(self) -> None:
        if self._remaining <= 0:
            raise SimulationError(f"latch {self.name} already released")
        self._remaining -= 1
        if self._remaining == 0:
            self.done.trigger()


class WaitGroup:
    """Dynamic latch: add work with :meth:`add`, finish with :meth:`done_one`.

    ``wait()`` returns an event that fires when the outstanding count
    drops to zero (immediately if already zero).
    """

    def __init__(self, sim: Simulator, name: str = "waitgroup"):
        self.sim = sim
        self.name = name
        self._outstanding = 0
        self._waiters: List[Event] = []

    @property
    def outstanding(self) -> int:
        return self._outstanding

    def add(self, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be >= 0")
        self._outstanding += count

    def done_one(self) -> None:
        if self._outstanding <= 0:
            raise SimulationError(f"waitgroup {self.name} negative count")
        self._outstanding -= 1
        if self._outstanding == 0:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.trigger()

    def wait(self) -> Event:
        event = Event(self.sim, name=f"{self.name}.wait")
        if self._outstanding == 0:
            event.trigger()
        else:
            self._waiters.append(event)
        return event
