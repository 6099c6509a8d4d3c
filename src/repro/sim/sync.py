"""Synchronization helpers built on the event kernel.

Chaos places a global barrier after every scatter phase and every gather
phase (Section 4).  :class:`Barrier` is a reusable cyclic barrier whose
``wait`` events also record per-party waiting time, feeding the runtime
breakdown of Figure 17.
"""

from __future__ import annotations

from typing import List, Optional

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
        self._arrival_times: List[float] = []
        self._arrival_parties: List[Optional[int]] = []
        # Total time spent waiting at this barrier, per party index order
        # of arrival (aggregated, for diagnostics).
        self.total_wait_time = 0.0
        # Stall detection (fault tolerance): if a generation stays open
        # longer than ``_stall_timeout`` after its first arrival, the
        # watchdog reports the missing parties — the mechanism by which
        # the barrier coordinator notices a dead peer and can trigger a
        # cluster-wide rollback.
        self._stall_timeout: Optional[float] = None
        self._on_stall = None
        self._watched_generation = -1

    def set_stall_watch(self, timeout: float, callback) -> None:
        """Arm stall detection: ``callback(missing_parties, generation)``.

        The callback fires at most once per generation, ``timeout``
        seconds after the generation's first arrival if the barrier has
        not released by then.  ``missing_parties`` lists the party ids
        that have not arrived (parties that waited anonymously cannot be
        attributed and are not listed).
        """
        if timeout <= 0:
            raise ValueError(f"stall timeout must be positive, got {timeout}")
        self._stall_timeout = timeout
        self._on_stall = callback

    def _watch_generation(self, generation: int) -> None:
        if self._watched_generation >= generation:
            return
        self._watched_generation = generation
        self.sim.schedule(self._stall_timeout, self._check_stall, generation)

    def _check_stall(self, generation: int) -> None:
        if self.generation != generation or not self._arrived:
            return  # released (or reset) in time
        if self._on_stall is None:
            return
        missing = [
            p
            for p in range(self.parties)
            if p not in self._arrival_parties
        ]
        self._on_stall(missing, generation)

    def wait(self, party: Optional[int] = None) -> Event:
        """Arrive at the barrier; the returned event fires on release.

        ``party`` optionally identifies the arriving machine so a stall
        watch (:meth:`set_stall_watch`) can name the parties missing.
        """
        if len(self._arrived) >= self.parties:
            raise SimulationError(f"barrier {self.name}: too many arrivals")
        event = Event(self.sim, name=f"{self.name}.wait(gen={self.generation})")
        self._arrived.append(event)
        self._arrival_times.append(self.sim.now)
        self._arrival_parties.append(party)
        if self._stall_timeout is not None and len(self._arrived) == 1:
            self._watch_generation(self.generation)
        if len(self._arrived) == self.parties:
            release_time = self.sim.now
            waiters, self._arrived = self._arrived, []
            times, self._arrival_times = self._arrival_times, []
            self._arrival_parties = []
            for arrival in times:
                self.total_wait_time += release_time - arrival
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
