"""Queueing resources used to model hardware.

All hardware in the reproduction — storage devices, NIC directions, CPU
core banks — is modelled with two primitives:

:class:`FifoServer`
    A single-server FIFO queue with deterministic service times
    (``latency + size / bandwidth``).  Because the queue discipline is
    FIFO and service times are known on arrival, completion times are
    computed analytically in O(1) per request instead of simulating the
    queue, which keeps large simulations cheap.  This matches the paper's
    storage-engine behaviour: *"A storage engine always serves a request
    for a chunk in its entirety before serving the next request"*
    (Section 6.2).

:class:`CoreBank`
    A ``c``-server FIFO queue (c CPU cores): each job runs on the
    earliest-free core.

Both meters accumulate busy time so experiments can report utilization
(Figure 14 / Figure 16 analyses).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.sim.engine import Event, Simulator


class UtilizationMeter:
    """Tracks busy time and bytes served for a resource."""

    __slots__ = ("busy_time", "bytes_served", "requests")

    def __init__(self):
        self.busy_time = 0.0
        self.bytes_served = 0
        self.requests = 0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the resource spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def throughput(self, elapsed: float) -> float:
        """Average bytes/second over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.bytes_served / elapsed


class FifoServer:
    """Single-server FIFO queue with deterministic service times.

    ``service(size)`` returns an event firing when the request completes.
    Work conservation and FIFO order let us fold the whole queue into a
    single ``busy_until`` timestamp.
    """

    __slots__ = (
        "sim",
        "name",
        "bandwidth",
        "latency",
        "_busy_until",
        "meter",
        "_trace_track",
        "_trace_label",
        "_nominal_bandwidth",
        "_event_name",
    )

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.sim = sim
        self.name = name
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self._nominal_bandwidth = float(bandwidth)
        self._busy_until = 0.0
        self.meter = UtilizationMeter()
        self._trace_track = None
        self._trace_label = name or "service"
        self._event_name = f"{name}.service"

    def degrade(self, factor: float) -> None:
        """Slow the server to ``nominal_bandwidth / factor``.

        Models a degraded device (slow-disk fault injection).  Requests
        already queued keep their completion times; only new arrivals
        see the reduced rate — the analytic FIFO fold makes partial
        re-queueing of in-flight work impossible, and a boundary at the
        fault instant is the behaviour a real FIFO disk queue shows
        anyway (commands already submitted complete at the old rate).
        """
        if factor <= 0:
            raise ValueError(f"degrade factor must be positive, got {factor}")
        self.bandwidth = self._nominal_bandwidth / factor

    def restore_bandwidth(self) -> None:
        """Undo :meth:`degrade`: back to the nominal service rate."""
        self.bandwidth = self._nominal_bandwidth

    def enable_trace(self, track, label: str = "") -> None:
        """Record every service interval as a span on ``track``.

        FIFO discipline guarantees the intervals on one server never
        overlap, so they form a well-defined busy timeline.
        """
        self._trace_track = track
        if label:
            self._trace_label = label

    def book(self, size: float, label: Optional[str] = None) -> float:
        """Queue a request of ``size`` bytes and return when it lands.

        The one definition of the FIFO arithmetic, the meter and the
        trace row; :meth:`service` and the transport's NIC hops both
        book through it.  The landing time is ``now + (finish - now)``,
        not ``finish``: the two can differ by an ulp, and the first is
        where a completion scheduled by delay has always landed.

        ``label`` overrides the span name when tracing is enabled (the
        storage/network layers pass the operation kind).
        """
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        now = self.sim.now
        busy = self._busy_until
        start = busy if busy > now else now
        duration = self.latency + size / self.bandwidth
        self._busy_until = finish = start + duration
        meter = self.meter
        meter.busy_time += duration
        meter.bytes_served += int(size)
        meter.requests += 1
        track = self._trace_track
        if track is not None:
            # One event-log row (layout: repro.obs.log), built here.
            track.append(
                ("X", track.pid, track.tid, label or self._trace_label,
                 track.offset + start, duration, None, int(size), None)
            )
        return now + (finish - now)

    def service(
        self, size: float, value: Any = None, label: Optional[str] = None,
        then: Optional[Callable] = None, args: tuple = (),
    ) -> Optional[Event]:
        """Enqueue a request of ``size`` bytes (see :meth:`book`).

        Callbacks pass ``then``: ``then(*args)`` is scheduled at the
        landing time and nothing is returned.  Processes omit it and
        ``yield`` the returned event, which fires with ``value`` at the
        same instant — the same call with ``then=event.trigger``.
        """
        when = self.book(size, label)
        event = None
        if then is None:
            event = Event(self.sim, self._event_name)
            then, args = event.trigger, (value,)
        self.sim.schedule_at(when, then, *args)
        return event

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def queue_delay(self) -> float:
        """Time a request arriving now would wait before service starts."""
        return max(0.0, self._busy_until - self.sim.now)


class CoreBank:
    """A bank of ``cores`` identical CPU cores with FIFO dispatch.

    Each ``execute(duration)`` request runs on the earliest-free core.
    """

    __slots__ = ("sim", "name", "cores", "_free_at", "meter",
                 "_trace_track", "_trace_label", "_event_name")

    def __init__(self, sim: Simulator, cores: int, name: str = ""):
        if cores < 1:
            raise ValueError(f"need at least one core, got {cores}")
        self.sim = sim
        self.name = name
        self.cores = int(cores)
        self._free_at: List[float] = [0.0] * self.cores
        heapq.heapify(self._free_at)
        self.meter = UtilizationMeter()
        self._trace_track = None
        self._trace_label = name or "exec"
        self._event_name = f"{name}.execute"

    def enable_trace(self, track, label: str = "") -> None:
        """Record every job's core occupancy as a span on ``track``.

        Unlike a :class:`FifoServer`, spans from different cores of the
        bank overlap on the one track; consumers that want a busy
        *timeline* (e.g. the attribution analyzer) take the union of the
        intervals, while summing durations gives busy core-seconds.
        """
        self._trace_track = track
        if label:
            self._trace_label = label

    def execute(
        self, duration: float, value: Any = None,
        then: Optional[Callable] = None, args: tuple = (),
    ) -> Optional[Event]:
        """Run a job of ``duration`` CPU-seconds on the earliest-free core;
        ``then``/``args`` or the returned event as in
        :meth:`FifoServer.service`."""
        if not duration >= 0:  # also rejects NaN
            raise ValueError(f"duration must be non-negative, got {duration}")
        sim = self.sim
        start = max(sim.now, self._free_at[0])
        finish = start + duration
        heapq.heapreplace(self._free_at, finish)
        meter = self.meter
        meter.busy_time += duration
        meter.requests += 1
        track = self._trace_track
        if track is not None and duration > 0:
            track.append(
                ("X", track.pid, track.tid, self._trace_label,
                 track.offset + start, duration, None, None, None)
            )
        event = None
        if then is None:
            event = Event(sim, self._event_name)
            then, args = event.trigger, (value,)
        # ``now + (finish - now)``, not ``finish``: they differ by an ulp.
        sim.schedule(finish - sim.now, then, *args)
        return event

    def earliest_free(self) -> float:
        return self._free_at[0]

    def busy_cores(self, now: Optional[float] = None) -> int:
        """Cores still running a job at time ``now`` (telemetry probe)."""
        if now is None:
            now = self.sim.now
        return sum(1 for free_at in self._free_at if free_at > now)
