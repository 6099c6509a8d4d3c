"""Cluster-wide tracing keyed to the *simulated* clock.

The tracer records typed events — nested spans (begin/end), complete
spans with analytically-known durations, instant markers and counter
samples — on per-machine tracks, mirroring the paper's deployment of
one process per machine hosting a computation engine, a storage engine
and a NIC.  Tracks are addressed Chrome-style as ``(pid, tid)`` pairs:
``pid`` is the machine index (plus one extra "cluster" process for
job-level markers) and ``tid`` selects the component within the
machine (:data:`TID_ENGINE`, :data:`TID_DEVICE`, :data:`TID_NIC_TX`,
:data:`TID_NIC_RX`).

Design constraints, in order:

1. **Zero cost when disabled.**  Components hold a :class:`Track` (or
   :data:`NULL_TRACK`); every method of the null objects is a no-op and
   hot paths additionally guard on ``track.enabled`` before formatting
   labels.
2. **Determinism.**  All timestamps come from the simulated clock; the
   recording order is the (deterministic) simulation callback order, so
   two runs with the same seed produce byte-identical exports.
3. **Multi-run composition.**  Drivers (MCST, SCC) execute several
   simulations back to back, each with a fresh clock starting at zero;
   :meth:`Tracer.bind_run` re-bases subsequent events after everything
   already recorded so the runs appear sequentially on one timeline.

Timestamps are stored in simulated **seconds**; the Chrome exporter
(:mod:`repro.obs.export`) converts to the microseconds the
``trace_event`` format requires.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.causal import NULL_CAUSAL, CausalRecorder
from repro.obs.counters import CounterRegistry

#: Thread ids within a machine process (Chrome ``tid``).
TID_JOB = 0
TID_ENGINE = 1
TID_DEVICE = 2
TID_NIC_TX = 3
TID_NIC_RX = 4
TID_CPU = 5

#: Human names for the fixed per-machine threads.
THREAD_NAMES = {
    TID_JOB: "job",
    TID_ENGINE: "engine",
    TID_DEVICE: "device",
    TID_NIC_TX: "nic.tx",
    TID_NIC_RX: "nic.rx",
    TID_CPU: "cpu",
}


class TraceError(RuntimeError):
    """Raised for tracer misuse (e.g. ending a span that never began)."""


class Track:
    """A (pid, tid) lane of the trace; the handle components record on."""

    __slots__ = ("tracer", "pid", "tid")

    enabled = True

    def __init__(self, tracer: "Tracer", pid: int, tid: int):
        self.tracer = tracer
        self.pid = pid
        self.tid = tid

    def begin(
        self,
        name: str,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Open a nested span at the current simulated time."""
        self.tracer.begin(self.pid, self.tid, name, cat=cat, args=args)

    def end(self, args: Optional[dict] = None) -> None:
        """Close the innermost open span on this track."""
        self.tracer.end(self.pid, self.tid, args=args)

    def complete(
        self,
        name: str,
        start: float,
        duration: float,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a span whose extent is already known (FIFO servers
        compute completion times analytically at request time)."""
        self.tracer.complete(
            self.pid, self.tid, name, start, duration, cat=cat, args=args
        )

    def instant(
        self,
        name: str,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Record a zero-duration marker."""
        self.tracer.instant(self.pid, self.tid, name, cat=cat, args=args)


class _NullTrack:
    """No-op track: every recording method does nothing."""

    __slots__ = ()

    enabled = False

    def begin(self, name, cat=None, args=None):  # noqa: D102 - no-op
        pass

    def end(self, args=None):
        pass

    def complete(self, name, start, duration, cat=None, args=None):
        pass

    def instant(self, name, cat=None, args=None):
        pass


NULL_TRACK = _NullTrack()


class NullTracer:
    """Disabled tracer: hands out null tracks, records nothing."""

    enabled = False
    sample_interval: Optional[float] = None
    causal = NULL_CAUSAL

    def thread(self, pid, tid, name=None) -> _NullTrack:
        return NULL_TRACK

    def set_process(self, pid, name):
        pass

    def bind_run(self, clock):
        pass

    def instant(self, pid, tid, name, cat=None, args=None):
        pass

    def counter(self, pid, name, value, ts=None):
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects typed trace events against the simulated clock.

    ``sample_interval`` is the period (simulated seconds) of the
    periodic resource samplers that the runtime attaches when tracing is
    on; ``None`` disables time-series sampling while keeping spans.
    """

    enabled = True

    def __init__(self, sample_interval: Optional[float] = 1e-3):
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError("sample_interval must be positive (or None)")
        self.sample_interval = sample_interval
        #: Raw events, in recording order, timestamps in simulated seconds.
        self.events: List[Dict[str, Any]] = []
        self.registry = CounterRegistry()
        #: Message-level causal DAG recorder (same clock, same offsets).
        self.causal = CausalRecorder(self)
        self._clock: Optional[Callable[[], float]] = None
        self._offset = 0.0
        self._end = 0.0
        self._open: Dict[Tuple[int, int], List[Tuple[str, Optional[str]]]] = {}
        self._processes: Dict[int, str] = {}
        self._threads: Dict[Tuple[int, int], str] = {}

    # -- clock binding -----------------------------------------------------

    def bind_run(self, clock: Callable[[], float]) -> None:
        """Attach to a (new) simulation run.

        The run's clock is expected to start at zero; its events are
        offset past everything already recorded, so back-to-back runs
        (multi-phase drivers) lay out sequentially on the shared
        timeline.
        """
        self._offset = self._end
        self._clock = clock
        self.causal.on_bind()

    def now(self) -> float:
        """Current trace time (offset-adjusted simulated seconds)."""
        if self._clock is None:
            return self._offset
        return self._offset + self._clock()

    @property
    def end_time(self) -> float:
        """Largest timestamp recorded so far."""
        return self._end

    def _stamp(self, ts: Optional[float] = None) -> float:
        t = self.now() if ts is None else self._offset + ts
        if t > self._end:
            self._end = t
        return t

    # -- track registry ----------------------------------------------------

    def set_process(self, pid: int, name: str) -> None:
        self._processes[pid] = name

    def thread(self, pid: int, tid: int, name: Optional[str] = None) -> Track:
        """Get the track for ``(pid, tid)``, optionally naming it."""
        if name is None:
            name = THREAD_NAMES.get(tid, f"track{tid}")
        self._threads[(pid, tid)] = name
        return Track(self, pid, tid)

    @property
    def processes(self) -> Dict[int, str]:
        return dict(self._processes)

    @property
    def threads(self) -> Dict[Tuple[int, int], str]:
        return dict(self._threads)

    # -- recording ---------------------------------------------------------

    def _record(
        self,
        ph: str,
        pid: int,
        tid: int,
        name: str,
        ts: float,
        cat: Optional[str] = None,
        dur: Optional[float] = None,
        args: Optional[dict] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "ph": ph,
            "pid": pid,
            "tid": tid,
            "name": name,
            "ts": ts,
        }
        if cat is not None:
            event["cat"] = cat
        if dur is not None:
            event["dur"] = dur
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    def begin(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        self._open.setdefault((pid, tid), []).append((name, cat))
        self._record("B", pid, tid, name, self._stamp(), cat=cat, args=args)

    def end(
        self,
        pid: int,
        tid: int,
        args: Optional[dict] = None,
    ) -> None:
        stack = self._open.get((pid, tid))
        if not stack:
            raise TraceError(
                f"end without begin on track (pid={pid}, tid={tid})"
            )
        name, cat = stack.pop()
        self._record("E", pid, tid, name, self._stamp(), cat=cat, args=args)

    def complete(
        self,
        pid: int,
        tid: int,
        name: str,
        start: float,
        duration: float,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        if duration < 0:
            raise TraceError(f"negative span duration {duration}")
        t = self._offset + start
        if t + duration > self._end:
            self._end = t + duration
        self._record("X", pid, tid, name, t, cat=cat, dur=duration, args=args)

    def instant(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        self._record("i", pid, tid, name, self._stamp(), cat=cat, args=args)

    def counter(
        self,
        pid: int,
        name: str,
        value: float,
        ts: Optional[float] = None,
    ) -> None:
        """Record one sample of a per-process counter time series."""
        t = self._stamp(ts)
        self.registry.add(name, t, value)
        self._record("C", pid, TID_JOB, name, t, args={"value": value})

    # -- integrity ---------------------------------------------------------

    def open_span_count(self) -> int:
        """Spans begun but not yet ended (should be 0 after a run)."""
        return sum(len(stack) for stack in self._open.values())
