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

Every event is one tuple appended to the tracer's
:class:`~repro.obs.log.EventLog` (row layouts there).  A :class:`Track`
carries what a call site needs to build that tuple itself (``pid``,
``tid``, the run's ``offset``, the log's bound ``append``): per-message
sites do exactly that, the methods here are the same append behind a call.

Design constraints, in order:

1. **Zero cost when disabled.**  Engines guard every recording site on
   their own ``_trace_on`` flag: a job without a tracer makes no call
   into this package.
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

from repro.obs.causal import CausalRecorder
from repro.obs.counters import CounterRegistry
from repro.obs.log import Columns, EventLog

#: Thread ids within a machine process (Chrome ``tid``).
TID_JOB = 0
TID_ENGINE = 1
TID_DEVICE = 2
TID_NIC_TX = 3
TID_NIC_RX = 4
TID_CPU = 5

#: Human names for the fixed per-machine threads, indexed by tid.
THREAD_NAMES = ("job", "engine", "device", "nic.tx", "nic.rx", "cpu")


class TraceError(RuntimeError):
    """Raised for tracer misuse (e.g. ending a span that never began)."""


class Track:
    """A (pid, tid) lane of the trace; the handle components record on.

    One object per lane for the tracer's lifetime: ``offset`` follows
    :meth:`Tracer.bind_run` and the open-span stack survives re-wiring.
    """

    __slots__ = ("tracer", "pid", "tid", "append", "offset", "_open")

    enabled = True

    def __init__(self, tracer: "Tracer", pid: int, tid: int):
        self.tracer = tracer
        self.pid = pid
        self.tid = tid
        #: ``EventLog.rows.append`` — hot sites call it with a whole row.
        self.append = tracer.log.rows.append
        #: Added to run-local times (``start`` of a complete span).
        self.offset = tracer.offset
        self._open: List[Tuple[str, Optional[str]]] = []

    def _record(self, ph, name, ts, dur=0.0, cat=None, args=None) -> None:
        self.append(
            (ph, self.pid, self.tid, name, ts, dur, cat, None,
             dict(args) if args else None)
        )

    def begin(self, name: str, cat: Optional[str] = None, args: Optional[dict] = None):
        """Open a nested span at the current simulated time."""
        self._open.append((name, cat))
        self._record("B", name, self.tracer.now(), cat=cat, args=args)

    def end(self, args: Optional[dict] = None) -> None:
        """Close the innermost open span on this track."""
        if not self._open:
            raise TraceError(
                f"end without begin on track (pid={self.pid}, tid={self.tid})"
            )
        name, cat = self._open.pop()
        self._record("E", name, self.tracer.now(), cat=cat, args=args)

    def end_all(self, args: Optional[dict] = None) -> None:
        """Close every open span on this track now, innermost first (a
        fenced epoch's spans end at the fence)."""
        while self._open:
            self.end(args)

    def complete(self, name: str, start: float, duration: float,
                 cat: Optional[str] = None, args: Optional[dict] = None) -> None:
        """Record a span whose extent is already known (FIFO servers
        compute completion times analytically at request time)."""
        if duration < 0:
            raise TraceError(f"negative span duration {duration}")
        self._record("X", name, self.offset + start, duration, cat, args)

    def instant(self, name: str, cat: Optional[str] = None, args: Optional[dict] = None):
        """Record a zero-duration marker."""
        self._record("i", name, self.tracer.now(), cat=cat, args=args)


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
        #: Every event of this tracer, its causal recorder and its
        #: counter registry, in recording order.
        self.log = EventLog()
        self.registry = CounterRegistry(self.log)
        #: Message-level causal DAG recorder (same clock, same offsets).
        self.causal = CausalRecorder(self, self.log)
        #: Start of the bound run on the shared timeline.
        self.offset = 0.0
        self._end, self._end_rows = 0.0, 0
        # ``float()`` is 0.0: before any run is bound, time stands still.
        self._clock: Callable[[], float] = float
        self._tracks: Dict[Tuple[int, int], Track] = {}
        #: Names for the viewer: pid -> process, (pid, tid) -> thread.
        self.processes: Dict[int, str] = {}
        self.threads: Dict[Tuple[int, int], str] = {}

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Read-only view: the tracer events as dicts, in recording
        order, timestamps in simulated seconds."""
        return self.log.columns().trace_events

    # -- clock binding -----------------------------------------------------

    def bind_run(self, clock: Callable[[], float]) -> None:
        """Attach to a (new) simulation run.

        The run's clock is expected to start at zero; its events are
        offset past everything already recorded, so back-to-back runs
        (multi-phase drivers) lay out sequentially on the shared
        timeline.
        """
        self.offset = self.end_time
        self._clock = clock
        for track in self._tracks.values():
            track.offset = self.offset
        self.causal.on_bind()

    def now(self) -> float:
        """Current trace time (offset-adjusted simulated seconds)."""
        return self.offset + self._clock()

    @property
    def end_time(self) -> float:
        """Largest timestamp so far (folds in the rows added since last asked)."""
        rows = self.log.rows
        if self._end_rows < len(rows):
            self._end = max(self._end, Columns(rows[self._end_rows:]).trace.end)
            self._end_rows = len(rows)
        return self._end

    # -- track registry ----------------------------------------------------

    def set_process(self, pid: int, name: str) -> None:
        self.processes[pid] = name

    def _track(self, pid: int, tid: int) -> Track:
        track = self._tracks.get((pid, tid))
        if track is None:
            track = self._tracks[(pid, tid)] = Track(self, pid, tid)
        return track

    def thread(self, pid: int, tid: int, name: Optional[str] = None) -> Track:
        """Get the track for ``(pid, tid)``, optionally naming it."""
        if name is None:
            name = (
                THREAD_NAMES[tid] if 0 <= tid < len(THREAD_NAMES)
                else f"track{tid}"
            )
        self.threads[(pid, tid)] = name
        return self._track(pid, tid)

    # -- counters ------------------------------------------------------------

    def counter(self, pid: int, name: str, value: float, ts: Optional[float] = None):
        """Record one sample of a per-process counter time series."""
        t = self.now() if ts is None else self.offset + ts
        self.log.rows.append(("C", pid, TID_JOB, name, t, 0.0, None, value, None))

    # -- integrity ---------------------------------------------------------

    def open_span_count(self) -> int:
        """Spans begun but not yet ended (should be 0 after a run)."""
        return sum(len(track._open) for track in self._tracks.values())
