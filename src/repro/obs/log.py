"""The event log: one append-only list of flat tuples under the observers.

Recording is ``rows.append(tuple)`` and nothing else.  Tracks, the
causal recorder, the resource sampler and the host profiler all append
to an ``EventLog.rows``; hot call sites in ``sim``/``net``/``store``/
``core`` build the tuple in their own frame.  The first field of a row
is its *kind*, which fixes the layout of the rest (DESIGN.md, section
"The event log", has the reasoning):

========  ==========================================================
kind      fields after the kind
========  ==========================================================
``B E``   ``pid, tid, name, ts, 0.0, cat, None, args`` — span begin /
          end at ``ts``
``X``     ``pid, tid, name, ts, dur, cat, value, args`` — a complete
          span; ``value`` is the bytes it moved (or ``None``)
``i``     ``pid, tid, name, ts, 0.0, cat, None, args`` — instant
``C``     ``pid, 0, name, ts, 0.0, None, value, None`` — one sample
          of the counter series ``name``
``m``     ``id, trace, cat, t0, src, dst, size, parent, attempt`` — a
          message send (a causal edge once delivered)
``d``     ``id, t1`` — delivery of message ``id`` (the first wins)
``e``     ``id, event`` — any other causal event (barrier arrival /
          release, checkpoint mark), as its finished dict
``h``     ``machine, phase, iteration, records, wall_ns, cpu_ns,
          alloc_bytes`` — one timed call of the host profiler
========  ==========================================================

Times are simulated seconds on the tracer's timeline (run offset
already added).  Rows are transposed to columns when somebody reads:
:meth:`EventLog.columns` caches a :class:`Columns` snapshot until the
row count moves.  :func:`log_from_document` builds the same rows from a
saved Chrome-trace document, so files and live runs share every
analysis.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Tuple

import numpy as np

#: Row kinds holding tracer events (Chrome ``ph`` letters).
TRACE_KINDS = frozenset("BEXiC")

_KIND = itemgetter(0)
_LANE = itemgetter(0, 1, 2, 3, 6)


def _column(rows: List[tuple], field: int, dtype=object) -> np.ndarray:
    return np.fromiter(map(itemgetter(field), rows), dtype, len(rows))


class TraceColumns:
    """The tracer events of a log, one attribute per field.

    What repeats from event to event — ``(ph, pid, tid, name, cat)``,
    its *lane* — is dictionary-encoded: :attr:`lanes` lists the distinct
    combinations in order of first appearance and :attr:`lane` holds
    each event's index into it; the five per-event columns are gathered
    from that table.
    """

    __slots__ = ("lanes", "lane", "ph", "pid", "tid", "name", "ts", "dur",
                 "cat", "value", "args")

    def __init__(self, rows: List[tuple]):
        keys = list(map(_LANE, rows))
        self.lanes = list(dict.fromkeys(keys))
        code = {lane: index for index, lane in enumerate(self.lanes)}
        self.lane = np.fromiter(map(code.__getitem__, keys), np.intp, len(rows))
        ph, pid, tid, name, cat = zip(*self.lanes) if rows else ((),) * 5
        self.ph = np.array(ph, dtype="U1")[self.lane]
        self.pid = np.array(pid, dtype=np.int64)[self.lane]
        self.tid = np.array(tid, dtype=np.int64)[self.lane]
        self.name = np.array(name, dtype=object)[self.lane]
        self.cat = np.array(cat, dtype=object)[self.lane]
        self.ts = _column(rows, 4, np.float64)
        self.dur = _column(rows, 5, np.float64)
        self.value = _column(rows, 7)
        self.args = _column(rows, 8)

    def __len__(self) -> int:
        return len(self.ts)

    @property
    def end(self) -> float:
        """Largest timestamp (span ends included); 0.0 when empty."""
        return float((self.ts + self.dur).max()) if len(self.ts) else 0.0


class MessageColumns:
    """The message sends of a log; ``t1`` is ``None`` until delivered."""

    __slots__ = ("id", "trace", "cat", "t0", "src", "dst", "size", "parent",
                 "attempt", "t1")

    def __init__(self, sends: List[tuple], deliveries: List[tuple]):
        (_kind, self.id, self.trace, self.cat, self.t0, self.src, self.dst, self.size,
         self.parent, self.attempt) = zip(*sends) if sends else ((),) * 10
        # Duplicate deliveries (byzantine ``dup`` faults) keep the first
        # arrival — the one that advanced the receiver: filling the map
        # backwards lets the earliest row of an id win.
        first = {span: t1 for _kind, span, t1 in reversed(deliveries)}
        self.t1 = tuple(map(first.get, self.id))


class Columns:
    """Column view of the rows a log held when it was taken."""

    def __init__(self, rows: List[tuple]):
        self._rows = rows[:]
        self._kinds = list(map(_KIND, self._rows))
        self.count = len(self._rows)

    def of(self, kinds: Iterable[str]) -> List[tuple]:
        """Rows of the given kinds, in recording order."""
        return list(compress(self._rows, map(frozenset(kinds).__contains__, self._kinds)))

    @cached_property
    def trace(self) -> TraceColumns:
        return TraceColumns(self.of(TRACE_KINDS))

    @cached_property
    def messages(self) -> MessageColumns:
        return MessageColumns(self.of("m"), self.of("d"))

    @cached_property
    def causal_rows(self) -> List[tuple]:
        """``m`` and ``e`` rows in id (= recording) order."""
        return self.of("me")

    # -- dict views (tests, the causal chain analyzers) -----------------

    @cached_property
    def trace_events(self) -> List[Dict[str, Any]]:
        """Tracer events as the dicts the Chrome exporter writes, with
        times still in seconds."""
        events = []
        for ph, pid, tid, name, ts, dur, cat, value, args in self.of(TRACE_KINDS):
            event = {"ph": ph, "pid": pid, "tid": tid, "name": name, "ts": ts}
            if cat is not None:
                event["cat"] = cat
            if ph == "X":
                event["dur"] = dur
            if value is not None:
                event["args"] = {"value" if ph == "C" else "bytes": value}
            elif args:
                event["args"] = dict(args)
            events.append(event)
        return events

    @cached_property
    def causal_events(self) -> List[Dict[str, Any]]:
        """The causal DAG as plain JSON-safe dicts, in id order."""
        t1 = iter(self.messages.t1)
        events = []
        for row in self.causal_rows:
            if row[0] == "e":
                events.append(row[2])
                continue
            _kind, span, trace, cat, t0, src, dst, size, parent, attempt = row
            event = {
                "id": span, "trace": trace, "kind": "msg", "cat": cat,
                "t0": t0, "src": src, "dst": dst, "size": size,
                "t1": next(t1), "parent": parent,
            }
            if attempt:
                event["attempt"] = attempt
            events.append(event)
        return events

    @cached_property
    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Counter samples ``(ts, value)`` per series name."""
        series: Dict[str, List[Tuple[float, float]]] = {}
        for row in self.of("C"):
            series.setdefault(row[3], []).append((row[4], row[7]))
        return series


class EventLog:
    """The append-only row list and its cached column snapshot."""

    __slots__ = ("rows", "_columns")

    def __init__(self, rows: Iterable[tuple] = ()):
        self.rows: List[tuple] = list(rows)
        self._columns = None

    def columns(self) -> Columns:
        """Columns of every row so far (re-taken when rows were added)."""
        columns = self._columns
        if columns is None or columns.count != len(self.rows):
            columns = self._columns = Columns(self.rows)
        return columns


class NullObserver:
    """Observers off: the disabled tracer, track and causal recorder in
    one.  Engines guard their recording sites and never call it; it
    stands in wherever an observer is held unconditionally (default
    arguments, the fault supervisor's job track).  The host profiler has
    no null form: it times the engines from outside, or is not there."""

    __slots__ = ()

    enabled = False
    sample_interval = None
    events: List[Dict[str, Any]] = []
    trace_id = 0

    def _nothing(self, *args, **kwargs) -> None:
        return None

    begin = end = end_all = complete = instant = counter = _nothing  # track, tracer
    set_process = bind_run = _nothing
    on_bind = head = on_send = on_deliver = _nothing  # causal
    on_dispatch = barrier_arrive = barrier_release = mark = _nothing

    @property
    def causal(self) -> "NullObserver":
        return self

    def thread(self, pid, tid, name=None) -> "NullObserver":
        return self


NULL = NullObserver()


# ---------------------------------------------------------------------------
# Loading: a Chrome-trace document (or a bare event list) back into rows
# ---------------------------------------------------------------------------


def rows_from_events(
    events: Iterable[Dict[str, Any]], scale: float = 1.0
) -> Iterator[tuple]:
    """Tracer rows of an event-dict list whose times are ``scale``
    seconds (``1e-6`` for a Chrome document); metadata and flow events
    (``M``, ``s``, ``f``) are derived data and are skipped."""
    for event in events:
        ph = event.get("ph")
        if ph not in TRACE_KINDS:
            continue
        args = event.get("args") or None
        value = None
        key = "value" if ph == "C" else "bytes" if ph == "X" else None
        if args is not None and len(args) == 1 and key in args:
            value, args = args[key], None
        yield (
            ph, event["pid"], event["tid"], event["name"],
            event["ts"] * scale, event.get("dur", 0.0) * scale,
            event.get("cat"), value, args,
        )


def rows_from_causal(events: Iterable[Dict[str, Any]]) -> Iterator[tuple]:
    """Causal rows of a ``causalEvents`` list."""
    for event in events:
        if event.get("kind") != "msg":
            yield ("e", event["id"], event)
            continue
        yield (
            "m", event["id"], event.get("trace"), event.get("cat"),
            event["t0"], event.get("src"), event.get("dst"),
            event.get("size"), event.get("parent"), event.get("attempt", 0),
        )
        if event.get("t1") is not None:
            yield ("d", event["id"], event["t1"])


def log_from_document(trace: dict) -> EventLog:
    """The log a saved Chrome-trace document was written from (times in
    the document's microseconds come back as seconds)."""
    log = EventLog(rows_from_events(trace.get("traceEvents", ()), 1e-6))
    log.rows.extend(rows_from_causal(trace.get("causalEvents") or ()))
    return log
