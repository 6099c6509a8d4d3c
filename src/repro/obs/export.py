"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and flat CSV.

The JSON exporter emits the Trace Event Format that both the legacy
``chrome://tracing`` viewer and Perfetto (https://ui.perfetto.dev) load
directly: a ``traceEvents`` list whose entries carry ``ph`` (phase),
``ts`` (microseconds), ``pid``/``tid`` (track), ``name`` and optional
``cat``/``dur``/``args``.  Process and thread naming uses the standard
``M`` metadata events.

The text is formatted straight from the event log's columns, one
template per event shape, and equals ``json.dumps(document,
sort_keys=True, separators=(",", ":"))`` of the document it describes
character for character (``tests/test_export_format.py`` holds the
dict-building reference) — with one exception: **non-finite floats are
written as the strings** ``"inf"``, ``"-inf"`` and ``"nan"``, never as
the bare ``Infinity`` / ``NaN`` tokens ``json.dumps`` would emit, which
are not JSON (``--alpha inf`` puts one in ``job.config``; readers get
the value back with ``float(...)``).

Output is deterministic: events are ordered by timestamp with a stable
tie-break on recording order (itself deterministic for a fixed seed),
object keys are sorted, and no wall-clock data is embedded — two runs
with the same seed serialize to byte-identical files.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.obs.log import Columns
from repro.obs.tracer import TID_NIC_RX, TID_NIC_TX, Tracer

#: Seconds → Trace Event Format microseconds.
_US = 1e6

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_PLAIN_NUMBERS = frozenset((int, float))


def _finite(value: Any) -> Any:
    """``value`` with every non-finite float replaced by its name."""
    if isinstance(value, float):
        return value if isfinite(value) else str(value)
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def dumps(value: Any) -> str:
    """Compact sorted-key JSON of any JSON-safe value."""
    try:
        return _ENCODER.encode(value)
    except ValueError:  # a NaN or an infinity somewhere inside
        return _ENCODER.encode(_finite(value))


def _numbers(values: Sequence) -> Sequence:
    """A numeric column ready for ``%s``: untouched when every entry is
    a finite ``int``/``float`` (``str`` of those *is* their JSON); else
    entry by entry, the odd ones (``None``, ``bool``, infinities, numpy
    scalars) through the encoder."""
    try:
        if set(map(type, values)) <= _PLAIN_NUMBERS and all(map(isfinite, values)):
            return values
    except OverflowError:  # an int beyond the float range
        pass
    return [
        value
        if type(value) is int or (type(value) is float and isfinite(value))
        else dumps(value)
        for value in values
    ]


def _floats(values: np.ndarray) -> np.ndarray:
    """JSON text of each float64.  Timestamps repeat (a span, the
    message and the flow arrow of one send share theirs) and ``repr`` of
    a float is the dearest step of the export, so every distinct bit
    pattern (``-0.0`` is not ``0.0``) is formatted once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    if np.isfinite(distinct).all():
        texts = list(map(repr, distinct.tolist()))
    else:
        texts = [dumps(value) for value in distinct.tolist()]
    return _objects(texts)[inverse]


def _strings(values: Sequence) -> List[str]:
    """JSON text of each string, every distinct one encoded once."""
    text = {value: dumps(value) for value in dict.fromkeys(values)}
    return [text[value] for value in values]


def _objects(values: Sequence) -> np.ndarray:
    return np.array(values, dtype=object)


#: ``args`` text by payload kind: none, the value column, a dict.
_PAYLOAD = ("", '"args":{"%s":%%s},', '"args":%s,')


def _trace_event_texts(columns: Columns) -> np.ndarray:
    """One JSON object per tracer event, in recording order."""
    trace = columns.trace
    # What repeats from row to row — track, name, category — is rendered
    # once per lane and gathered by the lane code.
    heads, tails = [], []
    for ph, pid, tid, name, cat in trace.lanes:
        heads.append("" if cat is None else f'"cat":{dumps(cat)},')
        scope = '"s":"t",' if ph == "i" else ""  # thread-scoped instant
        tails.append(
            f'"name":{dumps(name)},"ph":"{ph}","pid":{dumps(pid)},{scope}'
            f'"tid":{dumps(tid)},"ts":'
        )
    head, tail = _objects(heads)[trace.lane], _objects(tails)[trace.lane]
    ts, dur = _floats(trace.ts * _US), _floats(trace.dur * _US)
    value, args = trace.value, trace.args
    payload = np.where(value != None, 1, np.where(args != None, 2, 0))  # noqa: E711
    shape = payload + 3 * (trace.ph == "X")
    texts = np.empty(len(trace), dtype=object)
    for which in np.unique(shape).tolist():
        rows = np.flatnonzero(shape == which)
        spanned, kind = divmod(which, 3)
        fields = []
        template = "{" + _PAYLOAD[kind]
        if kind == 1:
            fields.append(_numbers(value[rows].tolist()))
            template %= "bytes" if spanned else "value"
        elif kind == 2:
            fields.append([dumps(item) for item in args[rows].tolist()])
        fields.append(head[rows].tolist())
        if spanned:
            fields.append(dur[rows].tolist())
        fields += [tail[rows].tolist(), ts[rows].tolist()]
        template += "%s" + ('"dur":%s,' if spanned else "") + "%s%s}"
        texts[rows] = [template % row for row in zip(*fields)]
    return texts


_SEND = '{"cat":"causal","id":%%s,"name":%%s,"ph":"s","pid":%%s,"tid":%d,"ts":%%s}' % TID_NIC_TX
_ARRIVE = (
    '{"bp":"e","cat":"causal","id":%%s,"name":%%s,"ph":"f","pid":%%s,"tid":%d,"ts":%%s}'
    % TID_NIC_RX
)
_MESSAGE = (
    '{%s"cat":%s,"dst":%s,"id":%s,"kind":"msg","parent":%s,"size":%s,'
    '"src":%s,"t0":%s,"t1":%s,"trace":%s}'
)


def _causal_texts(columns: Columns) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """``(causalEvents texts, flow event texts, flow timestamps in us)``.

    Flow events (ph ``s``/``f``) are one arrow per *delivered* message:
    the start binds to the sender's NIC-TX track at dispatch time, the
    finish to the receiver's NIC-RX track at delivery (``bp: e`` — the
    enclosing slice's end), matched by ``id``.  Perfetto draws them
    across tracks, making the causal DAG visible in the timeline view.
    """
    sent = columns.messages
    ids, src, dst = _numbers(sent.id), _numbers(sent.src), _numbers(sent.dst)
    attempts = [
        '"attempt":%s,' % dumps(attempt) if attempt else ""
        for attempt in sent.attempt
    ]
    t0 = np.array(sent.t0, dtype=np.float64)
    t1 = np.array(sent.t1, dtype=np.float64)  # None (undelivered) -> nan
    arrived = ~np.isnan(t1)
    messages = iter([
        _MESSAGE % row
        for row in zip(
            attempts, _strings(sent.cat), dst, ids, _numbers(sent.parent),
            _numbers(sent.size), src, _floats(t0).tolist(),
            np.where(arrived, _floats(t1), "null").tolist(),
            _numbers(sent.trace),
        )
    ])
    # The lossless DAG (times in seconds): flow events carry only the
    # delivered edges; the analyses need parents, barriers and marks too.
    events = [
        next(messages) if row[0] == "m" else dumps(row[2])
        for row in columns.causal_rows
    ]
    arrived = np.flatnonzero(arrived)
    start, end = t0[arrived] * _US, t1[arrived] * _US
    names = _strings([cat or "msg" for cat in _objects(sent.cat)[arrived].tolist()])
    flow_ids = _objects(ids)[arrived].tolist()
    flows = np.empty(2 * len(arrived), dtype=object)
    flows[0::2] = [
        _SEND % row for row in zip(
            flow_ids, names, _objects(src)[arrived].tolist(),
            _floats(start).tolist(),
        )
    ]
    flows[1::2] = [
        _ARRIVE % row for row in zip(
            flow_ids, names, _objects(dst)[arrived].tolist(),
            _floats(end).tolist(),
        )
    ]
    flow_ts = np.empty(len(flows), dtype=np.float64)
    flow_ts[0::2], flow_ts[1::2] = start, end
    return events, flows, flow_ts


def dumps_chrome_trace(tracer: Tracer, host_metrics=None) -> str:
    """The Trace Event Format document of a recorded trace, as text.

    ``host_metrics`` (a :meth:`repro.obs.host.HostProfiler.to_dict`
    document) is embedded under a top-level ``hostMetrics`` key — viewers
    ignore it, ``trace-report`` renders the sim-to-host skew table from
    it.  Host data is wall-clock: embedding it forfeits byte-identity,
    which is why it is opt-in (``--host-profile``).
    """
    columns = tracer.log.columns()
    named = [(pid, 0, "process_name", name)
             for pid, name in sorted(tracer.processes.items())]
    named += [(pid, tid, "thread_name", name)
              for (pid, tid), name in sorted(tracer.threads.items())]
    meta = [
        dumps({"ph": "M", "pid": pid, "tid": tid, "name": kind, "args": {"name": name}})
        for pid, tid, kind, name in named
    ]
    causal, flows, flow_ts = _causal_texts(columns)
    timed = np.concatenate([_trace_event_texts(columns), flows])
    order = np.argsort(
        np.concatenate([columns.trace.ts * _US, flow_ts]), kind="stable"
    )
    parts = ["{"]
    if causal:
        parts += ['"causalEvents":[', ",".join(causal), "],"]
    parts.append('"displayTimeUnit":"ms",')
    if host_metrics is not None:
        parts += ['"hostMetrics":', dumps(host_metrics), ","]
    parts += ['"traceEvents":[', ",".join(meta + timed[order].tolist()), "]}"]
    return "".join(parts)


def chrome_trace_dict(tracer: Tracer, host_metrics: Dict[str, Any] = None) -> Dict[str, Any]:
    """The document :func:`dumps_chrome_trace` writes, parsed back."""
    return json.loads(dumps_chrome_trace(tracer, host_metrics=host_metrics))


def write_chrome_trace(tracer: Tracer, path: str, host_metrics=None) -> int:
    """Write the trace JSON to ``path``; returns the byte count."""
    text = dumps_chrome_trace(tracer, host_metrics=host_metrics)
    with open(path, "w") as handle:
        handle.write(text)
    return len(text)


def write_counters_csv(tracer: Tracer, path: str) -> int:
    """Flatten every counter time series to ``series,ts,value`` rows.

    Timestamps are simulated seconds.  Rows are grouped by series (name
    order) and time-ordered within a series, ready for a one-line
    pivot/plot in pandas, gnuplot or a spreadsheet.
    """
    lines = ["series,ts,value"]
    for name, ts, value in tracer.registry.rows():
        lines.append(f"{name},{ts!r},{value!r}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return len(lines) - 1
