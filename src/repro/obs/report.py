"""The trace report: one document behind ``repro trace-report``.

:func:`trace_report` explains a saved Chrome-trace file as one JSON-safe
document, and ``--format json`` prints it as is; :func:`format_trace_report`
renders the terminal text from the same document.  Its sections:

* ``summary`` — per-track busy time, utilization and bytes (every track
  with complete spans, plus every device and NIC track, idle ones
  included), spans aggregated by track kind and name, the engines'
  ledger (the ten categories of ``JobResult.total_breakdown()``, read
  from the run's ``job.ledger`` instant and summed over the runs of a
  multi-run driver), the totals of the fault subsystem's recovery
  spans, instant counts, the run's integrity counters and
  counter-series statistics;
* ``attribution`` — critpath's decomposition (None for spanless traces);
* ``slowest_chains`` / ``cross_check`` — the causal barrier chains and
  their reconciliation against critpath (None without causal events);
* ``host`` / ``host_skew`` — the ``--host-profile`` metrics and the
  sim-to-host skew table (None without them).

Events are read through the event log's columns
(:func:`repro.obs.log.log_from_document`), the loader the other analyses
share; only the process and thread names come from the ``M`` metadata.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, List, Tuple

from repro.core.metrics import ledger_lines
from repro.obs.causal import cross_check, format_chain_table, slowest_chains
from repro.obs.critpath import (
    RECOVERY_WALL_CATEGORIES,
    AttributionError,
    analyze_chrome_trace,
    format_iteration_table,
)
from repro.obs.host import format_host_report, host_skew
from repro.obs.log import log_from_document

#: Categories the fault-injection subsystem stamps on traces: work
#: discarded by a rollback, checkpoint-restore time, bounded-backoff
#: waits of retried RPCs, and integrity-repair work (re-reads, write
#: rewrites, checkpoint re-replication).  The ``lost`` / ``restore``
#: windows (:data:`RECOVERY_WALL_CATEGORIES`) are read from the job
#: track only; ``retry_wait`` / ``integrity`` spans live on engine and
#: storage tracks and overlap those windows, so they are reported as
#: additional detail rows, not subtracted from the useful time.
RECOVERY_CATEGORIES = ("lost", "restore", "retry_wait", "integrity")

#: Thread-name prefixes of the resource tracks (device, NIC), listed
#: whether or not they carry spans.
_RESOURCES = (("device", "device"), ("NIC", "nic."))


def load_trace(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise ValueError(f"{path}: not a Chrome trace (no 'traceEvents' list)")
    return data


def _sums(pairs: Iterable[Tuple[object, float]], zero: float = 0.0) -> dict:
    """``key -> total`` of the values in the order given (``sum`` of
    floats is compensated on Python 3.12+; a report sums as it reads)."""
    sums: dict = {}
    for key, value in pairs:
        sums[key] = sums.get(key, zero) + value
    return sums


def _closed_spans(trace, threads: dict) -> Tuple[List[Tuple[str, str, str, float]], int]:
    """``(track, name, cat, seconds)`` per span in the order the spans
    close (a ``B``/``E`` pair takes its begin's name and category;
    ``track`` is the kind of its lane, the thread name), and the number
    of unmatched ``B``/``E`` events."""
    ph, name, cat = trace.ph.tolist(), trace.name.tolist(), trace.cat.tolist()
    ts, dur = trace.ts.tolist(), trace.dur.tolist()
    lanes = list(zip(trace.pid.tolist(), trace.tid.tolist()))
    track = [threads.get(lane, f"tid{lane[1]}") for lane in lanes]
    closed, stacks, unbalanced = [], {}, 0
    for index, kind in enumerate(ph):
        if kind == "B":
            stacks.setdefault(lanes[index], []).append(index)
        elif kind == "E":
            stack = stacks.get(lanes[index])
            if not stack:
                unbalanced += 1
                continue
            begin = stack.pop()
            closed.append(
                (track[index], name[begin], cat[begin], ts[index] - ts[begin])
            )
        elif kind == "X":
            closed.append((track[index], name[index], cat[index], dur[index]))
    return closed, unbalanced + sum(map(len, stacks.values()))


def trace_report(trace: dict, top: int = 12) -> dict:
    """Everything ``trace-report`` shows of a loaded trace, as one
    document; ``top`` caps the span and chain rows."""
    meta = [event for event in trace["traceEvents"] if event.get("ph") == "M"]
    processes = {
        e["pid"]: e["args"]["name"] for e in meta if e["name"] == "process_name"
    }
    threads = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in meta if e["name"] == "thread_name"
    }
    columns = log_from_document(trace).columns()
    events = columns.trace
    duration = max(0.0, events.end)

    closed, unbalanced = _closed_spans(events, threads)
    spans = _sums((name, seconds) for _track, name, _cat, seconds in closed)
    # Span rows are keyed by (track kind, name): the job track's
    # ``restore`` window and the engines' ``restore`` steps report apart.
    counts = Counter((track, name) for track, name, _cat, _seconds in closed)
    by_track = _sums(((track, name), seconds) for track, name, _cat, seconds in closed)
    category_seconds = _sums(
        (cat, seconds) for track, _name, cat, seconds in closed
        if cat in RECOVERY_CATEGORIES
        and (track == "job" or cat not in RECOVERY_WALL_CATEGORIES)
    )

    complete = events.ph == "X"
    lanes = list(zip(events.pid[complete].tolist(), events.tid[complete].tolist()))
    busy = _sums(zip(lanes, events.dur[complete].tolist()))
    sizes = (
        value if value is not None else (args or {}).get("bytes")
        for value, args in zip(events.value[complete], events.args[complete])
    )
    moved = _sums(
        ((lane, int(size)) for lane, size in zip(lanes, sizes) if size is not None), 0
    )
    resources = {
        lane for lane, name in threads.items()
        if name.startswith(tuple(prefix for _title, prefix in _RESOURCES))
    }
    tracks = []
    for pid, tid in sorted(set(busy) | resources):
        seconds = busy.get((pid, tid), 0.0)
        tracks.append({
            "pid": pid,
            "tid": tid,
            "process": processes.get(pid, f"pid{pid}"),
            "thread": threads.get((pid, tid), f"tid{tid}"),
            "busy_seconds": seconds,
            "utilization": seconds / duration if duration > 0 else 0.0,
            "bytes": moved.get((pid, tid), 0),
        })

    recovery = None
    if sum(category_seconds.get(cat, 0.0) for cat in RECOVERY_CATEGORIES) > 0:
        wall = sum(category_seconds.get(cat, 0.0) for cat in RECOVERY_WALL_CATEGORIES)
        recovery = {"useful_seconds": duration - wall}
        for cat in RECOVERY_CATEGORIES:
            recovery[f"{cat}_seconds"] = category_seconds.get(cat, 0.0)

    instant = events.ph == "i"
    integrity = _sums((
        (counter, int(value))
        for args in events.args[instant & (events.name == "job.integrity")]
        for counter, value in (args or {}).items()
    ), 0)
    ledger = _sums(
        item for args in events.args[instant & (events.name == "job.ledger")]
        for item in (args or {}).items()
    )
    series = columns.series
    totals = _sums((name, value) for name, rows in series.items() for _ts, value in rows)
    counters = {
        name: {
            "samples": len(rows),
            "mean": totals[name] / len(rows),
            "peak": max([0.0, *(value for _ts, value in rows)]),
        }
        for name, rows in sorted(series.items())
    }
    ranked = sorted(by_track.items(), key=lambda kv: (-kv[1], kv[0]))
    summary = {
        "duration": duration,
        "total_events": len(trace["traceEvents"]) - len(meta),
        "processes": {str(pid): name for pid, name in sorted(processes.items())},
        "tracks": tracks,
        "ledger": ledger,
        "category_seconds": dict(sorted(category_seconds.items())),
        "recovery": recovery,
        "top_spans": [
            {"track": track, "name": name, "count": counts[track, name],
             "total_seconds": total, "mean_seconds": total / counts[track, name]}
            for (track, name), total in ranked[:top]
        ],
        "span_names": len(spans),
        "instants": dict(sorted(Counter(events.name[instant].tolist()).items())),
        "counters": counters,
        "integrity": dict(sorted(integrity.items())),
        "unbalanced_spans": unbalanced,
    }

    try:
        attribution = analyze_chrome_trace(trace)
    except AttributionError:
        attribution = None
    causal = columns.causal_events
    chains = slowest_chains(causal, top) if causal else None
    checks = cross_check(causal, attribution) if causal and attribution is not None else None
    host = trace.get("hostMetrics")
    return {
        "summary": summary,
        "attribution": None if attribution is None else attribution.to_dict(),
        "slowest_chains": None if chains is None else [c.to_dict() for c in chains],
        "cross_check": checks,
        "host": host,
        "host_skew": None if host is None else host_skew(host, spans),
    }


def format_trace_report(doc: dict, host_top: int = 10) -> str:
    """The terminal text of a :func:`trace_report` document;
    ``host_top`` caps the hottest-host-phase rows."""
    summary = doc["summary"]
    lines: List[str] = [
        f"trace: {summary['duration']:.6f}s simulated, "
        f"{summary['total_events']} events, "
        f"{len(summary['processes'])} processes"
    ]
    for title, prefix in _RESOURCES:
        tracks = [t for t in summary["tracks"] if t["thread"].startswith(prefix)]
        if tracks:
            lines += ["", f"per-{title} utilization:"]
        for track in tracks:
            moved = f"{track['bytes'] / 1e6:.1f} MB"
            if prefix == "device":
                moved = f"{track['busy_seconds']:.6f}s, {moved}"
            lines.append(
                f"  {track['process']:<10s} {track['thread']:<16s} "
                f"busy {track['utilization']:6.1%}  ({moved})"
            )

    if summary["ledger"]:
        lines += ["", "breakdown categories (engine-seconds, Figure 17 share):"]
        lines += [f"  {line}" for line in ledger_lines(summary["ledger"])]

    recovery = summary["recovery"]
    if recovery is not None:
        lines += ["", "recovery decomposition (fault injection, job wall time):"]
        lines.append(f"  {'useful':<11s} {recovery['useful_seconds']:12.6f}s")
        for cat in RECOVERY_WALL_CATEGORIES:
            lines.append(f"  {cat:<11s} {recovery[f'{cat}_seconds']:12.6f}s")
        # Overlapping detail: backoff waits and integrity-repair work
        # happen *inside* the windows above (and inside useful time),
        # so they are shown but not subtracted.
        for cat in RECOVERY_CATEGORIES:
            seconds = recovery[f"{cat}_seconds"]
            if cat not in RECOVERY_WALL_CATEGORIES and seconds > 0:
                lines.append(f"  {cat:<11s} {seconds:12.6f}s  (overlapping)")

    hits = {name: value for name, value in summary["integrity"].items() if value}
    if hits:
        lines += ["", "integrity counters (injected faults and defenses):"]
        lines += [f"  {name:<24s} {value}" for name, value in hits.items()]

    if summary["span_names"]:
        lines += ["", f"top spans by total time (of {summary['span_names']}):"]
        for span in summary["top_spans"]:
            lines.append(
                f"  {span['track']:<10s} {span['name']:<24s} n={span['count']:<6d} "
                f"total={span['total_seconds']:10.6f}s  "
                f"mean={span['mean_seconds'] * 1e6:10.2f}us"
            )

    if summary["instants"]:
        lines += ["", "instant events:"]
        lines += [f"  {name:<24s} {n}" for name, n in summary["instants"].items()]

    counters = summary["counters"]
    if counters:
        lines += ["", f"counter series ({len(counters)}):"]
        for name, stats in counters.items():
            lines.append(
                f"  {name:<24s} samples={stats['samples']:<6d} "
                f"mean={stats['mean']:.4g}  peak={stats['peak']:.4g}"
            )

    if summary["unbalanced_spans"]:
        lines += ["", f"WARNING: {summary['unbalanced_spans']} unbalanced span events"]

    attribution = doc["attribution"]
    if attribution is not None:
        lines.append("")
        lines += format_iteration_table(attribution)
        lines.append(
            f"binding resource: {attribution['bottleneck']} "
            f"(dominant category: {attribution['dominant_category']})"
        )
    chains = doc["slowest_chains"]
    if chains:
        lines += ["", f"slowest barrier chains (top {len(chains)}):"]
        lines += [f"  {line}" for line in format_chain_table(chains).splitlines()]
    checks = doc["cross_check"]
    if checks:
        bad = sum(not record["ok"] for record in checks)
        lines.append(
            f"causal x critpath cross-check: {len(checks) - bad}/{len(checks)} "
            f"barrier(s) reconciled" + ("  MISMATCH" if bad else "")
        )
    if doc["host"] is not None:
        lines += ["", format_host_report(doc["host"], doc["host_skew"], top=host_top)]
    return "\n".join(lines)
