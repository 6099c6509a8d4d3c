"""Trace analysis: summarize a saved Chrome-trace JSON file.

``repro trace-report out.json`` (and the test-suite reconciliation
against :class:`repro.core.metrics.Breakdown`) are built on
:func:`summarize_trace`, which replays a trace file into:

* per-device and per-NIC busy time and utilization (from the complete
  spans on the device/NIC tracks);
* a span summary aggregated by name (count, total, mean);
* per-category totals for the nested engine spans — the categories are
  the Figure 17 breakdown categories, so these totals reconcile with
  ``JobResult.total_breakdown()`` to float precision;
* instant-event counts (steal traffic, chunk completions) and counter
  series statistics (mean/peak of each sampled timeline).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.metrics import BREAKDOWN_CATEGORIES

#: Categories the fault-injection subsystem stamps on traces: work
#: discarded by a rollback, checkpoint-restore time, bounded-backoff
#: waits of retried RPCs, and integrity-repair work (re-reads, write
#: rewrites, checkpoint re-replication).  Tracked separately from the
#: Figure 17 breakdown — they measure recovery, not steady-state
#: per-engine busy time.
RECOVERY_CATEGORIES = ("lost", "restore", "retry_wait", "integrity")

#: The subset of recovery categories that are non-overlapping wall-time
#: windows of the whole job (the Section 9.6 useful/lost/restore split).
#: ``retry_wait`` / ``integrity`` spans live on engine and storage
#: tracks and overlap those windows, so they are reported as additional
#: detail rows, not subtracted from the useful time.
RECOVERY_WALL_CATEGORIES = ("lost", "restore")

#: Trace Event Format microseconds → seconds.
_SECONDS = 1e-6


@dataclass
class SpanStats:
    """Aggregate of all spans sharing a name."""

    count: int = 0
    total: float = 0.0  # seconds

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class CounterStats:
    samples: int = 0
    total: float = 0.0
    peak: float = 0.0

    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0


@dataclass
class TraceSummary:
    """Everything the text report (and the tests) read from a trace."""

    #: End of the trace in simulated seconds (largest event timestamp).
    duration: float = 0.0
    processes: Dict[int, str] = field(default_factory=dict)
    threads: Dict[Tuple[int, int], str] = field(default_factory=dict)
    #: Busy seconds per (pid, tid) track, from complete ("X") spans.
    track_busy: Dict[Tuple[int, int], float] = field(default_factory=dict)
    #: Bytes moved per (pid, tid) track (sum of span ``bytes`` args).
    track_bytes: Dict[Tuple[int, int], int] = field(default_factory=dict)
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    #: Figure 17 category totals summed over every engine track.
    category_seconds: Dict[str, float] = field(default_factory=dict)
    instants: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, CounterStats] = field(default_factory=dict)
    #: Integrity/byzantine counters from the run's ``job.integrity``
    #: marker (``JobResult.integrity`` written into the trace).
    integrity: Dict[str, int] = field(default_factory=dict)
    begin_events: int = 0
    end_events: int = 0
    unbalanced_spans: int = 0
    total_events: int = 0

    def thread_name(self, pid: int, tid: int) -> str:
        return self.threads.get((pid, tid), f"tid{tid}")

    def utilization(self, pid: int, tid: int) -> float:
        if self.duration <= 0:
            return 0.0
        return self.track_busy.get((pid, tid), 0.0) / self.duration

    def tracks_matching(self, prefix: str) -> List[Tuple[int, int]]:
        """Tracks whose thread name starts with ``prefix``, pid-ordered."""
        return sorted(
            key for key, name in self.threads.items()
            if name.startswith(prefix)
        )


def load_trace(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if "traceEvents" not in data:
        raise ValueError(f"{path}: not a Chrome trace (no 'traceEvents')")
    return data


def summarize_trace(trace: dict) -> TraceSummary:
    """Digest a loaded Trace Event Format document."""
    summary = TraceSummary()
    open_spans: Dict[Tuple[int, int], List[Tuple[str, str, float]]] = {}
    for event in trace["traceEvents"]:
        ph = event["ph"]
        key = (event["pid"], event["tid"])
        if ph == "M":
            if event["name"] == "process_name":
                summary.processes[event["pid"]] = event["args"]["name"]
            elif event["name"] == "thread_name":
                summary.threads[key] = event["args"]["name"]
            continue
        summary.total_events += 1
        ts = event["ts"] * _SECONDS
        end = ts
        if ph == "B":
            summary.begin_events += 1
            open_spans.setdefault(key, []).append(
                (event["name"], event.get("cat"), ts)
            )
        elif ph == "E":
            summary.end_events += 1
            stack = open_spans.get(key)
            if not stack:
                summary.unbalanced_spans += 1
                continue
            name, cat, begin_ts = stack.pop()
            duration = ts - begin_ts
            stats = summary.spans.setdefault(name, SpanStats())
            stats.count += 1
            stats.total += duration
            if cat in BREAKDOWN_CATEGORIES or cat in RECOVERY_CATEGORIES:
                summary.category_seconds[cat] = (
                    summary.category_seconds.get(cat, 0.0) + duration
                )
        elif ph == "X":
            duration = event.get("dur", 0.0) * _SECONDS
            end = ts + duration
            stats = summary.spans.setdefault(event["name"], SpanStats())
            stats.count += 1
            stats.total += duration
            cat = event.get("cat")
            if cat in RECOVERY_CATEGORIES:
                summary.category_seconds[cat] = (
                    summary.category_seconds.get(cat, 0.0) + duration
                )
            summary.track_busy[key] = (
                summary.track_busy.get(key, 0.0) + duration
            )
            size = event.get("args", {}).get("bytes")
            if size is not None:
                summary.track_bytes[key] = (
                    summary.track_bytes.get(key, 0) + int(size)
                )
        elif ph == "i":
            summary.instants[event["name"]] = (
                summary.instants.get(event["name"], 0) + 1
            )
            if event["name"] == "job.integrity":
                for counter, value in event.get("args", {}).items():
                    summary.integrity[counter] = (
                        summary.integrity.get(counter, 0) + int(value)
                    )
        elif ph == "C":
            stats = summary.counters.setdefault(event["name"], CounterStats())
            value = event["args"]["value"]
            stats.samples += 1
            stats.total += value
            stats.peak = max(stats.peak, value)
        if end > summary.duration:
            summary.duration = end
    summary.unbalanced_spans += sum(len(s) for s in open_spans.values())
    return summary


def summarize_trace_file(path: str) -> TraceSummary:
    return summarize_trace(load_trace(path))


def format_trace_report(summary: TraceSummary, top: int = 12) -> str:
    """Render the terminal report for ``repro trace-report``."""
    lines: List[str] = []
    lines.append(
        f"trace: {summary.duration:.6f}s simulated, "
        f"{summary.total_events} events, "
        f"{len(summary.processes)} processes"
    )

    for title, prefix in (("device", "device"), ("NIC", "nic.")):
        tracks = summary.tracks_matching(prefix)
        if tracks:
            lines.append("")
            lines.append(f"per-{title} utilization:")
        for pid, tid in tracks:
            process = summary.processes.get(pid, f"pid{pid}")
            moved = f"{summary.track_bytes.get((pid, tid), 0) / 1e6:.1f} MB"
            if prefix == "device":
                moved = f"{summary.track_busy.get((pid, tid), 0.0):.6f}s, {moved}"
            lines.append(
                f"  {process:<10s} {summary.thread_name(pid, tid):<16s} "
                f"busy {summary.utilization(pid, tid):6.1%}  ({moved})"
            )

    if summary.category_seconds:
        lines.append("")
        lines.append("breakdown categories (engine spans, summed):")
        total = sum(
            summary.category_seconds.get(cat, 0.0)
            for cat in BREAKDOWN_CATEGORIES
        )
        for cat in BREAKDOWN_CATEGORIES:
            seconds = summary.category_seconds.get(cat, 0.0)
            share = seconds / total if total > 0 else 0.0
            lines.append(f"  {cat:<11s} {seconds:12.6f}s  {share:6.1%}")

    recovery_total = sum(
        summary.category_seconds.get(cat, 0.0) for cat in RECOVERY_CATEGORIES
    )
    if recovery_total > 0:
        lines.append("")
        lines.append("recovery decomposition (fault injection, job wall time):")
        wall = sum(
            summary.category_seconds.get(cat, 0.0)
            for cat in RECOVERY_WALL_CATEGORIES
        )
        useful = summary.duration - wall
        lines.append(f"  {'useful':<11s} {useful:12.6f}s")
        for cat in RECOVERY_WALL_CATEGORIES:
            seconds = summary.category_seconds.get(cat, 0.0)
            lines.append(f"  {cat:<11s} {seconds:12.6f}s")
        # Overlapping detail: backoff waits and integrity-repair work
        # happen *inside* the windows above (and inside useful time),
        # so they are shown but not subtracted.
        for cat in RECOVERY_CATEGORIES:
            if cat in RECOVERY_WALL_CATEGORIES:
                continue
            seconds = summary.category_seconds.get(cat, 0.0)
            if seconds > 0:
                lines.append(f"  {cat:<11s} {seconds:12.6f}s  (overlapping)")

    hits = {k: v for k, v in sorted(summary.integrity.items()) if v}
    if hits:
        lines.append("")
        lines.append("integrity counters (injected faults and defenses):")
        for counter, value in hits.items():
            lines.append(f"  {counter:<24s} {value}")

    if summary.spans:
        lines.append("")
        lines.append(f"top spans by total time (of {len(summary.spans)}):")
        ranked = sorted(
            summary.spans.items(), key=lambda kv: (-kv[1].total, kv[0])
        )
        for name, stats in ranked[:top]:
            lines.append(
                f"  {name:<24s} n={stats.count:<6d} "
                f"total={stats.total:10.6f}s  mean={stats.mean() * 1e6:10.2f}us"
            )

    if summary.instants:
        lines.append("")
        lines.append("instant events:")
        for name in sorted(summary.instants):
            lines.append(f"  {name:<24s} {summary.instants[name]}")

    if summary.counters:
        lines.append("")
        lines.append(f"counter series ({len(summary.counters)}):")
        for name in sorted(summary.counters):
            stats = summary.counters[name]
            lines.append(
                f"  {name:<24s} samples={stats.samples:<6d} "
                f"mean={stats.mean():.4g}  peak={stats.peak:.4g}"
            )

    if summary.unbalanced_spans:
        lines.append("")
        lines.append(
            f"WARNING: {summary.unbalanced_spans} unbalanced span events"
        )
    return "\n".join(lines)


def summary_to_dict(summary: TraceSummary, top: int = 12) -> dict:
    """The :func:`format_trace_report` tables, machine-readable."""
    ranked = sorted(
        summary.spans.items(), key=lambda kv: (-kv[1].total, kv[0])
    )
    tracks = []
    for pid, tid in sorted(set(summary.track_busy) | set(summary.track_bytes)):
        tracks.append(
            {
                "pid": pid,
                "tid": tid,
                "process": summary.processes.get(pid, f"pid{pid}"),
                "thread": summary.thread_name(pid, tid),
                "busy_seconds": summary.track_busy.get((pid, tid), 0.0),
                "utilization": summary.utilization(pid, tid),
                "bytes": summary.track_bytes.get((pid, tid), 0),
            }
        )
    recovery = None
    recovery_total = sum(
        summary.category_seconds.get(cat, 0.0) for cat in RECOVERY_CATEGORIES
    )
    if recovery_total > 0:
        wall = sum(
            summary.category_seconds.get(cat, 0.0)
            for cat in RECOVERY_WALL_CATEGORIES
        )
        recovery = {
            "useful_seconds": summary.duration - wall,
            **{
                f"{cat}_seconds": summary.category_seconds.get(cat, 0.0)
                for cat in RECOVERY_CATEGORIES
            },
        }
    return {
        "duration": summary.duration,
        "total_events": summary.total_events,
        "processes": {
            str(pid): name for pid, name in sorted(summary.processes.items())
        },
        "tracks": tracks,
        "category_seconds": dict(sorted(summary.category_seconds.items())),
        "recovery": recovery,
        "top_spans": [
            {
                "name": name,
                "count": stats.count,
                "total_seconds": stats.total,
                "mean_seconds": stats.mean(),
            }
            for name, stats in ranked[:top]
        ],
        "span_names": len(summary.spans),
        "instants": dict(sorted(summary.instants.items())),
        "counters": {
            name: {
                "samples": stats.samples,
                "mean": stats.mean(),
                "peak": stats.peak,
            }
            for name, stats in sorted(summary.counters.items())
        },
        "integrity": dict(sorted(summary.integrity.items())),
        "unbalanced_spans": summary.unbalanced_spans,
    }


def trace_report_json(trace: dict, top: int = 12) -> dict:
    """Everything ``trace-report`` prints, as one JSON document.

    Mirrors the text report section-for-section: span/track summary,
    critpath attribution (None for spanless traces), the causal
    slowest-chain table plus its critpath cross-check (None for traces
    without ``causalEvents``), and the host metrics/skew table (None
    without ``--host-profile``).
    """
    from repro.obs import causal as causal_mod
    from repro.obs.critpath import AttributionError, analyze_chrome_trace
    from repro.obs.host import host_skew

    summary = summarize_trace(trace)
    document: dict = {"summary": summary_to_dict(summary, top=top)}

    try:
        attribution = analyze_chrome_trace(trace)
    except AttributionError:
        attribution = None
    document["attribution"] = (
        attribution.to_dict() if attribution is not None else None
    )

    try:
        causal_events = causal_mod.causal_events_from_trace(trace)
    except causal_mod.CausalError:
        causal_events = None
    if causal_events:
        chains = causal_mod.slowest_chains(causal_events, top)
        document["slowest_chains"] = [chain.to_dict() for chain in chains]
        document["cross_check"] = (
            causal_mod.cross_check(causal_events, attribution)
            if attribution is not None
            else None
        )
    else:
        document["slowest_chains"] = None
        document["cross_check"] = None

    host_doc = trace.get("hostMetrics")
    document["host"] = host_doc
    skew = None
    if host_doc is not None:
        skew = host_skew(
            host_doc, {name: stats.total for name, stats in summary.spans.items()}
        )
    document["host_skew"] = skew
    return document
