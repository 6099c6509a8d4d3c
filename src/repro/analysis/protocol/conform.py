"""Replay causal-trace DAGs against the declared protocol vocabulary.

A trace (``run --trace`` / fuzz deadlock capture) carries the causal
events of one execution: message sends (with delivery stamps), barrier
arrivals and releases.  Conformance holds when

* every observed message kind is declared in
  :data:`repro.net.transport.MESSAGE_KINDS` (no **unmodeled
  transitions**), and
* every barrier release is causally downstream of every arrival of its
  round (no premature release).

The report also surfaces **declared-but-never-observed** kinds (paths
the protocol allows that this execution never took — a coverage signal,
not a failure) and the **stuck transitions** of an incomplete trace:
messages that were sent but never delivered and barrier rounds with
arrivals but no release.  For a deadlock-classified fuzz episode that is
exactly the transition the cluster hung on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.net.transport import MESSAGE_KINDS
from repro.obs.causal import (
    message_kind_counts,
    undelivered_messages,
    unreleased_barriers,
)

__all__ = ["ConformanceReport", "conform"]


@dataclass
class ConformanceReport:
    #: message kinds observed in the trace but declared by no service.
    unmodeled: List[str] = field(default_factory=list)
    #: declared kinds the trace never exercised (coverage, not failure).
    unobserved: List[str] = field(default_factory=list)
    #: barrier rounds violating arrive-before-release, with detail.
    barrier_violations: List[str] = field(default_factory=list)
    #: sent-but-never-delivered messages: "kind mSRC->mDST (xN)".
    stuck_messages: List[str] = field(default_factory=list)
    #: barrier rounds with arrivals but no release: "KEY waited-on by ...".
    stuck_barriers: List[str] = field(default_factory=list)
    #: observed kind -> event count (context for the reader).
    observed: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.unmodeled and not self.barrier_violations

    @property
    def stuck(self) -> bool:
        """The trace ends mid-protocol (a deadlock/crash capture)."""
        return bool(self.stuck_messages or self.stuck_barriers)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "stuck": self.stuck,
            "unmodeled": list(self.unmodeled),
            "unobserved": list(self.unobserved),
            "barrier_violations": list(self.barrier_violations),
            "stuck_messages": list(self.stuck_messages),
            "stuck_barriers": list(self.stuck_barriers),
            "observed": dict(self.observed),
        }

    def format_text(self) -> str:
        lines = [
            "trace conformance: "
            + ("PASS" if self.ok else "FAIL")
            + (" (incomplete trace)" if self.stuck else "")
        ]
        total = sum(self.observed.values())
        lines.append(
            f"  observed {total} message(s) across "
            f"{len(self.observed)} kind(s)"
        )
        for kind in sorted(self.observed):
            lines.append(f"    {kind}: {self.observed[kind]}")
        if self.unmodeled:
            lines.append("  UNMODELED transitions (kind not declared):")
            for kind in self.unmodeled:
                lines.append(f"    {kind}")
        else:
            lines.append("  unmodeled transitions: none")
        if self.barrier_violations:
            lines.append("  BARRIER violations (release before arrival):")
            for item in self.barrier_violations:
                lines.append(f"    {item}")
        else:
            lines.append("  barrier violations: none")
        if self.unobserved:
            lines.append(
                "  declared but never observed (coverage): "
                + ", ".join(self.unobserved)
            )
        if self.stuck_messages:
            lines.append("  stuck transitions (sent, never delivered):")
            for item in self.stuck_messages:
                lines.append(f"    {item}")
        if self.stuck_barriers:
            lines.append("  stuck barriers (arrived, never released):")
            for item in self.stuck_barriers:
                lines.append(f"    {item}")
        return "\n".join(lines)


def conform(events: Sequence[Dict[str, Any]]) -> ConformanceReport:
    """Check one causal event list against the declared vocabulary (a
    trace records each message's kind, not its service, so the check
    is against the union of every service's kinds)."""
    report = ConformanceReport()
    report.observed = message_kind_counts(events)
    declared = frozenset().union(*MESSAGE_KINDS.values())
    report.unmodeled = sorted(set(report.observed) - declared)
    report.unobserved = sorted(declared - set(report.observed))

    # Barrier consensus on the recorded DAG: the release of a round
    # must list every arrival as a parent and never precede one.
    arrivals: Dict[str, List[Dict[str, Any]]] = {}
    releases: Dict[str, Dict[str, Any]] = {}
    for event in events:
        key = event.get("barrier")
        if key is None:
            continue
        bucket = (event.get("trace"), key)
        if event.get("kind") == "arrive":
            arrivals.setdefault(bucket, []).append(event)  # type: ignore[arg-type]
        elif event.get("kind") == "release":
            releases[bucket] = event  # type: ignore[index]
    for bucket, arrived in sorted(arrivals.items(), key=str):
        release = releases.get(bucket)
        if release is None:
            continue  # reported via unreleased_barriers below
        parents = set(release.get("parents") or [])
        for arrival in arrived:
            label = (
                f"{bucket[1]}: machine {arrival.get('machine')} arrival "
                f"(event {arrival.get('id')})"
            )
            if arrival["id"] not in parents:
                report.barrier_violations.append(
                    f"{label} missing from release parents"
                )
            elif (
                release.get("t0") is not None
                and arrival.get("t0") is not None
                and arrival["t0"] > release["t0"]
            ):
                report.barrier_violations.append(
                    f"{label} at t={arrival['t0']:.6f} after release "
                    f"at t={release['t0']:.6f}"
                )

    for kind, src, dst, count in undelivered_messages(events):
        suffix = f" (x{count})" if count > 1 else ""
        report.stuck_messages.append(f"{kind} m{src}->m{dst}{suffix}")
    for key, machines in unreleased_barriers(events):
        waiters = ", ".join(f"m{m}" for m in machines)
        report.stuck_barriers.append(f"{key} waited on by {waiters}")
    return report
