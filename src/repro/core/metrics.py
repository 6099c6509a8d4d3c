"""Runtime metrics: the Figure 14 and Figure 17 instrumentation.

Each computation engine keeps one ledger of simulated time: every wait
of its main process is charged the time since the engine's previous
charge ended, so the categories tile the engine's life and sum to the
job's runtime.  Figure 17's six categories:

* ``gp_master`` — graph processing of partitions the engine masters;
* ``gp_stolen`` — graph processing of partitions stolen from others;
* ``copy``      — reading/writing vertex sets and shipping accumulators;
* ``merge``     — merging stealer accumulators and running Apply;
* ``merge_wait``— master idle, waiting for stealer accumulators;
* ``barrier``   — idle at the global phase barriers.

and the time those six never held, kept outside Figure 17's shares:

* ``preprocess``   — the pre-processing pass and its barrier (§4);
* ``steal_propose``— waiting for the reply to a steal proposal (§5.4);
* ``rollback``     — a failed epoch, from the engine's last completed
  wait to the recovery fence that ended it (a crashed machine's
  downtime included);
* ``restore``      — a resumed epoch, from that fence to its
  restore-barrier release (§6.6).

The cluster-level :class:`JobResult` also reports aggregate storage
bandwidth (Figure 14), bytes moved, and per-iteration statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

BREAKDOWN_CATEGORIES = (
    "gp_master",
    "gp_stolen",
    "copy",
    "merge",
    "merge_wait",
    "barrier",
)

#: Every category of an engine's ledger: Figure 17's six, then the rest.
LEDGER_CATEGORIES = BREAKDOWN_CATEGORIES + (
    "preprocess",
    "steal_propose",
    "rollback",
    "restore",
)


@dataclass
class Breakdown:
    """Per-engine simulated time by ledger category; :meth:`total` and
    :meth:`fractions` cover Figure 17's six."""

    gp_master: float = 0.0
    gp_stolen: float = 0.0
    copy: float = 0.0
    merge: float = 0.0
    merge_wait: float = 0.0
    barrier: float = 0.0
    preprocess: float = 0.0
    steal_propose: float = 0.0
    rollback: float = 0.0
    restore: float = 0.0

    def add(self, category: str, seconds: float) -> None:
        if category not in LEDGER_CATEGORIES:
            raise ValueError(f"unknown breakdown category {category!r}")
        setattr(self, category, getattr(self, category) + seconds)

    def total(self) -> float:
        return sum(getattr(self, c) for c in BREAKDOWN_CATEGORIES)

    def seconds(self) -> Dict[str, float]:
        """Every ledger category, in :data:`LEDGER_CATEGORIES` order."""
        return {c: getattr(self, c) for c in LEDGER_CATEGORIES}

    def fractions(self) -> Dict[str, float]:
        """Each category as a fraction of the total (0 if empty)."""
        total = self.total()
        if total <= 0:
            return {c: 0.0 for c in BREAKDOWN_CATEGORIES}
        return {c: getattr(self, c) / total for c in BREAKDOWN_CATEGORIES}

    def merged_with(self, other: "Breakdown") -> "Breakdown":
        result = Breakdown()
        for category in LEDGER_CATEGORIES:
            result.add(
                category, getattr(self, category) + getattr(other, category)
            )
        return result


def ledger_lines(seconds: Dict[str, float]) -> List[str]:
    """The ten rows of a :meth:`Breakdown.seconds` dict (keys in any
    order, a missing one 0, a foreign one ignored: it may come from a
    trace file), Figure 17's six with their share."""
    ledger = Breakdown(**{c: seconds.get(c, 0.0) for c in LEDGER_CATEGORIES})
    shares = ledger.fractions()
    return [f"{c:<13s} {getattr(ledger, c):10.6f}s" + (f"  {shares[c]:6.1%}" if c in shares else "")
            for c in LEDGER_CATEGORIES]


@dataclass
class IterationStats:
    """Cluster-wide counters for one scatter+gather iteration.

    Time is not kept here: each engine's :class:`Breakdown` holds it,
    and the trace's spans split it per iteration (``run --attribute``,
    ``trace-report``).
    """

    iteration: int
    updates_produced: int = 0
    update_bytes: int = 0
    edges_streamed: int = 0
    vertices_changed: int = 0
    steals_accepted: int = 0
    steals_rejected: int = 0


@dataclass
class JobResult:
    """Everything a Chaos run reports.

    ``runtime`` is simulated wall-clock seconds from the start of
    pre-processing to the final vertex state being durable, matching the
    paper's measurement convention (Section 8: *"all results include
    pre-processing time"*).
    """

    algorithm: str
    machines: int
    runtime: float
    preprocessing_seconds: float
    iterations: int
    iteration_stats: List[IterationStats] = field(default_factory=list)
    breakdowns: List[Breakdown] = field(default_factory=list)
    #: Total bytes served by all storage devices (reads + writes).
    storage_bytes: int = 0
    #: Bytes that crossed the network switch.
    network_bytes: int = 0
    #: Total steal proposals accepted / rejected.
    steals_accepted: int = 0
    steals_rejected: int = 0
    #: Final vertex state (data mode only).
    values: Optional[dict] = None
    #: Checkpoint count (when checkpointing is enabled).
    checkpoints: int = 0
    #: Update records / bytes actually written to storage (differs from
    #: the scatter-produced counts when update aggregation is on).
    updates_written_records: int = 0
    updates_written_bytes: int = 0
    #: Integrity/byzantine counters (injected message faults and their
    #: transport/storage-level suppression), cluster-wide totals.
    integrity: Dict[str, int] = field(default_factory=dict)

    @property
    def aggregate_bandwidth(self) -> float:
        """Aggregate storage bandwidth seen by computation (Figure 14)."""
        if self.runtime <= 0:
            return 0.0
        return self.storage_bytes / self.runtime

    def total_breakdown(self) -> Breakdown:
        result = Breakdown()
        for breakdown in self.breakdowns:
            result = result.merged_with(breakdown)
        return result

    def total_updates(self) -> int:
        return sum(s.updates_produced for s in self.iteration_stats)

    def summary(self) -> str:
        text = (
            f"{self.algorithm}: m={self.machines} runtime={self.runtime:.3f}s "
            f"iters={self.iterations} "
            f"bw={self.aggregate_bandwidth / 1e6:.1f} MB/s "
            f"steals={self.steals_accepted} "
            f"net={self.network_bytes / 1e6:.1f} MB"
        )
        if self.checkpoints:
            text += f" checkpoints={self.checkpoints}"
        hits = {k: v for k, v in sorted(self.integrity.items()) if v}
        if hits:
            text += " integrity[" + " ".join(
                f"{k}={v}" for k, v in hits.items()
            ) + "]"
        return text

    def to_dict(self) -> dict:
        """Machine-readable result (everything except the vertex arrays).

        ``values`` is summarized by key names only — benchmark scripts
        that need the arrays have the in-process object.
        """
        breakdown = self.total_breakdown()
        return {
            "algorithm": self.algorithm,
            "machines": self.machines,
            "runtime": self.runtime,
            "preprocessing_seconds": self.preprocessing_seconds,
            "iterations": self.iterations,
            "storage_bytes": self.storage_bytes,
            "network_bytes": self.network_bytes,
            "aggregate_bandwidth": self.aggregate_bandwidth,
            "steals_accepted": self.steals_accepted,
            "steals_rejected": self.steals_rejected,
            "checkpoints": self.checkpoints,
            "updates_written_records": self.updates_written_records,
            "updates_written_bytes": self.updates_written_bytes,
            "integrity": dict(sorted(self.integrity.items())),
            "total_updates": self.total_updates(),
            "breakdown": breakdown.seconds(),
            "iteration_stats": [
                {
                    "iteration": s.iteration,
                    "updates_produced": s.updates_produced,
                    "update_bytes": s.update_bytes,
                    "edges_streamed": s.edges_streamed,
                    "vertices_changed": s.vertices_changed,
                    "steals_accepted": s.steals_accepted,
                    "steals_rejected": s.steals_rejected,
                }
                for s in self.iteration_stats
            ],
            "value_keys": sorted(self.values) if self.values else [],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` payload serialized deterministically."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)
