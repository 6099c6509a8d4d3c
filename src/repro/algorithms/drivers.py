"""Multi-phase driver support.

MCST and SCC are not single GAS jobs: like their X-Stream counterparts
they are *drivers* that run a sequence of GAS computations, carrying
vertex state between them and (for MCST) rewriting the edge set between
rounds — the paper notes this extension: *"In an extended version of the
model, edges may also be rewritten during the computation"* (Section
6.1, footnote 2).

Each sub-job runs on its own simulated cluster instance; the driver sums
simulated runtimes (including each sub-job's pre-processing pass, which
models the between-round edge rewriting cost) and aggregates I/O
counters, producing a result with the same reporting surface as a
single :class:`~repro.core.metrics.JobResult`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.metrics import Breakdown, JobResult


@dataclass
class DriverResult:
    """Aggregate result of a multi-phase (multi-job) computation."""

    algorithm: str
    machines: int
    runtime: float
    rounds: int
    jobs: List[JobResult] = field(default_factory=list)
    values: Optional[dict] = None

    @property
    def iterations(self) -> int:
        return sum(job.iterations for job in self.jobs)

    @property
    def storage_bytes(self) -> int:
        return sum(job.storage_bytes for job in self.jobs)

    @property
    def network_bytes(self) -> int:
        return sum(job.network_bytes for job in self.jobs)

    @property
    def steals_accepted(self) -> int:
        return sum(job.steals_accepted for job in self.jobs)

    @property
    def steals_rejected(self) -> int:
        return sum(job.steals_rejected for job in self.jobs)

    @property
    def preprocessing_seconds(self) -> float:
        return sum(job.preprocessing_seconds for job in self.jobs)

    @property
    def aggregate_bandwidth(self) -> float:
        if self.runtime <= 0:
            return 0.0
        return self.storage_bytes / self.runtime

    @property
    def checkpoints(self) -> int:
        return sum(job.checkpoints for job in self.jobs)

    def total_breakdown(self) -> Breakdown:
        result = Breakdown()
        for job in self.jobs:
            result = result.merged_with(job.total_breakdown())
        return result

    @property
    def breakdowns(self) -> List[Breakdown]:
        merged: List[Breakdown] = []
        for job in self.jobs:
            for index, breakdown in enumerate(job.breakdowns):
                if index >= len(merged):
                    merged.append(Breakdown())
                merged[index] = merged[index].merged_with(breakdown)
        return merged

    def summary(self) -> str:
        return (
            f"{self.algorithm}: m={self.machines} runtime={self.runtime:.3f}s "
            f"rounds={self.rounds} jobs={len(self.jobs)} "
            f"net={self.network_bytes / 1e6:.1f} MB"
        )

    def to_dict(self) -> dict:
        """Machine-readable aggregate, with per-job payloads nested."""
        return {
            "algorithm": self.algorithm,
            "machines": self.machines,
            "runtime": self.runtime,
            "rounds": self.rounds,
            "iterations": self.iterations,
            "preprocessing_seconds": self.preprocessing_seconds,
            "storage_bytes": self.storage_bytes,
            "network_bytes": self.network_bytes,
            "aggregate_bandwidth": self.aggregate_bandwidth,
            "steals_accepted": self.steals_accepted,
            "steals_rejected": self.steals_rejected,
            "checkpoints": self.checkpoints,
            "breakdown": self.total_breakdown().seconds(),
            "jobs": [job.to_dict() for job in self.jobs],
            "value_keys": sorted(self.values) if self.values else [],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` payload serialized deterministically."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)
