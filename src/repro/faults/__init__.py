"""In-simulation fault injection and live recovery (Section 6.6).

This package makes machine failures *happen inside the simulation* —
real crashed processes, dropped messages, expired leases, and a restore
path that reads replicated checkpoint bytes back through the modelled
network and storage devices — rather than being analytically costed.

The keystone invariant: for a fixed ``(config, seed)``, a fault-injected
run's final vertex values are byte-identical to the undisturbed run's
(requires ``aggregate_updates=False``, the default — every gather is
exact in any order, so the numeric reduction is schedule-independent).

Entry points:

- :func:`repro.faults.plan.parse_fault_spec` / :class:`FaultPlan` — the
  ``--inject-fault`` grammar.
- ``run_algorithm(..., fault_plan=...)`` /
  ``ChaosCluster.run(..., fault_plan=...)`` — execution; the cluster's
  ``last_fault_timeline`` attribute holds the :class:`FaultTimeline`.
"""

from repro.faults.detector import (
    HEARTBEAT_BYTES,
    FailureDetector,
    HeartbeatSender,
)
from repro.faults.diagnosis import JobDiagnosis, UnrecoverableJobError
from repro.faults.plan import (
    BYZANTINE_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    parse_fault_spec,
)
from repro.faults.registry import CheckpointGeneration, CheckpointRegistry
from repro.faults.supervisor import (
    ClusterSupervisor,
    FaultRecord,
    FaultTimeline,
    RecoveryRound,
)

__all__ = [
    "BYZANTINE_KINDS",
    "HEARTBEAT_BYTES",
    "CheckpointGeneration",
    "CheckpointRegistry",
    "ClusterSupervisor",
    "FailureDetector",
    "FaultKind",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "FaultTimeline",
    "HeartbeatSender",
    "JobDiagnosis",
    "RecoveryRound",
    "UnrecoverableJobError",
    "parse_fault_spec",
]
