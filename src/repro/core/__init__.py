"""Chaos core: the GAS runtime, computation engines and cluster driver.

This package is the paper's primary contribution: an edge-centric GAS
(gather-apply-scatter) engine that executes streaming partitions spread
over the aggregate secondary storage of a cluster, with randomized chunk
placement, batched requests (Section 6.5), randomized work stealing
(Section 5.3-5.4) and optional two-phase checkpointing (Section 6.6).
"""

from repro.core.batching import (
    amplification_factor,
    request_window,
    utilization,
    utilization_limit,
)
from repro.core.config import ClusterConfig
from repro.core.gas import GasAlgorithm, GraphContext, exact_add_at
from repro.core.metrics import Breakdown, IterationStats, JobResult
from repro.core.runtime import ChaosCluster, run_algorithm
from repro.core.stealing import StealDecision, should_accept_steal

__all__ = [
    "Breakdown",
    "ChaosCluster",
    "ClusterConfig",
    "GasAlgorithm",
    "GraphContext",
    "IterationStats",
    "JobResult",
    "StealDecision",
    "amplification_factor",
    "exact_add_at",
    "request_window",
    "run_algorithm",
    "should_accept_steal",
    "utilization",
    "utilization_limit",
]
