"""Chaos: scale-out graph processing from secondary storage (SOSP 2015).

A complete Python reproduction of Roy, Bindschaedler, Malicevic and
Zwaenepoel's Chaos — streaming partitions, the edge-centric GAS model,
chunked flat storage with uniform random placement, batched requests,
randomized work stealing and two-phase checkpointing — running on a
discrete-event model of the paper's cluster so that both the *results*
(functional, validated against reference implementations) and the
*scaling behaviour* (every table and figure of the evaluation) are
reproduced.

Quick start::

    from repro import rmat_graph, run_algorithm, PageRank, ClusterConfig

    graph = rmat_graph(14, seed=1)
    result = run_algorithm(PageRank(iterations=5), graph, machines=4)
    print(result.summary())
    ranks = result.values["rank"]

See README.md for the architecture overview and EXPERIMENTS.md for the
per-figure reproduction notes.
"""

from repro.algorithms import (
    BFS,
    KCore,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    Conductance,
    DriverResult,
    PageRank,
    SpMV,
    run_kcore_decomposition,
    run_mcst,
    run_scc,
)
from repro.baselines import run_giraph, run_xstream
from repro.core import (
    ChaosCluster,
    ClusterConfig,
    GasAlgorithm,
    GraphContext,
    JobResult,
    exact_add_at,
    run_algorithm,
)
from repro.core.runtime import GraphSpec
from repro.graph import (
    EdgeList,
    data_commons_like,
    rmat_graph,
    to_undirected,
)
from repro.net import GIGE_1, GIGE_40, NetworkConfig
from repro.obs import Tracer, write_chrome_trace
from repro.perf import (
    ActivityProfile,
    bfs_profile,
    extract_profile,
    fixed_profile,
    project_capacity,
)
from repro.store import HDD_RAID0, SSD_480GB, DeviceSpec

__version__ = "1.0.0"

__all__ = [
    "ActivityProfile",
    "BFS",
    "BeliefPropagation",
    "ChaosCluster",
    "ClusterConfig",
    "Conductance",
    "DeviceSpec",
    "DriverResult",
    "EdgeList",
    "GIGE_1",
    "GIGE_40",
    "GasAlgorithm",
    "GraphContext",
    "GraphSpec",
    "HDD_RAID0",
    "JobResult",
    "KCore",
    "MIS",
    "NetworkConfig",
    "PageRank",
    "SSD_480GB",
    "SSSP",
    "SpMV",
    "Tracer",
    "WCC",
    "bfs_profile",
    "data_commons_like",
    "exact_add_at",
    "extract_profile",
    "fixed_profile",
    "project_capacity",
    "rmat_graph",
    "run_algorithm",
    "run_giraph",
    "run_kcore_decomposition",
    "run_mcst",
    "run_scc",
    "run_xstream",
    "to_undirected",
    "write_chrome_trace",
]
