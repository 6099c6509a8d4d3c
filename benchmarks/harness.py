"""Shared harness for the per-figure/table reproduction benchmarks.

Scaling strategy
----------------
The paper's experiments stream up to hundreds of terabytes; functional
Python runs obviously cannot.  Every benchmark here is a *dimensionally
scaled* version of the paper's experiment:

* graphs are RMAT, scaled down (the benchmark prints which scale stands
  in for which paper scale);
* the hardware model keeps the paper's bandwidths (SSD 400 MB/s, HDD
  200 MB/s, 40/1 GigE) and scales all latencies by the same factor as
  the data, so the runs sit in the same streaming-dominated regime as
  the paper's (see ``repro.store.device``);
* chunk sizes scale with the data so that a scatter phase streams a
  comparable number of chunks per partition.

What must reproduce is the *shape*: who wins, by what factor, where the
knees are.  Absolute times are simulated seconds, not testbed seconds.

Runs are memoized: several figures share the same underlying sweeps
(e.g. Figure 7 weak scaling feeds Figures 14 and 17).
"""

from __future__ import annotations

import functools
import math
import os
from typing import Dict, List

import numpy as np

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    Conductance,
    PageRank,
    SpMV,
    run_mcst,
    run_scc,
)
from repro.core import ClusterConfig
from repro.core.runtime import run_algorithm
from repro.graph import data_commons_like, rmat_graph, to_undirected
from repro.graph.stats import out_degrees
from repro.net.topology import GIGE_1_BENCH, GIGE_40_BENCH
from repro.store.device import HDD_BENCH, SSD_BENCH

#: Machine counts used throughout the evaluation (Section 9).
MACHINES = [1, 2, 4, 8, 16, 32]

#: All ten algorithms in Table 1 order.
ALGORITHM_NAMES = [
    "BFS",
    "WCC",
    "MCST",
    "MIS",
    "SSSP",
    "SCC",
    "PR",
    "Cond",
    "SpMV",
    "BP",
]

#: Base RMAT scale standing in for the paper's RMAT-27.
BASE_SCALE = 11

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_REPORTS: List[str] = []


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def report(name: str, lines) -> str:
    """Record a reproduction table: printed, kept for the terminal
    summary, and written under benchmarks/results/."""
    text = "\n".join([f"== {name} =="] + list(lines))
    _REPORTS.append(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)
    return text


def collected_reports() -> List[str]:
    return list(_REPORTS)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def directed_graph(scale: int, weighted: bool = False):
    return rmat_graph(scale, seed=100 + scale, weighted=weighted)


@functools.lru_cache(maxsize=None)
def undirected_graph(scale: int):
    return to_undirected(directed_graph(scale, weighted=True))


@functools.lru_cache(maxsize=None)
def web_graph(num_pages: int = 1 << 15):
    """Stand-in for the Data Commons hyperlink graph (Figure 9)."""
    return data_commons_like(num_pages, avg_degree=16.0, seed=7)


@functools.lru_cache(maxsize=None)
def traversal_root(scale: int) -> int:
    """Highest-degree vertex: guarantees a large traversal."""
    graph = undirected_graph(scale)
    return int(np.argmax(out_degrees(graph)))


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


#: Constant chunk size across every benchmark, like the paper's 4 MB:
#: the benchmark graphs are ~10^4x smaller, so 4 KB chunks keep the
#: chunks-per-machine-pass count in the paper's regime.
CHUNK_BYTES = 4 * 1024


def make_config(machines: int, scale: int, **overrides) -> ClusterConfig:
    defaults = dict(
        machines=machines,
        chunk_bytes=CHUNK_BYTES,
        partitions_per_machine=1,
        device=SSD_BENCH,
        network=GIGE_40_BENCH,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


# ---------------------------------------------------------------------------
# Algorithm dispatch
# ---------------------------------------------------------------------------


def _make_algorithm(name: str, scale: int):
    if name == "BFS":
        return BFS(root=traversal_root(scale))
    if name == "WCC":
        return WCC()
    if name == "MIS":
        return MIS()
    if name == "SSSP":
        return SSSP(root=traversal_root(scale))
    if name == "PR":
        return PageRank(iterations=5)
    if name == "Cond":
        return Conductance()
    if name == "SpMV":
        return SpMV()
    if name == "BP":
        return BeliefPropagation(iterations=5)
    raise ValueError(f"unknown algorithm {name!r}")


def graph_for(name: str, scale: int):
    if name in ("BFS", "WCC", "MCST", "MIS", "SSSP"):
        return undirected_graph(scale)
    if name in ("SpMV", "BP"):
        return directed_graph(scale, weighted=True)
    return directed_graph(scale, weighted=False)


def run_named(name: str, scale: int, config: ClusterConfig):
    """Run one of the ten Table 1 algorithms; returns a result object
    with .runtime / .storage_bytes / .breakdowns / ... fields."""
    graph = graph_for(name, scale)
    if name == "MCST":
        return run_mcst(graph, config)
    if name == "SCC":
        return run_scc(graph, config)
    return run_algorithm(_make_algorithm(name, scale), graph, config)


# ---------------------------------------------------------------------------
# Memoized sweeps shared between figures
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def weak_scaling_run(name: str, machines: int):
    """Weak scaling: RMAT-(BASE+log2 m) on m machines (Figure 7 setup,
    standing in for RMAT-27 -> RMAT-32)."""
    scale = BASE_SCALE + int(math.log2(machines))
    return run_named(name, scale, make_config(machines, scale))


@functools.lru_cache(maxsize=None)
def strong_scaling_run(name: str, machines: int):
    """Strong scaling: fixed RMAT-(BASE+3) on 1..32 machines (Figure 8)."""
    scale = BASE_SCALE + 3
    return run_named(name, scale, make_config(machines, scale))


def normalized(series: Dict[int, float]) -> Dict[int, float]:
    """Normalize a {machines: runtime} series to its 1-machine value."""
    base = series[min(series)]
    return {m: value / base for m, value in series.items()}


def fmt_row(label: str, values, width: int = 8) -> str:
    cells = "".join(
        f"{v:>{width}.3f}" if isinstance(v, float) else f"{v:>{width}}"
        for v in values
    )
    return f"{label:<8s}{cells}"
