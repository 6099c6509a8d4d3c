"""The tracked scenarios: seven deterministic runs pinned exactly.

Each scenario fixes a graph seed and a cluster config, so its record —
simulated runtime, the bottleneck-attribution vector
(:mod:`repro.obs.critpath`), resource utilization, bytes moved,
checkpoint overhead — is identical on every run.  :func:`record_lines`
renders the seven records as one text line per leaf value; the
committed ``benchmarks/results/tracked_scenarios.txt`` holds those
lines, and a tier-1 test recomputes them and compares byte for byte.
``pytest benchmarks/test_tracked_scenarios.py --benchmark-only``
rewrites the table after an intentional change.

This module deliberately is **not** imported from ``repro.obs``'s
package namespace: it pulls in the full runtime (``repro.core``), which
itself imports ``repro.obs.tracer`` — importing it at package-init time
would create a cycle.  Import it as ``repro.obs.bench``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.core.runtime import run_algorithm
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected
from repro.net.topology import GIGE_1_BENCH, GIGE_40_BENCH
from repro.obs.critpath import analyze_tracer
from repro.obs.report import _closed_spans
from repro.obs.tracer import Tracer
from repro.store.device import SSD_BENCH

#: Absolute ceiling for the attribution-closure invariant.
CLOSURE_LIMIT = 1e-6


@dataclass(frozen=True)
class BenchScenario:
    """One deterministic benchmark run tracked by the perf trajectory."""

    name: str
    description: str
    #: Builds the (algorithm, graph) pair; a callable so scenario
    #: definitions stay cheap until actually run.
    workload: Callable[[], Tuple[object, object]]
    machines: int
    chunk_bytes: int = 4096
    batch_factor: int = 8
    partitions_per_machine: int = 1
    network: object = GIGE_40_BENCH
    device: object = SSD_BENCH
    checkpointing: bool = False
    fault_specs: Tuple[str, ...] = ()


def _pr(scale: int, iterations: int = 3):
    def build():
        from repro.algorithms import PageRank

        return PageRank(iterations=iterations), rmat_graph(scale, seed=1)

    return build


def _wcc(scale: int):
    def build():
        from repro.algorithms import WCC

        return WCC(), to_undirected(rmat_graph(scale, seed=5))

    return build


def _sssp(scale: int):
    def build():
        from repro.algorithms import SSSP

        return SSSP(root=0), to_undirected(
            rmat_graph(scale, seed=5, weighted=True)
        )

    return build


DEFAULT_SCENARIOS: Tuple[BenchScenario, ...] = (
    BenchScenario(
        name="pr_m2",
        description="PageRank x3, RMAT-12, 2 machines, SSD/40GigE",
        workload=_pr(12),
        machines=2,
    ),
    BenchScenario(
        name="pr_m4",
        description="PageRank x3, RMAT-12, 4 machines, SSD/40GigE",
        workload=_pr(12),
        machines=4,
    ),
    BenchScenario(
        name="pr_m8",
        description="PageRank x3, RMAT-12, 8 machines, SSD/40GigE",
        workload=_pr(12),
        machines=8,
    ),
    BenchScenario(
        name="wcc_m2",
        description="WCC to quiescence, undirected RMAT-11, 2 machines",
        workload=_wcc(11),
        machines=2,
    ),
    BenchScenario(
        name="sssp_m2",
        description="SSSP from vertex 0, weighted RMAT-11, 2 machines",
        workload=_sssp(11),
        machines=2,
    ),
    BenchScenario(
        name="pr_1gige_m2",
        description="PageRank x3, RMAT-11, 2 machines, network-bound 1GigE",
        workload=_pr(11),
        machines=2,
        network=GIGE_1_BENCH,
    ),
    BenchScenario(
        name="pr_ckpt_fault",
        description="PageRank x5, RMAT-10, 3 machines, checkpoints + crash",
        workload=_pr(10, iterations=5),
        machines=3,
        checkpointing=True,
        fault_specs=("crash:1@iter=2",),
    ),
)


def _checkpoint_seconds(tracer: Tracer) -> float:
    """Total engine time inside ``checkpoint`` spans, fenced ones too."""
    closed, _unbalanced = _closed_spans(tracer.log.columns().trace, {})
    total = 0.0
    for _track, name, _cat, seconds in closed:
        if name == "checkpoint":
            total += seconds
    return total


def run_scenario(scenario: BenchScenario) -> Dict[str, object]:
    """Run one scenario and distill its tracked metrics."""
    algorithm, graph = scenario.workload()
    tracer = Tracer(sample_interval=None)
    fault_plan = (
        FaultPlan.parse(list(scenario.fault_specs))
        if scenario.fault_specs
        else None
    )
    result = run_algorithm(
        algorithm,
        graph,
        tracer=tracer,
        fault_plan=fault_plan,
        machines=scenario.machines,
        chunk_bytes=scenario.chunk_bytes,
        batch_factor=scenario.batch_factor,
        partitions_per_machine=scenario.partitions_per_machine,
        network=scenario.network,
        device=scenario.device,
        checkpointing=scenario.checkpointing,
    )
    report = analyze_tracer(tracer)
    cluster_util = {
        u.resource: u.utilization
        for u in report.utilization
        if u.machine is None
    }
    return {
        "description": scenario.description,
        "machines": scenario.machines,
        "runtime": result.runtime,
        "preprocessing_seconds": result.preprocessing_seconds,
        "iterations": result.iterations,
        "storage_bytes": result.storage_bytes,
        "network_bytes": result.network_bytes,
        "bytes_moved": result.storage_bytes + result.network_bytes,
        "aggregate_bandwidth": result.aggregate_bandwidth,
        "checkpoints": result.checkpoints,
        "checkpoint_seconds": _checkpoint_seconds(tracer),
        "attribution": {
            category: seconds
            for category, seconds in sorted(report.cluster_seconds.items())
        },
        "bottleneck": report.bottleneck,
        "dominant_category": report.dominant_category,
        "utilization": cluster_util,
        "measured_rho": report.measured_rho,
        "analytic_rho": report.analytic_rho,
        "closure_error": report.closure_error(),
        "stragglers": len(report.stragglers),
    }


def record_lines(records: Mapping[str, object], prefix: str = "") -> List[str]:
    """One ``key = repr(value)`` line per leaf of ``records``.

    Keys are sorted at every level and nested keys are dotted
    (``pr_m2.attribution.cpu``); ``repr`` round-trips every float
    exactly, so equal lines mean equal numbers.
    """
    lines: List[str] = []
    for key in sorted(records):
        value = records[key]
        if isinstance(value, Mapping):
            lines.extend(record_lines(value, f"{prefix}{key}."))
        else:
            lines.append(f"{prefix}{key} = {value!r}")
    return lines
