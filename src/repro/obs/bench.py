"""Benchmark snapshots: a machine-readable performance trajectory.

``repro bench`` runs a configurable subset of the benchmark scenarios
below and writes a schema-versioned ``BENCH_<label>.json`` snapshot:
per-scenario simulated runtime, the bottleneck-attribution vector
(:mod:`repro.obs.critpath`), resource utilization, bytes moved and
checkpoint overhead.  ``repro bench --compare A B`` diffs two snapshots
with per-metric tolerances and reports regressions — the CI gate runs
it against the committed ``benchmarks/results/baseline.json``.

Everything here is deterministic: the scenarios fix graph seeds and
cluster configs, the simulation is deterministic by construction, and
snapshots serialize with sorted keys — so a regression in the diff is a
real behavioural change, never noise.

This module deliberately is **not** imported from ``repro.obs``'s
package namespace: it pulls in the full runtime (``repro.core``), which
itself imports ``repro.obs.tracer`` — importing it at package-init time
would create a cycle.  Import it as ``repro.obs.bench``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.runtime import run_algorithm
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected
from repro.net.topology import GIGE_1_BENCH, GIGE_40_BENCH
from repro.obs.critpath import analyze_tracer
from repro.obs.tracer import Tracer
from repro.store.device import SSD_BENCH

#: A snapshot holds simulated metrics only.  Older v2 snapshots may
#: also carry host readings (``host_wall_seconds``,
#: ``host_cpu_seconds``, ``edges_per_sec``); they load, and
#: :func:`compare_snapshots` ignores those keys.  Host cost is measured
#: by ``benchmarks/perf`` and ``tests/test_host_budget.py``.
BENCH_SCHEMA_VERSION = 2

#: (base, new) schema-version pairs :func:`compare_snapshots` accepts
#: besides exact equality: the tracked simulated metrics are the same
#: in v1 and v2.
COMPATIBLE_SCHEMA_PAIRS = {(1, 2)}


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

_SCENARIOS_BY_NAME = {s.name: s for s in DEFAULT_SCENARIOS}


def scenario_names() -> List[str]:
    return [s.name for s in DEFAULT_SCENARIOS]


def _checkpoint_seconds(tracer: Tracer) -> float:
    """Total engine time inside ``checkpoint`` spans (B/E pairs)."""
    open_ts: Dict[Tuple[int, int], List[float]] = {}
    total = 0.0
    for event in tracer.events:
        if event.get("name") != "checkpoint":
            continue
        key = (event["pid"], event["tid"])
        if event["ph"] == "B":
            open_ts.setdefault(key, []).append(event["ts"])
        elif event["ph"] == "E":
            stack = open_ts.get(key)
            if stack:
                total += event["ts"] - stack.pop()
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


def run_scenarios(
    names: Optional[List[str]] = None,
    label: str = "local",
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the selected scenarios into a snapshot document."""
    if names:
        unknown = [n for n in names if n not in _SCENARIOS_BY_NAME]
        if unknown:
            raise ValueError(
                f"unknown scenario(s): {', '.join(unknown)}; "
                f"known: {', '.join(scenario_names())}"
            )
        selected = [_SCENARIOS_BY_NAME[n] for n in names]
    else:
        selected = list(DEFAULT_SCENARIOS)
    scenarios: Dict[str, object] = {}
    for scenario in selected:
        if progress is not None:
            progress(f"running {scenario.name}: {scenario.description}")
        scenarios[scenario.name] = run_scenario(scenario)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "scenarios": scenarios,
    }


def snapshot_path(label: str, root: Optional[str] = None) -> str:
    """``BENCH_<label>.json`` at the repo root (default: cwd)."""
    return os.path.join(root or os.getcwd(), f"BENCH_{label}.json")


def write_snapshot(snapshot: Dict[str, object], path: str) -> int:
    """Serialize deterministically; returns bytes written."""
    text = json.dumps(snapshot, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return len(text)


def load_snapshot(path: str) -> Dict[str, object]:
    with open(path) as handle:
        snapshot = json.load(handle)
    if "schema_version" not in snapshot or "scenarios" not in snapshot:
        raise ValueError(f"{path}: not a bench snapshot")
    return snapshot


# ---------------------------------------------------------------------------
# Snapshot comparison (the regression gate)
# ---------------------------------------------------------------------------

#: metric -> (direction, relative tolerance).  ``higher_is_worse``
#: metrics regress when new > base * (1 + tol); ``lower_is_worse``
#: metrics regress when new < base * (1 - tol).
METRIC_POLICIES: Dict[str, Tuple[str, float]] = {
    "runtime": ("higher_is_worse", 0.05),
    "storage_bytes": ("higher_is_worse", 0.05),
    "network_bytes": ("higher_is_worse", 0.05),
    "bytes_moved": ("higher_is_worse", 0.05),
    "checkpoint_seconds": ("higher_is_worse", 0.10),
    "aggregate_bandwidth": ("lower_is_worse", 0.05),
}

#: Absolute ceiling for the attribution-closure invariant.
CLOSURE_LIMIT = 1e-6


@dataclass
class Comparison:
    """Outcome of diffing two snapshots."""

    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def lines(self) -> List[str]:
        out = []
        for text in self.regressions:
            out.append(f"REGRESSION  {text}")
        for text in self.improvements:
            out.append(f"improved    {text}")
        for text in self.notes:
            out.append(f"note        {text}")
        if not out:
            out.append("no tracked metric changed beyond tolerance")
        return out


def compare_snapshots(
    base: Dict[str, object],
    new: Dict[str, object],
    tolerances: Optional[Dict[str, float]] = None,
) -> Comparison:
    """Diff ``new`` against ``base`` under the per-metric policies.

    ``tolerances`` overrides the default relative tolerance per metric
    name.  A scenario present in ``base`` but missing from ``new`` is a
    regression (lost coverage); new scenarios are noted.  Keys outside
    :data:`METRIC_POLICIES` are not compared.
    """
    comparison = Comparison()
    base_version = base.get("schema_version")
    new_version = new.get("schema_version")
    if base_version != new_version:
        if (base_version, new_version) in COMPATIBLE_SCHEMA_PAIRS:
            comparison.notes.append(
                f"schema upgrade: base v{base_version} compared against "
                f"new v{new_version} (metrics absent from base are skipped)"
            )
        else:
            raise ValueError(
                f"schema mismatch: base v{base_version} vs "
                f"new v{new_version}"
            )
    overrides = tolerances or {}
    base_scenarios = base.get("scenarios", {})
    new_scenarios = new.get("scenarios", {})
    for name in sorted(base_scenarios):
        if name not in new_scenarios:
            comparison.regressions.append(
                f"{name}: scenario missing from new snapshot"
            )
            continue
        old = base_scenarios[name]
        cur = new_scenarios[name]
        for metric in sorted(METRIC_POLICIES):
            direction, tolerance = METRIC_POLICIES[metric]
            tolerance = overrides.get(metric, tolerance)
            if metric not in old or metric not in cur:
                continue
            base_value = float(old[metric])
            new_value = float(cur[metric])
            if base_value == new_value:
                continue
            if base_value == 0:
                delta = float("inf") if new_value > 0 else 0.0
            else:
                delta = (new_value - base_value) / abs(base_value)
            text = (
                f"{name}.{metric}: {base_value:.6g} -> {new_value:.6g} "
                f"({delta:+.2%}, tolerance {tolerance:.0%})"
            )
            if direction == "higher_is_worse":
                worse = delta > tolerance
                better = delta < -tolerance
            else:
                worse = delta < -tolerance
                better = delta > tolerance
            if worse:
                comparison.regressions.append(text)
            elif better:
                comparison.improvements.append(text)
        closure = float(cur.get("closure_error", 0.0))
        if closure > CLOSURE_LIMIT:
            comparison.regressions.append(
                f"{name}.closure_error: {closure:.3e} exceeds "
                f"{CLOSURE_LIMIT:.0e} (attribution no longer closes)"
            )
        if old.get("bottleneck") != cur.get("bottleneck"):
            comparison.notes.append(
                f"{name}.bottleneck: {old.get('bottleneck')} -> "
                f"{cur.get('bottleneck')}"
            )
    for name in sorted(new_scenarios):
        if name not in base_scenarios:
            comparison.notes.append(f"{name}: new scenario (not in base)")
    return comparison
