"""The six benchmark workloads and the one job call that is timed.

Each workload is one (algorithm, input graph, cluster config) triple
chosen because a *different* layer of ``src/repro`` dominates its host
time — see ``README.md`` for the measured shares.  The job is a closed
loop with one job in flight: ``run_job`` is called, returns, and only
then is the next one issued.

Inputs derive from the benchmark seed ``S``: directed graphs are
``rmat_graph(scale, seed=S)``, undirected ones symmetrise
``rmat_graph(scale, seed=S + 4)`` (the offset ``repro bench`` uses), and
``ClusterConfig.seed = S`` fixes chunk placement and stealing.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.algorithms import SSSP, WCC, PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected
from repro.net.topology import GIGE_40_BENCH
from repro.obs import critpath, export
from repro.obs.host import HostProfiler
from repro.obs.tracer import Tracer
from repro.store.device import SSD_BENCH
from repro.store.filestore import FileChunkStore

KB = 1024
#: Input scale of every workload under ``--smoke`` (self-test only).
SMOKE_SCALE = 10
#: SSSP runs exactly this many relaxation rounds: every round streams
#: the whole edge set, and to quiescence the round count varies with the
#: graph seed (13..17 over seeds 1..20 with the generator's own weights).
SSSP_ROUNDS = 12
#: Edge weights are rescaled from (0, 1] to (WEIGHT_FLOOR, 1].  With
#: weights down to 0 a vertex is re-relaxed many times and the number of
#: updates a job produces swings 6.5 % (quartile spread over seeds 1..10)
#: with the seed alone — two thirds of the regression bound spent before
#: any timing noise.  At a floor of 0.05 the swing is 1.5 % and a job
#: still produces 1.5 updates per edge (3.4 without the floor).
WEIGHT_FLOOR = 0.05


def _sssp() -> SSSP:
    algorithm = SSSP(root=0)
    algorithm.max_iterations = SSSP_ROUNDS
    return algorithm


@dataclass(frozen=True)
class Workload:
    """One benchmark input: what runs, on what graph, on what cluster."""

    name: str
    #: One line for ``BENCHMARK.json``: the regime this workload holds.
    why: str
    algorithm: Callable[[], object]
    scale: int
    #: ``ClusterConfig`` fields (the seed is added per run).
    config: Dict[str, object]
    undirected: bool = False
    weighted: bool = False
    #: Chunks live in real files under the job's work directory.
    file_backend: bool = False
    #: Tracer + host profiler on, then attribution and trace export.
    observers: bool = False
    faults: Tuple[str, ...] = ()

    def build_graph(self, seed: int, smoke: bool = False):
        scale = SMOKE_SCALE if smoke else self.scale
        if not self.undirected:
            return rmat_graph(scale, seed=seed)
        graph = to_undirected(
            rmat_graph(scale, seed=seed + 4, weighted=self.weighted)
        )
        if self.weighted:
            graph.weight = WEIGHT_FLOOR + (1.0 - WEIGHT_FLOOR) * graph.weight
        return graph

    def config_hash(self, seed: int, smoke: bool = False) -> str:
        """Short digest of everything that defines this workload's input."""
        algorithm = self.algorithm()
        described = {
            "name": self.name,
            "algorithm": type(algorithm).__name__,
            "max_iterations": algorithm.max_iterations,
            "scale": SMOKE_SCALE if smoke else self.scale,
            "undirected": self.undirected,
            "weight_floor": WEIGHT_FLOOR if self.weighted else None,
            "config": {k: repr(v) for k, v in sorted(self.config.items())},
            "file_backend": self.file_backend,
            "observers": self.observers,
            "faults": list(self.faults),
            "seed": seed,
        }
        text = json.dumps(described, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


_BENCH_HARDWARE = {"network": GIGE_40_BENCH, "device": SSD_BENCH}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="pr_kernel",
        why="PageRank x3, RMAT-16, m=4, 64 KB chunks: kernel-bound, "
        "canonical_update_order + np.add.at dominate; ROADMAP 1(a) lands here",
        algorithm=lambda: PageRank(iterations=3),
        scale=16,
        config={"machines": 4, "chunk_bytes": 64 * KB},
    ),
    Workload(
        name="pr_overhead",
        why="PageRank x3, RMAT-14, m=8, 4 KB chunks: per-message Python "
        "(event loop, transport, CRC walk) dominates; 1(a) should not move it",
        algorithm=lambda: PageRank(iterations=3),
        scale=14,
        config={
            "machines": 8,
            "chunk_bytes": 4 * KB,
            "batch_factor": 8,
            "partitions_per_machine": 1,
            **_BENCH_HARDWARE,
        },
    ),
    Workload(
        name="wcc_minfold",
        why="WCC to quiescence, undirected RMAT-16, m=4, 64 KB: a min fold "
        "with shrinking activity, where update ordering is paid but unneeded",
        algorithm=WCC,
        scale=16,
        undirected=True,
        config={"machines": 4, "chunk_bytes": 64 * KB},
    ),
    Workload(
        name="sssp_file_ckpt",
        why="SSSP x12 rounds, weighted undirected RMAT-15, m=4, file-backed "
        "chunks + checkpoints: writes beside reads through real files",
        algorithm=_sssp,
        scale=15,
        undirected=True,
        weighted=True,
        file_backend=True,
        config={"machines": 4, "chunk_bytes": 64 * KB, "checkpointing": True},
    ),
    Workload(
        name="pr_traced",
        why="PageRank x3, RMAT-15, m=4, 16 KB, tracer + host profiler + "
        "attribution + trace export: the only workload with observers on",
        algorithm=lambda: PageRank(iterations=3),
        scale=15,
        observers=True,
        config={"machines": 4, "chunk_bytes": 16 * KB},
    ),
    Workload(
        name="pr_crash_recover",
        why="PageRank x5, RMAT-14, m=3, 4 KB, checkpoints, machine 1 crashes "
        "in iteration 2: detector, supervisor, restore and re-execution",
        algorithm=lambda: PageRank(iterations=5),
        scale=14,
        faults=("crash:1@iter=2",),
        config={
            "machines": 3,
            "chunk_bytes": 4 * KB,
            "batch_factor": 8,
            "checkpointing": True,
            **_BENCH_HARDWARE,
        },
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass
class Job:
    """What one job call leaves behind for the checks and the ledger."""

    result: object
    cluster: ChaosCluster
    backends: List[object] = field(default_factory=list)
    tracer: Optional[Tracer] = None
    export_bytes: int = 0

    @property
    def edges_streamed(self) -> int:
        return sum(s.edges_streamed for s in self.result.iteration_stats)

    @property
    def sim_bytes_moved(self) -> int:
        return self.result.storage_bytes + self.result.network_bytes

    def values_digest(self) -> str:
        """SHA-256 over every final vertex array (name, dtype, bytes)."""
        digest = hashlib.sha256()
        for name in sorted(self.result.values):
            array = self.result.values[name]
            digest.update(f"{name}|{array.dtype}|{array.shape}|".encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    def sim_fingerprint(self) -> Tuple[float, int, int]:
        """The simulated statistics a host-speed change must not move."""
        return (
            self.result.runtime,
            self.sim_bytes_moved,
            self.edges_streamed,
        )


def run_job(
    workload: Workload,
    graph,
    seed: int,
    workdir: str,
    observers: Optional[bool] = None,
    faults: Optional[Tuple[str, ...]] = None,
) -> Job:
    """The timed region: one whole job, as a user of the library runs it.

    ``workdir`` exists and is empty (its creation and removal are the
    caller's, outside the timing).  ``observers`` / ``faults`` override
    the workload's own setting — the pair measurements run the same
    config with observers off, or without the fault.
    """
    observers = workload.observers if observers is None else observers
    faults = workload.faults if faults is None else faults
    config = ClusterConfig(seed=seed, **workload.config)
    tracer = Tracer() if observers else None
    host = HostProfiler() if observers else None
    backends: List[object] = []
    backend_factory = None
    if workload.file_backend:

        def backend_factory(machine: int) -> FileChunkStore:
            store = FileChunkStore(os.path.join(workdir, f"m{machine}"))
            backends.append(store)
            return store

    cluster = ChaosCluster(
        config, backend_factory=backend_factory, tracer=tracer, host=host
    )
    result = cluster.run(
        workload.algorithm(),
        graph,
        fault_plan=FaultPlan.parse(list(faults)) if faults else None,
    )
    job = Job(result=result, cluster=cluster, backends=backends, tracer=tracer)
    if observers:
        critpath.analyze_tracer(tracer)
        job.export_bytes = export.write_chrome_trace(
            tracer,
            os.path.join(workdir, "trace.json"),
            host_metrics=host.finalize().to_dict(),
        )
    return job
