"""The cluster runtime: build a simulated deployment and run a job.

:class:`ChaosCluster` wires together everything the paper describes
(Figure 6): one process per machine containing a computation engine and
a storage engine, connected by a full-bisection network.  ``run``
executes a GAS algorithm over a real edge list (functional mode);
``run_model`` executes a phantom workload described by a
:class:`GraphSpec` and an activity profile (capacity mode).

All reported runtimes are simulated wall-clock seconds from the start of
pre-processing to the final vertex state being durable, matching the
paper's measurement convention (Section 8).
"""

from __future__ import annotations

import functools
import math
import random
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.compute import ComputationEngine
from repro.core.config import ClusterConfig
from repro.core.gas import GasAlgorithm, GraphContext
from repro.core.job import JobCoordinator
from repro.core.metrics import LEDGER_CATEGORIES, Breakdown, JobResult
from repro.core.workload import DataWorkload, ModelWorkload, Workload
from repro.graph.edgelist import COMPACT_VERTEX_LIMIT, EdgeList, bytes_per_edge
from repro.graph.stats import out_degrees as compute_out_degrees
from repro.net.transport import Network
from repro.obs.counters import ResourceSampler
from repro.obs.log import NULL
from repro.obs.tracer import TID_JOB
from repro.partition.streaming import (
    PartitionLayout,
    choose_partition_count,
    partition_edges,
)
from repro.sim.engine import DeadlineExceeded, Simulator
from repro.sim.sync import Barrier
from repro.store.chunk import Chunk, ChunkKind
from repro.store.engine import StorageEngine
from repro.store.memstore import MemoryChunkStore
from repro.store.placement import CentralizedDirectory, VertexSets


def _integrity_counters(network, stores) -> Dict[str, int]:
    """Cluster-wide integrity/byzantine counters for the run summary.

    Network counters cover injected in-flight faults and their
    transport-level suppression; store counters cover the durability
    defenses (epoch fencing, torn-write repair, checksum re-reads).
    All are cumulative over the run, including re-executed epochs.
    """
    return {
        "messages_dropped": network.messages_dropped,
        "messages_corrupted": network.messages_corrupted,
        "messages_duplicated": network.messages_duplicated,
        "messages_reordered": network.messages_reordered,
        "duplicates_suppressed": network.duplicates_suppressed,
        "write_rejects": sum(s.write_rejects for s in stores),
        "torn_writes_repaired": sum(s.torn_writes_repaired for s in stores),
        "integrity_rereads": sum(s.integrity_rereads for s in stores),
        "stale_reads_served": sum(s.stale_reads_served for s in stores),
        "retransmits": sum(s.retransmits for s in stores),
    }


def _check_open_spans(tracer) -> None:
    """Warn if a run ends with spans still open (leaked begin()).

    A leaked span skews every downstream analysis (critpath sees an
    interval that never closes; durations go negative at export), so a
    finish with ``open_span_count() != 0`` is an instrumentation
    bug worth surfacing loudly — but not worth failing the job over.
    """
    if not tracer.enabled:
        return
    leaked = tracer.open_span_count()
    if leaked:
        warnings.warn(
            f"run finished with {leaked} trace span(s) still open; "
            f"the trace's durations are unreliable (leaked begin()?)",
            RuntimeWarning,
            stacklevel=3,
        )


def stored_id_dtype(num_vertices: int) -> np.dtype:
    """Type of the vertex-id columns of stored edge chunks: 4 bytes below
    2**32 vertices, as in the paper's compact format (Section 8), else
    int64.  Never uint64: ``uint64 - int64`` promotes to float64."""
    if num_vertices < COMPACT_VERTEX_LIMIT:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


@dataclass
class GraphSpec:
    """Description of a graph for model-mode (phantom) runs.

    Capacity experiments (RMAT-36, Section 9.3) cannot materialize the
    graph; the engine only needs volumes: vertex count, edge count, and
    how edges distribute over the streaming partitions.
    """

    num_vertices: int
    num_edges: int
    weighted: bool = False
    #: "rmat" reproduces the analytic RMAT partition skew; "uniform"
    #: spreads edges evenly.
    skew: str = "rmat"

    def input_bytes(self) -> int:
        return self.num_edges * bytes_per_edge(self.num_vertices, self.weighted)

    def edge_record_bytes(self) -> int:
        return bytes_per_edge(self.num_vertices, self.weighted)

    def partition_edges(self, num_partitions: int) -> List[int]:
        """Edges per streaming partition, summing to ``num_edges``: the
        fractions' cumulative shares, rounded to whole edges."""
        fractions = self.partition_fractions(num_partitions)
        cuts = np.rint(np.cumsum(fractions) / fractions.sum() * self.num_edges)
        cuts[-1] = self.num_edges
        return np.diff(cuts.astype(np.int64), prepend=0).tolist()

    def partition_fractions(self, num_partitions: int) -> np.ndarray:
        if self.skew == "uniform":
            return np.full(num_partitions, 1.0 / num_partitions)
        if self.skew == "rmat":
            return rmat_partition_fractions(num_partitions)
        raise ValueError(f"unknown skew model {self.skew!r}")

    @classmethod
    def rmat(cls, scale: int, weighted: bool = False) -> "GraphSpec":
        """The paper's scale-n graph: 2^n vertices, 2^(n+4) edges."""
        return cls(
            num_vertices=2**scale,
            num_edges=16 * 2**scale,
            weighted=weighted,
            skew="rmat",
        )


def rmat_partition_fractions(
    num_partitions: int, top_fraction: float = 0.76
) -> np.ndarray:
    """Exact per-partition edge fractions of an (unpermuted) RMAT graph.

    With vertex ranges over the raw RMAT id space, a partition's edge
    share is determined by the source-bit probabilities: each high-order
    id bit is 0 with probability a+b (= 0.76 for Graph500 parameters).
    For a power-of-two partition count the shares follow exactly; other
    counts are interpolated through a fine power-of-two grid.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    bits = max(1, math.ceil(math.log2(max(2, num_partitions))))
    grid = 2**bits
    shares = np.ones(grid)
    for bit in range(bits):
        factor = np.where(
            (np.arange(grid) >> (bits - 1 - bit)) & 1, 1 - top_fraction, top_fraction
        )
        shares *= factor
    # Aggregate the fine grid down to the requested partition count.
    boundaries = np.linspace(0, grid, num_partitions + 1)
    fractions = np.empty(num_partitions)
    cumulative = np.concatenate([[0.0], np.cumsum(shares)])
    for p in range(num_partitions):
        lo, hi = boundaries[p], boundaries[p + 1]
        lo_i, hi_i = int(lo), int(hi)
        value = cumulative[hi_i] - cumulative[lo_i]
        value += (lo_i - lo) * (shares[lo_i - 1] if lo_i > 0 and lo_i != lo else 0)
        if hi_i < grid and hi != hi_i:
            value += (hi - hi_i) * shares[hi_i]
        fractions[p] = value
    fractions = np.maximum(fractions, 0)
    return fractions / fractions.sum()


class ChaosCluster:
    """A simulated Chaos deployment, ready to run jobs."""

    def __init__(
        self,
        config: ClusterConfig,
        backend_factory: Optional[Callable[[int], object]] = None,
        tracer=None,
        host=None,
    ):
        self.config = config
        self.backend_factory = backend_factory or (lambda _m: MemoryChunkStore())
        #: Observability: a :class:`repro.obs.Tracer` records spans,
        #: instants and counter timelines of every run on this cluster;
        #: ``None`` (the default) costs nothing.
        self.tracer = tracer if tracer is not None else NULL
        #: Host profiler (:mod:`repro.obs.host`): real wall/CPU time per
        #: engine phase, recorded alongside the simulated spans.  It
        #: times each epoch's engines from outside
        #: (:meth:`~repro.obs.host.HostProfiler.instrument`); ``None``
        #: (the default) costs nothing.
        self.host = host
        #: Introspection handles from the most recent run (protocol
        #: audits and tests): the storage engines and the network.
        self.last_stores: Optional[List[StorageEngine]] = None
        self.last_network: Optional[Network] = None
        #: :class:`repro.faults.FaultTimeline` of the most recent
        #: fault-injected run (``None`` for fault-free runs).
        self.last_fault_timeline = None
        #: :class:`repro.faults.CheckpointRegistry` of the most recent
        #: fault-injected run (quarantine/repair counters; ``None`` for
        #: fault-free runs).
        self.last_registry = None

    # ------------------------------------------------------------------
    # Functional (data) mode
    # ------------------------------------------------------------------

    def run(
        self,
        algorithm: GasAlgorithm,
        edges: EdgeList,
        initial_values=None,
        start_iteration: int = 0,
        fault_plan=None,
        deadline_seconds: Optional[float] = None,
    ) -> JobResult:
        """Execute ``algorithm`` on ``edges`` and return the result.

        Validates the algorithm's input requirements, performs the
        streaming-partition pre-processing, pre-places chunks, and runs
        the full simulated cluster to completion.

        ``initial_values`` resumes the computation from previously saved
        vertex state (a checkpoint): the paper's recovery model, in
        which all computation state lives in the vertex values
        (Section 6.6).

        ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects
        machine faults into the run: crashes, partitions, and slow
        devices fire inside the simulation, the failure detector
        notices, and the cluster rolls back to the latest durable
        checkpoint and re-executes.  The final values are byte-identical
        to the fault-free run's for the same config and seed.

        ``deadline_seconds`` arms a simulated-time watchdog: if the run
        has not completed by that time, :class:`DeadlineExceeded` is
        raised instead of simulating a wedged cluster forever.  The
        chaos fuzzer uses this to turn hangs into reportable violations.
        """
        config = self.config
        if algorithm.needs_weights and not edges.weighted:
            raise ValueError(
                f"{algorithm.name} requires edge weights; the input has none"
            )

        layout = self._make_layout(edges.num_vertices, algorithm)
        parts = partition_edges(edges, layout)

        ctx = GraphContext(
            num_vertices=edges.num_vertices,
            num_edges=edges.num_edges,
            weighted=edges.weighted,
            out_degrees=(
                compute_out_degrees(edges) if algorithm.needs_out_degrees else None
            ),
        )
        workload = DataWorkload(algorithm, layout, ctx, initial_values=initial_values)
        edge_bytes = bytes_per_edge(edges.num_vertices, edges.weighted)
        return self._execute(
            workload,
            layout,
            input_bytes=edges.storage_bytes(),
            edge_chunk_loader=lambda placement_rng, stores: self._place_data_chunks(
                parts, layout, edge_bytes, placement_rng, stores
            ),
            start_iteration=start_iteration,
            fault_plan=fault_plan,
            deadline_seconds=deadline_seconds,
        )

    # ------------------------------------------------------------------
    # Capacity (model) mode
    # ------------------------------------------------------------------

    def run_model(self, algorithm: GasAlgorithm, spec: GraphSpec, profile) -> JobResult:
        """Execute a phantom workload described by ``spec`` + ``profile``.

        The edges are chunked as a data run chunks them
        (:meth:`_edge_chunk_ranges`), so every pass streams exactly
        ``spec.num_edges`` edges.
        """
        layout = self._make_layout(spec.num_vertices, algorithm)
        workload = ModelWorkload(algorithm, layout, profile, spec.num_edges)
        edge_bytes = spec.edge_record_bytes()
        ranges = self._edge_chunk_ranges(
            spec.partition_edges(layout.num_partitions), edge_bytes
        )

        def loader(placement_rng, stores):
            total_chunks = 0
            for p, part_ranges in enumerate(ranges):
                for start, stop in part_ranges:
                    records = stop - start
                    chunk = Chunk(
                        partition=p,
                        kind=ChunkKind.EDGES,
                        size=records * edge_bytes,
                        payload=None,
                        records=records,
                    )
                    stores[placement_rng.randrange(len(stores))].preload_chunk(chunk)
                    total_chunks += 1
            return total_chunks

        return self._execute(
            workload,
            layout,
            input_bytes=spec.input_bytes(),
            edge_chunk_loader=loader,
        )

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------

    def _make_layout(
        self, num_vertices: int, algorithm: GasAlgorithm
    ) -> PartitionLayout:
        config = self.config
        if config.partitions_per_machine is not None:
            count = config.machines * config.partitions_per_machine
        else:
            count = choose_partition_count(
                num_vertices,
                config.machines,
                algorithm.vertex_state_bytes(),
                config.memory_bytes,
            )
        return PartitionLayout.even(num_vertices, count)

    def _edge_chunk_ranges(
        self, counts: List[int], edge_bytes: int
    ) -> List[List[Tuple[int, int]]]:
        """Per partition, the ``(start, stop)`` record ranges of its
        ``counts[p]`` edges, cut into chunks of whole records
        (``chunk_bytes // edge_bytes`` each, the last one shorter)."""
        step = max(1, self.config.chunk_bytes // edge_bytes)
        return [
            [(start, min(start + step, count)) for start in range(0, count, step)]
            for count in counts
        ]

    def _place_data_chunks(
        self,
        parts: List[Optional[EdgeList]],
        layout: PartitionLayout,
        edge_bytes: int,
        placement_rng: random.Random,
        stores: List[StorageEngine],
    ) -> int:
        """Split per-partition edge lists into chunks at random engines.

        Vertex ids are stored at :func:`stored_id_dtype`'s width.  Each
        partition's int64 edge list is dropped from ``parts`` once it is
        chunked, so its id arrays are freed as soon as the compact
        copies exist.
        """
        id_dtype = stored_id_dtype(layout.num_vertices)
        total_chunks = 0
        ranges = self._edge_chunk_ranges(
            [part.num_edges for part in parts], edge_bytes
        )
        for p, part_ranges in enumerate(ranges):
            part, parts[p] = parts[p], None
            weight = part.weight
            src = part.src.astype(id_dtype, copy=False)
            dst = part.dst.astype(id_dtype, copy=False)
            del part
            for start, stop in part_ranges:
                payload = {"src": src[start:stop], "dst": dst[start:stop]}
                if weight is not None:
                    payload["weight"] = weight[start:stop]
                chunk = Chunk(
                    partition=p,
                    kind=ChunkKind.EDGES,
                    size=(stop - start) * edge_bytes,
                    payload=payload,
                    records=stop - start,
                )
                stores[placement_rng.randrange(len(stores))].preload_chunk(chunk)
                total_chunks += 1
        return total_chunks

    @staticmethod
    def _place_vertex_chunks(vertex_sets: VertexSets, stores) -> None:
        placement = vertex_sets.placement
        for p, sizes in enumerate(vertex_sets.chunk_sizes):
            for index, size in enumerate(sizes):
                chunk = Chunk(
                    partition=p,
                    kind=ChunkKind.VERTICES,
                    size=size,
                    payload=None,
                    index=index,
                )
                stores[placement.machine_for(p, index)].preload_chunk(chunk)

    def _make_sampler(
        self, sim, tracer, stores, network: Network, epoch_engines
    ) -> ResourceSampler:
        """Periodic per-device / per-NIC / per-core-bank telemetry probes.

        The sampled series reproduce Figure 5-style utilization
        timelines from a live run: device busy fraction and queue depth,
        NIC busy fraction, cumulative bytes, and busy cores.  Stores and
        NICs outlive a rollback; the core probes read the last entry of
        ``epoch_engines``, the epoch live when the sample is taken.
        """
        sampler = ResourceSampler(sim, tracer, tracer.sample_interval)
        for m, store in enumerate(stores):
            sampler.add_probe(
                f"m{m}.device.busy",
                m,
                store.device_busy_time,
                mode="busy_fraction",
            )
            sampler.add_probe(
                f"m{m}.device.queue_s", m, store.device_queue_delay, mode="value"
            )
            sampler.add_probe(
                f"m{m}.device.bytes",
                m,
                store.device_bytes_served,
                mode="value",
            )
        for m, nic in enumerate(network.nics):
            sampler.add_probe(
                f"m{m}.nic.tx.busy",
                m,
                lambda meter=nic.egress.meter: meter.busy_time,
                mode="busy_fraction",
            )
            sampler.add_probe(
                f"m{m}.nic.rx.busy",
                m,
                lambda meter=nic.ingress.meter: meter.busy_time,
                mode="busy_fraction",
            )
            sampler.add_probe(
                f"m{m}.nic.tx.bytes", m, nic.bytes_sent, mode="value"
            )
            sampler.add_probe(
                f"m{m}.nic.rx.bytes", m, nic.bytes_received, mode="value"
            )
        for m in range(len(stores)):
            sampler.add_probe(
                f"m{m}.cores.busy",
                m,
                lambda m=m: epoch_engines[-1][m].cores.busy_cores(),
                mode="value",
            )
        return sampler

    @staticmethod
    def _arm_deadline(sim: Simulator, deadline_seconds: Optional[float]) -> None:
        """Schedule the watchdog; a completed run never reaches it."""
        if deadline_seconds is None:
            return

        def expire() -> None:
            raise DeadlineExceeded(
                f"run exceeded simulated deadline of {deadline_seconds:g}s "
                f"(possible livelock or recovery loop)"
            )

        sim.schedule(deadline_seconds, expire)

    def _execute(
        self,
        workload: Workload,
        layout: PartitionLayout,
        input_bytes: int,
        edge_chunk_loader,
        start_iteration: int = 0,
        fault_plan=None,
        deadline_seconds: Optional[float] = None,
    ) -> JobResult:
        """Wire the cluster once and run the job over its recovery epochs.

        An epoch is one job coordinator, barrier and set of computation
        engines, made by ``build_epoch``.  A fault-free run is epoch 0
        alone, run directly.  With a ``fault_plan`` the same builder
        goes to the :class:`~repro.faults.supervisor.ClusterSupervisor`,
        which owns the loop (run → detect → fence → re-admit → resume,
        each engine of a resumed epoch running the supervisor's restore
        step first) and brings the fault-only parts: a monitor network
        endpoint for the failure detector, heartbeats and the checkpoint
        registry.
        """
        config = self.config
        faulted = bool(fault_plan)
        self.last_fault_timeline = None
        self.last_registry = None
        if faulted:
            # Imported lazily: repro.faults depends on repro.core.
            from repro.faults.detector import FailureDetector
            from repro.faults.registry import CheckpointRegistry
            from repro.faults.supervisor import ClusterSupervisor

            if config.placement == "centralized":
                raise ValueError(
                    "fault injection does not support the centralized placement "
                    "baseline (directory replies carry no recovery epoch)"
                )
            if not hasattr(workload, "snapshot_partition"):
                raise ValueError(
                    "fault injection requires a data-mode workload (model-mode "
                    "phantom runs have no vertex state to checkpoint)"
                )
            fault_plan.validate(config)

        sim = Simulator()
        tracer = self.tracer
        job_track = NULL
        if tracer.enabled:
            # A C-level reader of ``sim.now``: every begin/end/instant
            # and every causal edge asks the clock.
            tracer.bind_run(functools.partial(getattr, sim, "now"))
            for m in range(config.machines):
                tracer.set_process(m, f"machine{m}")
            tracer.set_process(config.machines, "cluster")
            job_track = tracer.thread(config.machines, TID_JOB, "job")
            sim.process_hook = lambda process, phase: job_track.instant(
                f"process.{phase}", args={"name": process.name}
            )
            # Self-describing trace: the attribution analyzer
            # (repro.obs.critpath) reads the cluster shape from this
            # marker so saved traces can be analyzed without the config.
            job_track.instant(
                "job.config",
                args={
                    "machines": config.machines,
                    "cores": config.cores,
                    "chunk_bytes": config.chunk_bytes,
                    "batch_factor": config.batch_factor,
                    "steal_alpha": config.steal_alpha,
                    "request_window": config.effective_request_window(),
                    "algorithm": workload.algorithm.name,
                },
            )
        network = Network(
            sim, config.machines, config.network, tracer=tracer,
            # The failure-detector monitor is one more endpoint.
            extra_endpoints=1 if faulted else 0,
            integrity=config.integrity_checks,
        )
        stores = [
            StorageEngine(
                sim,
                network,
                m,
                config.device,
                self.backend_factory(m),
                tracer=tracer,
                integrity=config.integrity_checks,
                job_track=job_track,
            )
            for m in range(config.machines)
        ]
        self._arm_deadline(sim, deadline_seconds)
        # Stable seed (string hash() is salted per process).
        placement_rng = random.Random(config.seed * 1_000_003 + 99991)
        edge_chunk_loader(placement_rng, stores)
        vertex_sets = VertexSets(
            [workload.vertex_set_bytes(p) for p in range(layout.num_partitions)],
            config.machines,
            config.chunk_bytes,
        )
        self._place_vertex_chunks(vertex_sets, stores)

        directory = None
        if config.placement == "centralized":
            directory = CentralizedDirectory(
                sim,
                network,
                home=0,
                lookups_per_second=config.directory_lookups_per_second,
                seed=config.seed,
            )
        registry = None
        detector = None
        if faulted:
            registry = CheckpointRegistry(
                layout.num_partitions, causal=tracer.causal
            )
            # Bound immediately (not just on success) so a diagnosed run's
            # quarantine counters stay inspectable after the exception.
            self.last_registry = registry
            detector = FailureDetector(
                sim,
                network,
                config.machines,
                monitor=config.machines,
                lease=config.effective_lease_timeout(),
            )
        per_machine_input = -(-input_bytes // config.machines)
        # Every epoch started, in order; the last entry is the live one.
        # Length 1 unless a fault forced a rollback.
        epoch_jobs: List[JobCoordinator] = []
        epoch_engines: List[List[ComputationEngine]] = []
        sampler = None
        if tracer.enabled and tracer.sample_interval is not None:
            sampler = self._make_sampler(
                sim, tracer, stores, network, epoch_engines
            )

        def build_epoch(epoch, resume_iteration, restore, since=0.0):
            suffix = f".e{epoch}" if epoch else ""
            job = JobCoordinator(
                workload, stores, start_iteration=resume_iteration
            )
            barrier = Barrier(
                sim, parties=config.machines, name=f"phase-barrier{suffix}"
            )
            engines = [
                ComputationEngine(
                    sim,
                    network,
                    m,
                    config,
                    workload,
                    job,
                    local_store=stores[m],
                    barrier=barrier,
                    vertex_sets=vertex_sets,
                    directory=directory,
                    input_bytes_share=per_machine_input,
                    tracer=tracer,
                    epoch=epoch,
                    restore=restore,
                    registry=registry,
                    since=since,
                )
                for m in range(config.machines)
            ]
            if self.host is not None:
                self.host.instrument(job, engines)
            epoch_jobs.append(job)
            epoch_engines.append(engines)
            if sampler is not None and epoch == 0:
                sampler.start()  # its core probes need an epoch to read
            processes = [
                sim.process(engine.main(), name=f"engine{m}{suffix}")
                for m, engine in enumerate(engines)
            ]
            return job, engines, processes

        if faulted:
            supervisor = ClusterSupervisor(
                sim,
                config,
                network,
                stores,
                workload,
                registry,
                detector,
                build_epoch,
                job_track=job_track,
            )
            supervisor.execute(fault_plan, start_iteration)
            self.last_fault_timeline = supervisor.timeline
        else:
            _, _, processes = build_epoch(0, start_iteration, None)
            sim.run_until(sim.all_of([p.finished for p in processes]))
        if sampler is not None:
            sampler.sample()  # close the timelines at the finish line
        integrity = _integrity_counters(network, stores)
        breakdowns = [
            functools.reduce(
                Breakdown.merged_with,
                (engines[m].metrics for engines in epoch_engines),
            )
            for m in range(config.machines)
        ]
        if tracer.enabled:
            job_track.instant("job.integrity", args=integrity)
            # total_breakdown(), summed in its order: the report prints it.
            ledger = dict.fromkeys(LEDGER_CATEGORIES, 0.0)
            for breakdown in breakdowns:
                for category in LEDGER_CATEGORIES:
                    ledger[category] += getattr(breakdown, category)
            job_track.instant("job.ledger", args=ledger)
            job_track.instant(
                "job.done", args={"algorithm": workload.algorithm.name}
            )
        # A fence closes the spans of the processes it kills, so every
        # run, faulted or not, is held to the no-leak invariant.
        _check_open_spans(tracer)
        self.last_stores = stores
        self.last_network = network

        # One result over every epoch.  Wall-time categories and I/O
        # counters sum over each epoch's engines (re-executed work really
        # happened).  ``iteration_stats`` keeps every epoch's rows, a
        # killed epoch's partial ones included, so a re-executed
        # iteration appears once per attempt; ``iterations`` is how far
        # this run advanced the job from ``start_iteration``.
        all_engines = [e for engines in epoch_engines for e in engines]
        return JobResult(
            algorithm=workload.algorithm.name,
            machines=config.machines,
            runtime=sim.now,
            preprocessing_seconds=epoch_jobs[0].started_at,
            iterations=epoch_jobs[-1].iteration + 1 - start_iteration,
            iteration_stats=[
                stats for job in epoch_jobs for stats in job.iteration_stats
            ],
            breakdowns=breakdowns,
            storage_bytes=sum(s.bytes_served() for s in stores),
            network_bytes=network.total_bytes(),
            steals_accepted=sum(j.steals_accepted for j in epoch_jobs),
            steals_rejected=sum(j.steals_rejected for j in epoch_jobs),
            values=workload.final_values(),
            checkpoints=sum(e.checkpoints_written for e in all_engines),
            updates_written_records=sum(
                e.updates_written_records for e in all_engines
            ),
            updates_written_bytes=sum(
                e.updates_written_bytes for e in all_engines
            ),
            integrity=integrity,
        )


def run_algorithm(
    algorithm: GasAlgorithm,
    edges: EdgeList,
    config: Optional[ClusterConfig] = None,
    tracer=None,
    host=None,
    fault_plan=None,
    deadline_seconds=None,
    **config_overrides,
) -> JobResult:
    """Convenience one-shot entry point.

    >>> result = run_algorithm(PageRank(iterations=5), graph, machines=4)

    Pass ``tracer=repro.obs.Tracer()`` to record spans and utilization
    timelines of the run (see :mod:`repro.obs`), and
    ``fault_plan=repro.faults.FaultPlan.parse([...])`` to inject machine
    faults and exercise live recovery.  Pass
    ``host=repro.obs.HostProfiler()`` to measure the real (host) wall
    and CPU time of each engine phase alongside the simulated spans.
    """
    if config is None:
        config = ClusterConfig(**config_overrides)
    elif config_overrides:
        config = config.with_(**config_overrides)
    cluster = ChaosCluster(config, tracer=tracer, host=host)
    return cluster.run(
        algorithm, edges, fault_plan=fault_plan,
        deadline_seconds=deadline_seconds,
    )
