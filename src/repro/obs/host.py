"""Host-side profiling: real wall/CPU time per engine phase.

Everything else in ``repro.obs`` measures *simulated* time.  This
module measures what the interpreter actually spends executing the
engine's synchronous kernels — the scatter/gather/apply user functions
and chunk serialize/deserialize — so simulated spans and host cost line
up span-for-span.  Phases whose host share exceeds their sim share are
exactly the vectorization targets of ROADMAP item 1.

Design constraints:

* Host clocks are only read through :mod:`repro.obs.hostclock` (the
  single CHX001 exemption in the package).
* Measured from outside the engines, which do not know the profiler
  exists: once per epoch the runtime calls :meth:`HostProfiler.
  instrument`, which replaces the callables in :data:`TIMED` with timed
  wrappers.  Each is a synchronous leaf: it never yields (the simulator
  interleaves all machines on one thread, so timing across a yield
  would charge other machines' host time to this one) and never calls
  another timed callable, so the per-phase wall times sum to the
  profiled region total by construction.
* Profiling must not perturb the simulation: the wrappers only read
  clocks and append to the profiler's own event log, so final vertex
  values are byte-identical with and without ``--host-profile``
  (tested).

The metrics document is keyed ``(machine, phase, iteration)``.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import hostclock
from repro.obs.log import EventLog

#: Version of the host metrics JSON document.
HOST_SCHEMA_VERSION = 1

#: The GAS kernel phases (mirrors ``repro.core.gas.GAS_PHASES``; kept
#: literal here so ``obs`` does not import ``core`` at module load).
GAS_HOST_PHASES = ("scatter", "gather", "apply")

#: Every phase the profiler times.
ENGINE_PHASES = GAS_HOST_PHASES + ("serialize", "deserialize")

#: The callables timed for each compute engine's machine: ``(owner,
#: attribute, phase, records of a call, read off its arguments)``.  The
#: owners are the engine's view of the shared workload (a master's
#: merges and its apply share one phase), the engine itself (its
#: update-chunk serializer, whose fourth argument is the update count)
#: and its storage backend, timed once per run because it outlives the
#: epochs (the loads before the first epoch are not timed).
TIMED = (
    ("workload", "scatter_chunk", "scatter", lambda args: args[1].records),
    ("workload", "gather_chunk", "gather", lambda args: args[2].records),
    ("workload", "merge_accumulators", "apply", None),
    ("workload", "apply_partition", "apply", None),
    ("engine", "_update_chunk", "serialize", lambda args: args[3]),
    ("backend", "fetch_any", "deserialize", None),
    ("backend", "get_vertex_chunk", "deserialize", None),
    ("backend", "append_chunk", "serialize", lambda args: args[0].records),
    ("backend", "put_vertex_chunk", "serialize", lambda args: args[0].records),
)

#: Sim-time span name that corresponds to each host phase (for the
#: sim-to-host skew table).  Phases without an entry have no single
#: sim-span counterpart (their sim cost lives on device/NIC tracks).
SIM_SPAN_FOR_PHASE = {
    "scatter": "scatter",
    "gather": "gather",
    "apply": "merge_apply",
}


class _MachineWorkload:
    """One engine's view of the shared workload, to time its kernels on."""

    def __init__(self, workload):
        self._workload = workload

    def __getattr__(self, name):
        return getattr(self._workload, name)


class HostProfiler:
    """Measures real wall/CPU time of engine phases during a run.

    One profiler serves the whole cluster (the simulator runs every
    machine on one thread).  Each call of a callable :meth:`instrument`
    wrapped appends one ``h`` row to :attr:`log`, for the engine's
    machine and the live epoch's iteration; :meth:`to_dict` reads those
    rows into the metrics document keyed by (machine, phase, iteration).
    """

    def __init__(self, trace_allocations: bool = False):
        self.trace_allocations = trace_allocations
        self.log = EventLog()
        #: The run that produced these metrics (``{"algorithm": …,
        #: "cli_name": …, "machines": …, "seed": …}``), written into the
        #: document so a reader never has to guess which run a metrics
        #: file belongs to.
        self.job: Optional[dict] = None
        #: Wall nanoseconds of the whole profiler session (run setup,
        #: sim bookkeeping, and the measured region together); set by
        #: :meth:`finalize`.
        self.session_wall_ns = 0
        #: The live epoch's job coordinator, whose iteration rows carry.
        self._epoch_job = None
        if trace_allocations:
            hostclock.start_allocation_tracing()
        self._session_start = hostclock.wall_ns()

    def instrument(self, job, engines) -> None:
        """Time one epoch's compute engines (see :data:`TIMED`)."""
        self._epoch_job = job
        for engine in engines:
            engine.workload = _MachineWorkload(engine.workload)
            owners = {"workload": engine.workload, "engine": engine}
            backend = engine.local_store.backend
            if "fetch_any" not in vars(backend):  # not timed yet
                owners["backend"] = backend
            timed = functools.partial(self._timed, engine.machine)
            for owner, attribute, phase, records in TIMED:
                if owner in owners:
                    target = owners[owner]
                    setattr(target, attribute,
                            timed(getattr(target, attribute), phase, records))

    def _timed(self, machine: int, fn: Callable, phase: str,
               records: Optional[Callable]) -> Callable:
        """``fn``, logging one ``h`` row per call."""
        rows = self.log.rows
        wall_ns, cpu_ns = hostclock.wall_ns, hostclock.cpu_ns
        allocated = hostclock.allocated_bytes if self.trace_allocations else None

        def timed(*args):
            alloc = allocated() if allocated is not None else 0
            cpu, wall = cpu_ns(), wall_ns()
            result = fn(*args)
            wall = wall_ns() - wall
            cpu = cpu_ns() - cpu
            if allocated is not None:
                alloc = allocated() - alloc
            rows.append(
                ("h", machine, phase, self._epoch_job.iteration,
                 0 if records is None else records(args), wall, cpu, alloc)
            )
            return result

        return timed

    def finalize(self) -> "HostProfiler":
        """Close the session window; returns the profiler."""
        self.session_wall_ns = hostclock.wall_ns() - self._session_start
        if self.trace_allocations:
            hostclock.stop_allocation_tracing()
        return self

    def to_dict(self) -> dict:
        """The canonical JSON document (exporters all read this form)."""
        # Cells: [wall_ns, cpu_ns, calls, records, alloc_bytes] per key.
        # The region is the sum of all intervals: timed calls are leaves,
        # so per-phase wall times sum to it by construction.
        cells: Dict[Tuple[int, str, int], List[int]] = {}
        region_wall = region_cpu = 0
        for _h, machine, phase, iteration, records, wall, cpu, alloc in self.log.rows:
            cell = cells.setdefault((machine, phase, iteration), [0] * 5)
            cell[0] += wall
            cell[1] += cpu
            cell[2] += 1
            cell[3] += records
            cell[4] += alloc
            region_wall += wall
            region_cpu += cpu
        intervals = len(self.log.rows)

        phases = []
        by_phase: Dict[str, Dict[str, float]] = {}
        iteration_cells: Dict[int, Dict[str, float]] = {}
        for (machine, phase, iteration), cell in sorted(cells.items()):
            wall_ns, cpu_ns, calls, records, alloc_bytes = cell
            row = {
                "machine": machine,
                "phase": phase,
                "iteration": iteration,
                "wall_seconds": wall_ns / 1e9,
                "cpu_seconds": cpu_ns / 1e9,
                "calls": calls,
                "records": records,
            }
            if self.trace_allocations:
                row["alloc_bytes"] = alloc_bytes
            phases.append(row)
            agg = by_phase.setdefault(
                phase, {"wall_seconds": 0.0, "cpu_seconds": 0.0, "calls": 0}
            )
            agg["wall_seconds"] += wall_ns / 1e9
            agg["cpu_seconds"] += cpu_ns / 1e9
            agg["calls"] += calls
            if phase == "scatter":
                cell = iteration_cells.setdefault(
                    iteration, {"edges": 0, "wall_seconds": 0.0}
                )
                cell["edges"] += records
                cell["wall_seconds"] += wall_ns / 1e9

        iterations = []
        total_edges = 0
        for iteration in sorted(iteration_cells):
            cell = iteration_cells[iteration]
            edges = int(cell["edges"])
            wall = cell["wall_seconds"]
            total_edges += edges
            iterations.append(
                {
                    "iteration": iteration,
                    "edges": edges,
                    "scatter_wall_seconds": wall,
                    "edges_per_sec": edges / wall if wall > 0 else 0.0,
                }
            )

        scatter_wall = by_phase.get("scatter", {}).get("wall_seconds", 0.0)
        region_wall = region_wall / 1e9
        session_wall = self.session_wall_ns / 1e9
        doc = {
            "host_schema_version": HOST_SCHEMA_VERSION,
            "tracemalloc": self.trace_allocations,
            "region": {
                "wall_seconds": region_wall,
                "cpu_seconds": region_cpu / 1e9,
                "intervals": intervals,
            },
            "session_wall_seconds": session_wall,
            "coverage": region_wall / session_wall if session_wall > 0 else 0.0,
            "phases": phases,
            "iterations": iterations,
            "totals": {
                "by_phase": {
                    phase: by_phase[phase] for phase in sorted(by_phase)
                },
                "edges": total_edges,
                "edges_per_sec": (
                    total_edges / scatter_wall if scatter_wall > 0 else 0.0
                ),
            },
        }
        if self.job is not None:
            doc["job"] = dict(self.job)
        return doc


# -- exporters -----------------------------------------------------------
#
# All exporters read the canonical JSON document (`profiler.to_dict()`)
# and return strings; printing is the CLI's job (CHX007).


def to_collapsed_stack(doc: dict) -> str:
    """Collapsed-stack flamegraph text: ``machineM;phase;iterI <us>``.

    One line per (machine, phase, iteration) cell, weight = host wall
    time in integer microseconds (flamegraph.pl-compatible).
    """
    lines = []
    for row in doc["phases"]:
        weight = int(round(row["wall_seconds"] * 1e6))
        lines.append(
            f"machine{row['machine']};{row['phase']};"
            f"iter{row['iteration']} {weight}"
        )
    return "\n".join(lines) + "\n" if lines else ""


def parse_collapsed_stack(text: str) -> Dict[Tuple[int, str, int], int]:
    """Inverse of :func:`to_collapsed_stack` (round-trip tests)."""
    tree: Dict[Tuple[int, str, int], int] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        stack, weight = line.rsplit(" ", 1)
        frames = stack.split(";")
        if len(frames) != 3:
            raise ValueError(f"collapsed stack line has {len(frames)} frames: "
                             f"{line!r}")
        machine = int(frames[0].removeprefix("machine"))
        iteration = int(frames[2].removeprefix("iter"))
        key = (machine, frames[1], iteration)
        tree[key] = tree.get(key, 0) + int(weight)
    return tree


def to_prometheus(doc: dict, integrity: Optional[Dict[str, int]] = None) -> str:
    """Prometheus text exposition format (0.0.4).

    ``integrity`` (``JobResult.integrity``) adds the run's
    integrity/byzantine counters as one labelled family, so fleet
    dashboards see injected-fault pressure next to host cost.
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    per_phase = [
        ("wall_seconds", "counter", ".9f",
         "Host wall-clock seconds spent in an engine phase."),
        ("cpu_seconds", "counter", ".9f",
         "Host process CPU seconds spent in an engine phase."),
        ("calls", "counter", "", "Measured intervals per engine phase."),
    ]
    if doc.get("tracemalloc"):
        per_phase.append(
            ("alloc_bytes", "gauge", "",
             "Net tracemalloc allocation delta per engine phase.")
        )
    for key, kind, spec, help_text in per_phase:
        family(f"chaos_host_phase_{key}", kind, help_text)
        for row in doc["phases"]:
            lines.append(
                f'chaos_host_phase_{key}{{machine="{row["machine"]}",'
                f'phase="{row["phase"]}",iteration="{row["iteration"]}"}} '
                f"{row[key]:{spec}}"
            )
    for name, kind, value, help_text in (
        ("region_wall_seconds", "counter",
         f"{doc['region']['wall_seconds']:.9f}",
         "Host wall seconds of the whole profiled region."),
        ("region_cpu_seconds", "counter",
         f"{doc['region']['cpu_seconds']:.9f}",
         "Host CPU seconds of the whole profiled region."),
        ("edges_per_sec", "gauge", f"{doc['totals']['edges_per_sec']:.3f}",
         "Host scatter throughput over the whole run."),
    ):
        family(f"chaos_host_{name}", kind, help_text)
        lines.append(f"chaos_host_{name} {value}")
    if integrity:
        family(
            "chaos_integrity_events_total",
            "counter",
            "Integrity/byzantine events by kind (injected message faults "
            "and their transport/storage-level suppression).",
        )
        for kind in sorted(integrity):
            lines.append(
                f'chaos_integrity_events_total{{kind="{kind}"}} '
                f"{int(integrity[kind])}"
            )
    return "\n".join(lines) + "\n"


_PROM_COMMENT = re.compile(
    r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$"
)
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})?'
    r" [0-9eE.+-]+$"
)


def validate_prometheus(text: str) -> List[str]:
    """Line-format check of a text exposition; returns error strings."""
    errors: List[str] = []
    declared: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT.match(line):
                errors.append(f"line {number}: malformed comment: {line!r}")
            elif line.startswith("# TYPE "):
                _hash, _type, name, kind = line.split(" ", 3)
                declared[name] = kind
            continue
        if not _PROM_SAMPLE.match(line):
            errors.append(f"line {number}: malformed sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        if name not in declared:
            errors.append(
                f"line {number}: sample before # TYPE declaration: {name}"
            )
    return errors


#: (key, required type) pairs of the host metrics JSON document.
_SCHEMA_TOP = (
    ("host_schema_version", int),
    ("tracemalloc", bool),
    ("region", dict),
    ("session_wall_seconds", (int, float)),
    ("coverage", (int, float)),
    ("phases", list),
    ("iterations", list),
    ("totals", dict),
)
_SCHEMA_PHASE = (
    ("machine", int),
    ("phase", str),
    ("iteration", int),
    ("wall_seconds", (int, float)),
    ("cpu_seconds", (int, float)),
    ("calls", int),
    ("records", int),
)


def check_host_schema(doc: dict) -> List[str]:
    """Schema-check a host metrics document; returns error strings."""
    errors: List[str] = []
    for key, kind in _SCHEMA_TOP:
        if key not in doc:
            errors.append(f"missing top-level key: {key}")
        elif not isinstance(doc[key], kind):
            errors.append(f"{key}: expected {kind}, got {type(doc[key])}")
    if errors:
        return errors
    if doc["host_schema_version"] != HOST_SCHEMA_VERSION:
        errors.append(
            f"host_schema_version {doc['host_schema_version']} != "
            f"{HOST_SCHEMA_VERSION}"
        )
    for index, row in enumerate(doc["phases"]):
        for key, kind in _SCHEMA_PHASE:
            if key not in row:
                errors.append(f"phases[{index}]: missing {key}")
            elif not isinstance(row[key], kind):
                errors.append(f"phases[{index}].{key}: bad type")
        if doc["tracemalloc"] and "alloc_bytes" not in row:
            errors.append(f"phases[{index}]: missing alloc_bytes")
    for key in ("by_phase", "edges", "edges_per_sec"):
        if key not in doc["totals"]:
            errors.append(f"totals: missing {key}")
    if "job" in doc:  # optional stable join keys (see HostProfiler.job)
        job = doc["job"]
        if not isinstance(job, dict):
            errors.append("job: expected dict")
        else:
            if not isinstance(job.get("algorithm"), str):
                errors.append("job.algorithm: expected str")
            if not isinstance(job.get("machines"), int):
                errors.append("job.machines: expected int")
    return errors


# -- terminal report -----------------------------------------------------


def host_skew(doc: dict, sim_spans: Dict[str, float]) -> List[dict]:
    """Per host phase (name order): its share of host wall time next to
    its sim span's share of the mapped simulated seconds.  Positive
    ``skew`` = host share exceeds sim share: a vectorization target."""
    by_phase = doc["totals"]["by_phase"]
    host_total = sum(agg["wall_seconds"] for agg in by_phase.values())
    sim_total = sum(sim_spans.get(s, 0.0) for s in SIM_SPAN_FOR_PHASE.values())
    rows = []
    for phase in sorted(by_phase):
        span = SIM_SPAN_FOR_PHASE.get(phase)
        host_share = by_phase[phase]["wall_seconds"] / host_total if host_total else 0.0
        sim_share = None
        if span is not None and sim_total > 0:
            sim_share = sim_spans.get(span, 0.0) / sim_total
        rows.append({
            "phase": phase,
            "sim_span": span,
            "host_share": host_share,
            "sim_share": sim_share,
            "skew": None if sim_share is None else host_share - sim_share,
        })
    return rows


def format_host_report(
    doc: dict, skew: Optional[List[dict]] = None, top: int = 10
) -> str:
    """Render the host-profile section of ``trace-report`` / ``run``.

    ``skew`` holds the :func:`host_skew` rows of the run's trace (the
    ``trace-report`` document's ``host_skew``); without them the sim
    columns of the table are dashed.
    """
    lines: List[str] = []
    region = doc["region"]
    lines.append(
        f"host profile: region {region['wall_seconds']:.3f}s wall / "
        f"{region['cpu_seconds']:.3f}s cpu "
        f"({doc['coverage']:.1%} of session wall)"
    )
    lines.append(
        f"host throughput: {doc['totals']['edges_per_sec']:,.0f} edges/sec "
        f"({doc['totals']['edges']} edges scattered)"
    )

    by_phase = doc["totals"]["by_phase"]
    ranked = sorted(
        by_phase.items(), key=lambda kv: (-kv[1]["cpu_seconds"], kv[0])
    )[:top]
    skews = {row["phase"]: row for row in skew or host_skew(doc, {})}

    lines.append("")
    lines.append(f"hottest host phases by CPU time (top {len(ranked)}):")
    header = (
        f"  {'phase':<12s} {'host cpu':>10s} {'host wall':>10s} "
        f"{'calls':>8s} {'host%':>7s}  {'sim span':<12s} {'sim%':>7s} "
        f"{'skew':>7s}"
    )
    lines.append(header)
    for phase, agg in ranked:
        row = skews[phase]
        if row["skew"] is not None:
            sim_cols = (
                f"{row['sim_span']:<12s} {row['sim_share']:7.1%} "
                f"{row['skew']:+7.1%}"
            )
        else:
            sim_cols = f"{'-':<12s} {'-':>7s} {'-':>7s}"
        lines.append(
            f"  {phase:<12s} {agg['cpu_seconds']:9.4f}s "
            f"{agg['wall_seconds']:9.4f}s {agg['calls']:8d} "
            f"{row['host_share']:7.1%}  {sim_cols}"
        )
    if any(row["sim_share"] is not None for row in skews.values()):
        lines.append(
            "  (positive skew = host share exceeds sim share: "
            "vectorization target)"
        )

    if doc["iterations"]:
        lines.append("")
        lines.append("per-iteration host throughput (scatter):")
        for cell in doc["iterations"]:
            lines.append(
                f"  iter {cell['iteration']:<3d} {cell['edges']:>10d} edges "
                f"in {cell['scatter_wall_seconds']:.4f}s  "
                f"-> {cell['edges_per_sec']:,.0f} edges/sec"
            )
    return "\n".join(lines)
