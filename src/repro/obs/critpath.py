"""Bottleneck attribution: exact wall-clock decomposition of a trace.

The analyzer replays a recorded trace (live :class:`~repro.obs.tracer.Tracer`
or a saved Chrome-trace document) and attributes every simulated second
of every machine to exactly one of :data:`ATTRIBUTION_CATEGORIES`:

* ``storage_busy``  — the local device was serving a request;
* ``storage_queue`` — the device was serving a *backlogged* request
  (one that waited behind another), the queueing share of busy time;
* ``nic_busy``      — a NIC direction was moving bytes while the
  engine demanded progress;
* ``net_wait``      — the engine waited with no local resource busy
  (remote service time, protocol round trips);
* ``cpu``           — cores were executing chunk processing or Apply;
* ``barrier``       — idle at a global phase barrier;
* ``steal``         — work-stealing overhead: vertex-set copies on the
  stealer side, accumulator shipping, masters waiting for stealer
  accumulators, and steal-proposal round trips;
* ``recovery``      — inside a rollback window (work discarded by a
  fault plus checkpoint-restore time).

The decomposition is built from an elementary-interval sweep over every
machine's timeline, so the category seconds of one machine sum to the
trace duration *by construction* (closure is asserted to float
precision by :meth:`AttributionReport.closure_error`).

Classification priority per elementary interval: recovery window >
engine barrier state > steal state > Apply/merge CPU > demand states,
with demand time refined by which local resource was busy (device,
then NIC, then cores, else ``net_wait``).  The engine state is the
ledger category its innermost span carries, so ``barrier`` and ``steal``
mean what the ledger means (DESIGN.md §5 maps its ten onto these eight).

Beyond the decomposition the report names the binding resource, checks
the measured steady-state storage utilization against the analytic
rho(m, k) of Eq. 4 (:func:`repro.core.batching.utilization`), and flags
stragglers: machines whose barrier wait in an iteration exceeds the
Section 5.4 stealing bound ``(1 + alpha) * max(vertex load) +
max(chunk service)``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.log import (
    EventLog,
    TraceColumns,
    log_from_document,
    rows_from_events,
)
from repro.obs.tracer import (
    TID_CPU,
    TID_DEVICE,
    TID_ENGINE,
    TID_JOB,
    TID_NIC_RX,
    TID_NIC_TX,
    Tracer,
)

ATTRIBUTION_CATEGORIES = (
    "storage_busy",
    "storage_queue",
    "nic_busy",
    "net_wait",
    "cpu",
    "barrier",
    "steal",
    "recovery",
)

#: Job-track categories that are non-overlapping wall-time windows (the
#: Section 9.6 useful / lost / restore split): ``recovery`` here, and
#: subtracted from useful time by the trace report.
RECOVERY_WALL_CATEGORIES = ("lost", "restore")

#: Trace Event Format microseconds -> simulated seconds.
_SECONDS = 1e-6

#: Tolerance for "this device span started exactly when the previous
#: one finished", i.e. the request had queued (relative to timestamps).
_QUEUE_EPS = 1e-9


class AttributionError(ValueError):
    """Raised when a trace cannot be attributed (e.g. spans disabled)."""


# ---------------------------------------------------------------------------
# Interval helpers: sorted disjoint interval sets as (starts, ends) arrays
# ---------------------------------------------------------------------------

Intervals = Tuple[np.ndarray, np.ndarray]

_NONE = np.empty(0, dtype=np.float64)


def _union(start: np.ndarray, end: np.ndarray) -> Intervals:
    """Union of possibly-overlapping intervals, as sorted disjoint ones
    (touching intervals fuse; empty ones drop out)."""
    keep = end > start
    start, end = start[keep], end[keep]
    if not len(start):
        return _NONE, _NONE
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    reach = np.maximum.accumulate(end)
    first = np.flatnonzero(np.append(True, start[1:] > reach[:-1]))
    return start[first], reach[np.append(first[1:] - 1, len(start) - 1)]


def _covering(intervals: Intervals, a: np.ndarray, b: np.ndarray):
    """For each elementary interval ``[a, b)``: is it inside one of the
    sorted disjoint ``intervals``, and which.  Elementary intervals are
    cut at every interval boundary, so each lies entirely inside or
    entirely outside every interval."""
    start, end = intervals
    if not len(start):
        return np.zeros(len(a), dtype=bool), np.zeros(len(a), dtype=np.intp)
    index = np.minimum(np.searchsorted(end, a, side="right"), len(end) - 1)
    return (start[index] <= a) & (b <= end[index]) & (end[index] > a), index


def _runs(inside: np.ndarray, a: np.ndarray, b: np.ndarray) -> Intervals:
    """Maximal runs of consecutive selected elementary intervals."""
    edge = np.diff(np.concatenate(([False], inside, [False])).astype(np.int8))
    return a[np.flatnonzero(edge == 1)], b[np.flatnonzero(edge == -1) - 1]


def _intersect(x: Intervals, y: Intervals) -> Intervals:
    """Intersection of two sorted disjoint interval sets."""
    cuts = np.unique(np.concatenate(x + y))
    a, b = cuts[:-1], cuts[1:]
    return _runs(_covering(x, a, b)[0] & _covering(y, a, b)[0], a, b)


def _measure(intervals: Intervals) -> float:
    """Total length, summed left to right (``cumsum`` adds in order;
    ``sum`` would pair terms up and round differently)."""
    start, end = intervals
    return float(np.cumsum(end - start)[-1]) if len(start) else 0


# ---------------------------------------------------------------------------
# Engine timeline replay
# ---------------------------------------------------------------------------

#: Engine states, in the order the sweep tests them.
_BARRIER, _STEAL, _CPU, _DEMAND = range(4)

#: A wait's engine state by its ledger category (any other: demand),
#: refined in :func:`_replay_engine`: a stealer's ``copy`` is steal, and
#: ``preprocess.barrier`` (ledger ``preprocess``) is barrier.
_STATE = {"barrier": _BARRIER, "merge_wait": _STEAL,
          "steal_propose": _STEAL, "merge": _CPU}

#: ``(start, end, state, label, phase, streaming)``: ``label`` is
#: "preprocess" or the iteration number as a string, ``phase`` one of
#: preprocess / scatter / gather, ``streaming`` whether the innermost
#: span is a ``stream`` (windowed chunk streaming, the regime Eq. 4
#: models).
_Segment = Tuple[float, float, int, str, str, bool]


def _replay_engine(
    events: List[Tuple[str, float, str, Optional[str], Optional[dict]]],
    duration: float,
) -> Tuple[List[_Segment], Dict[Tuple[str, str], float]]:
    """Replay one engine track's ``(ph, ts, name, cat, args)`` B/E events
    into state segments.  The track is balanced: the rollback fence
    ends a killed epoch's spans where its process ends.

    Returns the segments covering ``[0, duration]`` and the maximum
    ``vertex_load`` span duration per (iteration label, phase) — the V
    term of the Section 5.4 straggler bound.
    """
    segments: List[_Segment] = []
    vertex_load_max: Dict[Tuple[str, str], float] = {}
    # Stack entries: (name, cat, args, push_ts).
    stack: List[Tuple[str, Optional[str], dict, float]] = []
    prev = 0.0
    last_label = "preprocess"
    last_phase = "preprocess"

    def current_state() -> Tuple[int, str, str, bool]:
        label = None
        phase = None
        for name, _cat, args, _ts in reversed(stack):
            if name in ("scatter", "gather"):
                label = str(args.get("iteration", "?"))
                phase = name
                break
        state = _DEMAND
        streaming = bool(stack) and stack[-1][0] == "stream"
        if stack:
            name, cat = stack[-1][:2]
            if name == "preprocess.barrier":
                state = _BARRIER
            elif cat == "copy":
                for pname, _pcat, pargs, _pt in reversed(stack[:-1]):
                    if pname.startswith("partition"):
                        if pargs.get("role") == "stealer":
                            state = _STEAL
                        break
            else:
                state = _STATE.get(cat, _DEMAND)
        return state, label or last_label, phase or last_phase, streaming

    for ph, ts, name, cat, args in events:
        if ts > prev:
            segments.append((prev, ts) + current_state())
            prev = ts
        if ph == "B":
            stack.append((name, cat, args or {}, ts))
            if name in ("scatter", "gather"):
                last_label = str((args or {}).get("iteration", "?"))
                last_phase = name
            elif name == "preprocess":
                # A later run of a multi-run driver starts over: its
                # pre-processing is not the previous run's last phase.
                last_label = last_phase = "preprocess"
        elif stack:
            name, _cat, _args, t0 = stack.pop()
            if name == "vertex_load":
                _state, label, phase, _streaming = current_state()
                key = (label, phase)
                span = ts - t0
                if span > vertex_load_max.get(key, 0.0):
                    vertex_load_max[key] = span
    if duration > prev:
        segments.append((prev, duration) + current_state())
    return segments, vertex_load_max


# ---------------------------------------------------------------------------
# Report dataclasses
# ---------------------------------------------------------------------------


@dataclass
class MachineAttribution:
    """One machine's wall clock, split across the categories."""

    machine: int
    seconds: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.seconds.get(c, 0.0) for c in ATTRIBUTION_CATEGORIES)


@dataclass
class IterationAttribution:
    """Cluster engine-seconds per category for one iteration label."""

    label: str
    seconds: Dict[str, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.seconds.get(c, 0.0) for c in ATTRIBUTION_CATEGORIES)


@dataclass
class ResourceUtilization:
    """Busy fraction of one resource (``machine is None`` = cluster)."""

    resource: str  # "storage" | "nic" | "cpu"
    machine: Optional[int]
    busy_seconds: float
    utilization: float

    @property
    def slack(self) -> float:
        return max(0.0, 1.0 - self.utilization)


@dataclass
class StragglerFlag:
    """A machine whose barrier wait broke the Section 5.4 bound."""

    machine: int
    iteration: str
    phase: str
    wait: float
    bound: float


@dataclass
class AttributionReport:
    """Everything the bottleneck analyzer derives from one trace."""

    duration: float
    machines: int
    config: Dict[str, object] = field(default_factory=dict)
    per_machine: List[MachineAttribution] = field(default_factory=list)
    per_iteration: List[IterationAttribution] = field(default_factory=list)
    utilization: List[ResourceUtilization] = field(default_factory=list)
    #: Aggregate engine-seconds per category over all machines.
    cluster_seconds: Dict[str, float] = field(default_factory=dict)
    #: The binding resource: "storage", "network" or "cpu".
    bottleneck: str = ""
    #: The single largest attribution category.
    dominant_category: str = ""
    #: Steady-state storage utilization vs the Eq. 4 prediction.
    measured_rho: Optional[float] = None
    analytic_rho: Optional[float] = None
    stragglers: List[StragglerFlag] = field(default_factory=list)
    #: Per-machine engine-seconds idle at each phase barrier, keyed by
    #: ``(machine, iteration_label, phase)`` and summed over epochs.
    #: The causal slowest-chain analyzer cross-checks its chains
    #: against this decomposition (repro.obs.causal.cross_check).
    barrier_waits: Dict[Tuple[int, str, str], float] = field(
        default_factory=dict
    )

    def closure_error(self) -> float:
        """Worst |machine total - duration| over all machines (seconds)."""
        if not self.per_machine:
            return 0.0
        return max(abs(m.total() - self.duration) for m in self.per_machine)

    def rho_error(self) -> Optional[float]:
        """Relative error of measured vs analytic utilization."""
        if self.measured_rho is None or not self.analytic_rho:
            return None
        return abs(self.measured_rho - self.analytic_rho) / self.analytic_rho

    def category_fractions(self) -> Dict[str, float]:
        total = sum(self.cluster_seconds.get(c, 0.0) for c in ATTRIBUTION_CATEGORIES)
        if total <= 0:
            return {c: 0.0 for c in ATTRIBUTION_CATEGORIES}
        return {
            c: self.cluster_seconds.get(c, 0.0) / total
            for c in ATTRIBUTION_CATEGORIES
        }

    def to_dict(self) -> dict:
        return {
            "duration": self.duration,
            "machines": self.machines,
            "config": dict(self.config),
            "cluster_seconds": {
                c: self.cluster_seconds.get(c, 0.0)
                for c in ATTRIBUTION_CATEGORIES
            },
            "bottleneck": self.bottleneck,
            "dominant_category": self.dominant_category,
            "measured_rho": self.measured_rho,
            "analytic_rho": self.analytic_rho,
            "closure_error": self.closure_error(),
            "per_machine": [asdict(m) for m in self.per_machine],
            "per_iteration": [asdict(it) for it in self.per_iteration],
            "utilization": [asdict(u) for u in self.utilization],
            "stragglers": [asdict(s) for s in self.stragglers],
            "barrier_waits": [
                {"machine": machine, "label": label, "phase": phase, "wait": wait}
                for (machine, label, phase), wait in sorted(self.barrier_waits.items())
            ],
        }


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _iteration_sort_key(label: str) -> Tuple[int, int, str]:
    if label == "preprocess":
        return (0, 0, label)
    if label.isdigit():
        return (1, int(label), label)
    return (2, 0, label)


def _device_spans(start: np.ndarray, end: np.ndarray):
    """Device busy spans ``(start, end), queued``: sorted, with a flag
    per span for back-to-back service (the request had queued)."""
    keep = end > start
    start, end = start[keep], end[keep]
    order = np.lexsort((end, start))
    start, end = start[order], end[order]
    queued = np.zeros(len(start), dtype=bool)
    queued[1:] = np.abs(start[1:] - end[:-1]) <= _QUEUE_EPS * np.maximum(
        1.0, end[:-1]
    )
    return (start, end), queued


def _attribute(
    trace: TraceColumns,
    duration: Optional[float] = None,
    config: Optional[Dict[str, object]] = None,
) -> AttributionReport:
    """The attribution of a log's tracer columns (times in seconds)."""
    ph, pid, tid, ts = trace.ph, trace.pid, trace.tid, trace.ts
    spans = ph != "C"
    finish = ts + trace.dur
    trace_config: Dict[str, object] = {}
    for index in np.flatnonzero(ph == "i").tolist():
        if trace.name[index] == "job.config":
            trace_config = dict(trace.args[index] or {})
            break
    if config:
        trace_config.update(config)
    machines = int(trace_config.get("machines", 0))
    if not machines:
        machines = len(np.unique(pid[spans & (tid == TID_ENGINE)]))
    if not machines:
        raise AttributionError(
            "trace has no engine spans; record it with tracing enabled"
        )
    if duration is None:
        duration = float(finish[spans].max()) if spans.any() else 0.0
    if duration <= 0:
        raise AttributionError("trace duration is zero")

    is_span = ph == "X"

    def busy(machine: int, *tids: int) -> np.ndarray:
        """Rows of the complete spans on ``machine``'s given tracks."""
        return np.flatnonzero(is_span & (pid == machine) & np.isin(tid, tids))

    # Rollback windows (cluster-wide: every machine stalls or loses
    # work during a recovery).
    windows = [
        row for row in busy(machines, TID_JOB).tolist()
        if trace.cat[row] in RECOVERY_WALL_CATEGORIES
    ]
    recovery = _union(ts[windows], finish[windows])

    report = AttributionReport(
        duration=duration, machines=machines, config=trace_config
    )
    labels: Dict[str, int] = {}  # iteration label -> code, cluster-wide
    sweeps: List[Tuple[np.ndarray, ...]] = []  # (label codes, categories, widths)
    barrier_waits: Dict[Tuple[int, str, str], float] = {}
    vertex_load_max: Dict[Tuple[str, str], float] = {}
    demand_by_machine: List[Intervals] = []
    device_busy_by_machine: List[Intervals] = []
    max_device_span = 0.0
    category = {name: code for code, name in enumerate(ATTRIBUTION_CATEGORIES)}

    for machine in range(machines):
        rows = np.flatnonzero(
            (pid == machine) & (tid == TID_ENGINE) & ((ph == "B") | (ph == "E"))
        ).tolist()
        segments, vl_max = _replay_engine(
            list(zip(ph[rows].tolist(), ts[rows].tolist(), trace.name[rows].tolist(),
                     trace.cat[rows].tolist(), trace.args[rows].tolist())),
            duration,
        )
        for key, value in vl_max.items():
            if value > vertex_load_max.get(key, 0.0):
                vertex_load_max[key] = value

        rows = busy(machine, TID_DEVICE)
        device, queued = _device_spans(ts[rows], finish[rows])
        if len(queued):
            max_device_span = max(
                max_device_span, float((device[1] - device[0]).max())
            )
        device_busy = _union(*device)
        device_busy_by_machine.append(device_busy)
        rows = busy(machine, TID_NIC_TX, TID_NIC_RX)
        nic_busy = _union(ts[rows], finish[rows])
        rows = busy(machine, TID_CPU)
        cpu_busy = _union(ts[rows], finish[rows])

        # Every boundary cuts the timeline; each elementary interval
        # [a, b) then has one engine state and one answer per resource.
        seg_start, seg_end, state, seg_label, phase, streaming = zip(*segments)
        cuts = np.unique(np.concatenate(
            (np.array([0.0, duration]), seg_start, seg_end) + device
            + nic_busy + cpu_busy + recovery
        ))
        cuts = cuts[(cuts >= 0.0) & (cuts <= duration)]
        a, b = cuts[:-1], cuts[1:]
        # The engine segment containing [a, b) (they tile [0, duration]).
        seg = np.minimum(
            np.searchsorted(np.array(seg_end), a, side="right"),
            len(segments) - 1,
        )
        state = np.array(state)[seg]
        on_device, span = _covering(device, a, b)
        backlogged = on_device & queued[span] if len(queued) else on_device
        in_recovery = _covering(recovery, a, b)[0]
        categories = np.select(
            [
                in_recovery,
                state == _BARRIER,
                state == _STEAL,
                state == _CPU,
                backlogged,
                on_device,
                _covering(nic_busy, a, b)[0],
                _covering(cpu_busy, a, b)[0],
            ],
            [category[name] for name in (
                "recovery", "barrier", "steal", "cpu", "storage_queue",
                "storage_busy", "nic_busy", "cpu",
            )],
            default=category["net_wait"],
        )
        width = b - a
        # bincount adds the widths of a category in timeline order, one
        # at a time — the order a loop over the intervals would.
        totals = np.bincount(
            categories, weights=width, minlength=len(ATTRIBUTION_CATEGORIES)
        )
        report.per_machine.append(
            MachineAttribution(
                machine=machine,
                seconds=dict(zip(ATTRIBUTION_CATEGORIES, totals.tolist())),
            )
        )
        label_codes = np.array(
            [labels.setdefault(label, len(labels)) for label in seg_label]
        )[seg]
        sweeps.append((label_codes, categories, width))

        # Barrier idle time per (iteration, phase): what the causal
        # chain analyzer reconciles against.
        phases = {"scatter": 0, "gather": 1}
        phase_code = np.array([phases.get(name, -1) for name in phase])[seg]
        waiting = (categories == category["barrier"]) & (phase_code >= 0)
        keys = label_codes[waiting] * 2 + phase_code[waiting]
        waited = np.bincount(keys, weights=width[waiting])
        names = list(labels)
        for key in np.unique(keys).tolist():
            barrier_waits[
                (machine, names[key // 2], "gather" if key % 2 else "scatter")
            ] = float(waited[key])

        # Steady-state sample for the Eq. 4 check: the engine is inside
        # windowed chunk streaming of a numbered iteration (the regime
        # the batching model describes) and in a demand state.
        numbered = np.array([label.isdigit() for label in seg_label])[seg]
        steady = (
            (state == _DEMAND) & ~in_recovery & numbered
            & np.array(streaming)[seg]
        )
        demand_by_machine.append(_runs(steady, a, b))

        for resource, intervals in (
            ("storage", device_busy), ("nic", nic_busy), ("cpu", cpu_busy)
        ):
            seconds = _measure(intervals)
            report.utilization.append(
                ResourceUtilization(resource, machine, seconds, seconds / duration)
            )

    # Cluster aggregates -----------------------------------------------------
    for name in ATTRIBUTION_CATEGORIES:
        report.cluster_seconds[name] = sum(
            m.seconds.get(name, 0.0) for m in report.per_machine
        )
    for resource in ("storage", "nic", "cpu"):
        seconds = sum(
            u.busy_seconds
            for u in report.utilization
            if u.resource == resource and u.machine is not None
        )
        report.utilization.append(
            ResourceUtilization(
                resource, None, seconds, seconds / (machines * duration)
            )
        )

    # Per iteration: one running sum per (label, category) over every
    # machine's intervals, machine after machine.
    label_codes, categories, widths = map(np.concatenate, zip(*sweeps))
    width = len(ATTRIBUTION_CATEGORIES)
    per_label = np.bincount(
        label_codes * width + categories, weights=widths,
        minlength=len(labels) * width,
    ).reshape(len(labels), width)
    seen = set(np.unique(label_codes).tolist())
    report.per_iteration = [
        IterationAttribution(
            label=label,
            seconds=dict(zip(ATTRIBUTION_CATEGORIES, per_label[code].tolist())),
        )
        for label, code in sorted(
            labels.items(), key=lambda item: _iteration_sort_key(item[0])
        )
        if code in seen
    ]

    cs = report.cluster_seconds
    resource_seconds = {
        "storage": cs["storage_busy"] + cs["storage_queue"],
        "network": cs["nic_busy"] + cs["net_wait"],
        "cpu": cs["cpu"],
    }
    report.bottleneck = max(
        sorted(resource_seconds), key=lambda r: resource_seconds[r]
    )
    report.dominant_category = max(
        ATTRIBUTION_CATEGORIES, key=lambda c: cs[c]
    )

    # Steady-state utilization vs Eq. 4 --------------------------------------
    window = demand_by_machine[0]
    for intervals in demand_by_machine[1:]:
        window = _intersect(window, intervals)
    window_len = _measure(window)
    if window_len > 0:
        busy_in_window = sum(
            _measure(_intersect(device_busy_by_machine[m], window))
            for m in range(machines)
        )
        report.measured_rho = busy_in_window / (machines * window_len)
    batch_factor = trace_config.get("batch_factor")
    if batch_factor:
        from repro.core.batching import utilization as analytic_utilization

        report.analytic_rho = analytic_utilization(machines, int(batch_factor))

    # Straggler detection (Section 5.4 bound) --------------------------------
    # With stealing on, the residual imbalance at a phase barrier is
    # bounded by the cost of the last steal that could not happen: the
    # vertex-set copy (V, inflated by the Eq. 2 acceptance factor
    # alpha) plus the drain of the request window already in flight.
    alpha = float(trace_config.get("steal_alpha") or 0.0) or 1.0
    request_window = int(trace_config.get("request_window") or 10)
    for (machine, label, phase), wait in sorted(barrier_waits.items()):
        if not label.isdigit():
            continue
        bound = (1.0 + alpha) * vertex_load_max.get(
            (label, phase), 0.0
        ) + request_window * max_device_span
        if wait > bound:
            report.stragglers.append(
                StragglerFlag(machine, label, phase, wait, bound)
            )
    report.barrier_waits = barrier_waits

    return report


def analyze_events(
    events: List[dict],
    duration: Optional[float] = None,
    config: Optional[Dict[str, object]] = None,
) -> AttributionReport:
    """Attribute an event-dict list (timestamps in seconds).

    ``config`` overrides/augments the ``job.config`` marker the runtime
    embeds in traces; ``duration`` defaults to the largest event end.
    """
    trace = EventLog(rows_from_events(events)).columns().trace
    return _attribute(trace, duration=duration, config=config)


def analyze_tracer(
    tracer: Tracer, config: Optional[Dict[str, object]] = None
) -> AttributionReport:
    """Attribute a live (in-process) trace recording."""
    if not tracer.enabled:
        raise AttributionError("tracer is disabled; nothing to attribute")
    trace = tracer.log.columns().trace
    return _attribute(trace, duration=trace.end, config=config)


def analyze_chrome_trace(
    trace: dict, config: Optional[Dict[str, object]] = None
) -> AttributionReport:
    """Attribute a loaded Chrome-trace document (timestamps in us)."""
    return _attribute(log_from_document(trace).columns().trace, config=config)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_SHORT = {
    "storage_busy": "st.busy",
    "storage_queue": "st.queue",
    "nic_busy": "nic",
    "net_wait": "net.wait",
    "cpu": "cpu",
    "barrier": "barrier",
    "steal": "steal",
    "recovery": "recov",
}


def _row(label: str, seconds: Dict[str, float], width: int = 10) -> str:
    cells = "".join(
        f"{seconds.get(c, 0.0):>{width}.4f}" for c in ATTRIBUTION_CATEGORIES
    )
    return f"  {label:<12}{cells}"


def _header(width: int = 10) -> str:
    cells = "".join(f"{_SHORT[c]:>{width}}" for c in ATTRIBUTION_CATEGORIES)
    return f"  {'':<12}{cells}"


def format_iteration_table(report: dict) -> List[str]:
    """Per-iteration attribution rows of an :meth:`AttributionReport.to_dict`
    document (shared with ``trace-report``)."""
    lines = ["per-iteration attribution (engine-seconds):", _header()]
    for it in report["per_iteration"]:
        lines.append(_row(it["label"], it["seconds"]))
    return lines


def format_attribution_report(report: AttributionReport) -> str:
    """Human-readable rendering of an :class:`AttributionReport`."""
    lines = [
        "== bottleneck attribution ==",
        f"duration          {report.duration:.6f}s x {report.machines} machines",
        f"binding resource  {report.bottleneck} "
        f"(dominant category: {report.dominant_category})",
        f"closure error     {report.closure_error():.3e}s",
    ]
    if report.measured_rho is not None:
        line = f"storage rho       measured={report.measured_rho:.4f}"
        if report.analytic_rho is not None:
            line += (
                f" analytic={report.analytic_rho:.4f}"
                f" (rel err {report.rho_error():.2%})"
            )
        lines.append(line)
    lines.append("")
    lines.append("cluster attribution (engine-seconds; share of total):")
    fractions = report.category_fractions()
    for category in ATTRIBUTION_CATEGORIES:
        lines.append(
            f"  {category:<14}{report.cluster_seconds.get(category, 0.0):>12.4f}s"
            f"  {fractions[category]:>7.1%}"
        )
    lines.append("")
    lines.extend(format_iteration_table(report.to_dict()))
    lines.append("")
    lines.append("per-machine attribution (seconds):")
    lines.append(_header())
    for m in report.per_machine:
        lines.append(_row(f"machine{m.machine}", m.seconds))
    lines.append("")
    lines.append("resource utilization:")
    for u in report.utilization:
        scope = "cluster" if u.machine is None else f"machine{u.machine}"
        lines.append(
            f"  {scope:<10}{u.resource:<9}busy={u.busy_seconds:10.4f}s"
            f"  util={u.utilization:7.1%}  slack={u.slack:7.1%}"
        )
    if report.stragglers:
        lines.append("")
        lines.append("stragglers (barrier wait above Section 5.4 bound):")
        for s in report.stragglers:
            lines.append(
                f"  machine{s.machine} iter {s.iteration} {s.phase}: "
                f"wait={s.wait:.6f}s bound={s.bound:.6f}s"
            )
    return "\n".join(lines)
