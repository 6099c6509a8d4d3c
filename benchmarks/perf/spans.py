"""Outside-in span tracing of the layers of ``src/repro``.

Nothing under ``src/`` knows about this file.  ``tracing()`` replaces
the public callables at each layer boundary with wrappers that record a
span — name, layer, start, end and the span that was open when it
started — and puts the originals back on exit, including every
``from x import f`` alias of a module-level function (found by scanning
``sys.modules`` for the identical function object).

The host side of a job is one thread and the wrapped callables are all
plain functions (never generators), so spans nest strictly and a
layer's *self* time is its spans' duration minus the part their child
spans cover.  What cannot be wrapped from outside — generator bodies in
``core/compute.py`` and ``store/engine.py``, private callbacks such as
``Network._deliver`` — runs between wrapped calls inside
``Simulator.run`` / ``run_until`` and is therefore part of
``sim.dispatch_self_s``.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import workload as core_workload
from repro.core.runtime import ChaosCluster
from repro.net.transport import Network
from repro.obs import critpath, export
from repro.partition import streaming
from repro.sim.engine import Simulator
from repro.sim.resources import CoreBank, FifoServer
from repro.store import integrity
from repro.store.filestore import FileChunkStore
from repro.store.memstore import MemoryChunkStore

#: Root span opened by the benchmark around the whole job call.
ROOT = "bench.job"

Units = Optional[Callable[[tuple], float]]


def _chunk_size(args: tuple) -> float:
    chunk = args[0]
    return float(chunk.size) if chunk is not None else 0.0


def _chunk_records(args: tuple) -> float:
    return float(args[2].records)  # (self, partition, chunk, ...)


#: (owner, attribute, span name, units): the units callable turns the
#: call's positional arguments into the amount of work it carried.
_MODULE_TARGETS: Tuple[Tuple[object, str, str, Units], ...] = (
    (streaming, "partition_edges", "partition.partition_edges",
     lambda a: float(a[0].num_edges)),
    (streaming, "preprocess", "partition.preprocess",
     lambda a: float(a[0].num_edges)),
    (integrity, "seal_chunk", "store.crc.seal_chunk", _chunk_size),
    (integrity, "verify_chunk", "store.crc.verify_chunk", _chunk_size),
    (core_workload, "canonical_update_order", "core.order",
     lambda a: float(len(a[1]))),
    (critpath, "analyze_tracer", "obs.analyze", None),
    (export, "write_chrome_trace", "obs.export", None),
)

_GAS_PHASES = ("scatter", "gather", "apply")

_BACKEND_METHODS = (
    "append_chunk",
    "fetch_any",
    "put_vertex_chunk",
    "get_vertex_chunk",
    "replace_vertex_chunk",
)

_CLASS_TARGETS: Tuple[Tuple[type, str, str, Units], ...] = (
    (ChaosCluster, "run", "core.run", None),
    (Simulator, "run", "sim.dispatch.run", None),
    (Simulator, "run_until", "sim.dispatch.run_until", None),
    (FifoServer, "service", "sim.service.fifo", None),
    (CoreBank, "execute", "sim.service.cores", None),
    (Network, "send", "net.send", None),
    (core_workload.DataWorkload, "scatter_chunk", "core.scatter",
     _chunk_records),
    (core_workload.DataWorkload, "gather_chunk", "core.gather", None),
    (core_workload.DataWorkload, "apply_partition", "core.apply", None),
) + tuple(
    (cls, method, f"store.backend.{kind}.{method}", None)
    for cls, kind in ((MemoryChunkStore, "mem"), (FileChunkStore, "file"))
    for method in _BACKEND_METHODS
    if method in vars(cls)
)


class Recorder:
    """Spans and counters of one traced job, kept in memory."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: One ``[name index, start, end, parent span index]`` per span,
        #: in start order; the root's parent is -1.
        self.spans: List[list] = []
        self.units: Dict[str, float] = {}
        #: Calls to ``Simulator.schedule`` — counted, not spanned: at
        #: ~200 k calls a span each would double the traced run's time.
        self.sim_events = 0
        self._stack: List[int] = [-1]

    def wrap(self, fn: Callable, name: str, units: Units) -> Callable:
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name}: a generator cannot be spanned from outside")
        index = len(self.names)
        self.names.append(name)
        self.units[name] = 0.0
        spans, stack, unit_totals = self.spans, self._stack, self.units
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            record = [index, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            if units is not None:
                unit_totals[name] += units(args)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        spanned.__wrapped__ = fn
        return spanned

    def count_schedule(self, fn: Callable) -> Callable:
        def schedule(sim, delay, callback, *args):
            self.sim_events += 1
            return fn(sim, delay, callback, *args)

        schedule.__wrapped__ = fn
        return schedule

    # -- reading the spans back ---------------------------------------

    def ledger(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, units."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                   "units": self.units[name]}
            for name in self.names
        }
        for position, (index, start, end, _parent) in enumerate(self.spans):
            row = rows[self.names[index]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[position]
        return rows

    def dump(self) -> Dict[str, object]:
        """The raw spans, columnar, for the results file."""
        return {
            "names": self.names,
            "layer": [name.split(".", 1)[0] for name in self.names],
            "name": [s[0] for s in self.spans],
            "start": [s[1] for s in self.spans],
            "end": [s[2] for s in self.spans],
            "parent": [s[3] for s in self.spans],
        }


def _aliases(fn: Callable) -> List[Tuple[object, str]]:
    """Every ``(module, attribute)`` that is this very function object."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attribute, value in list(namespace.items()):
            if value is fn:
                found.append((module, attribute))
    return found


def wrapped_callables(algorithm_class: type) -> List[Tuple[object, str]]:
    """The ``(owner, attribute)`` pairs ``tracing`` replaces — the
    self-test reads them before and after to prove restoration."""
    pairs: List[Tuple[object, str]] = [(Simulator, "schedule")]
    pairs += [(owner, attribute) for owner, attribute, _n, _u in _CLASS_TARGETS]
    pairs += [(algorithm_class, phase) for phase in _GAS_PHASES]
    for owner, attribute, _name, _units in _MODULE_TARGETS:
        pairs += _aliases(getattr(owner, attribute))
    return pairs


@contextlib.contextmanager
def tracing(algorithm_class: type) -> Iterator[Recorder]:
    """Patch every layer boundary in; always restore on the way out."""
    recorder = Recorder()
    undo: List[Tuple[object, str, object]] = []

    def replace(owner: object, attribute: str, new: object) -> None:
        undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, new)

    try:
        replace(
            Simulator, "schedule",
            recorder.count_schedule(vars(Simulator)["schedule"]),
        )
        for cls, attribute, name, units in _CLASS_TARGETS:
            replace(cls, attribute,
                    recorder.wrap(vars(cls)[attribute], name, units))
        for phase in _GAS_PHASES:
            # The GAS methods of the algorithm in use; each workload's
            # class defines all three itself.
            replace(
                algorithm_class, phase,
                recorder.wrap(vars(algorithm_class)[phase],
                              f"algorithms.{phase}", None),
            )
        for owner, attribute, name, units in _MODULE_TARGETS:
            original = getattr(owner, attribute)
            spanned = recorder.wrap(original, name, units)
            for module, alias in _aliases(original):
                replace(module, alias, spanned)
        yield recorder
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(recorder: Recorder, job, wall: float) -> Dict[str, float]:
    """The per-layer ledger of one traced job, by metric name.

    ``*_s`` are self times; rates divide the work a span carried by the
    time charged to the same metric.  ``job`` is the ``workloads.Job``
    the traced call returned — byte and fault counters come from the
    public attributes of the objects it holds.  ``wall`` is the caller's
    own timing of that call, which the self times must add up to.
    """
    rows = recorder.ledger()

    def total(prefix: str, key: str) -> float:
        return sum(r[key] for name, r in rows.items() if name.startswith(prefix))

    MB = 1e6
    events = float(recorder.sim_events)
    messages = total("net.send", "calls")
    dispatch_s = total("sim.dispatch.", "self_s")
    crc_s = total("store.crc.", "self_s")
    backend_s = total("store.backend.", "self_s")
    file_write_s = sum(
        rows[f"store.backend.file.{m}"]["self_s"]
        for m in ("append_chunk", "put_vertex_chunk")
    )
    file_read_s = sum(
        rows[f"store.backend.file.{m}"]["self_s"]
        for m in ("fetch_any", "get_vertex_chunk")
    )
    file_write_mb = sum(b.bytes_written for b in job.backends) / MB
    file_read_mb = sum(b.bytes_read for b in job.backends) / MB
    partition_s = total("partition.", "self_s")
    scatter, order = rows["core.scatter"], rows["core.order"]
    network = job.cluster.last_network
    timeline = job.cluster.last_fault_timeline
    tracer = job.tracer
    return {
        "partition.partition_s": partition_s,
        "partition.edges_per_s": _rate(total("partition.", "units"), partition_s),
        "sim.events": events,
        "sim.dispatch_self_s": dispatch_s,
        "sim.events_per_s": _rate(events, dispatch_s),
        "sim.service_calls": total("sim.service.", "calls"),
        "sim.service_s": total("sim.service.", "self_s"),
        "net.messages": messages,
        "net.bytes": float(network.total_bytes()),
        "net.send_s": rows["net.send"]["self_s"],
        "net.msgs_per_s": _rate(messages, rows["net.send"]["self_s"]),
        "net.events_per_msg": _rate(events, messages),
        "net.dropped": float(network.messages_dropped),
        "store.crc_calls": total("store.crc.", "calls"),
        "store.crc_s": crc_s,
        "store.crc_mb_per_s": _rate(total("store.crc.", "units") / MB, crc_s),
        "store.backend_calls": total("store.backend.", "calls"),
        "store.backend_s": backend_s,
        "store.chunks_per_s": _rate(total("store.backend.", "calls"), backend_s),
        "store.file_write_mb": file_write_mb,
        "store.file_read_mb": file_read_mb,
        "store.file_write_mb_per_s": _rate(file_write_mb, file_write_s),
        "store.file_read_mb_per_s": _rate(file_read_mb, file_read_s),
        "core.run_self_s": rows["core.run"]["self_s"],
        "core.scatter_calls": scatter["calls"],
        "core.scatter_s": scatter["self_s"],
        # Edges per second of the whole scatter call, kernel included.
        "core.scatter_edges_per_s": _rate(scatter["units"], scatter["total_s"]),
        "core.gather_s": rows["core.gather"]["self_s"],
        "core.apply_calls": rows["core.apply"]["calls"],
        "core.apply_s": rows["core.apply"]["self_s"],
        "core.order_s": order["self_s"],
        "core.order_updates_per_s": _rate(order["units"], order["self_s"]),
        "core.updates": order["units"],
        "algorithms.scatter_s": rows["algorithms.scatter"]["self_s"],
        "algorithms.gather_s": rows["algorithms.gather"]["self_s"],
        "algorithms.apply_s": rows["algorithms.apply"]["self_s"],
        "obs.trace_events": float(len(tracer.events)) if tracer else 0.0,
        "obs.causal_events": (
            float(len(tracer.causal.events)) if tracer else 0.0
        ),
        "obs.analyze_s": rows["obs.analyze"]["self_s"],
        "obs.export_s": rows["obs.export"]["self_s"],
        "obs.export_mb": job.export_bytes / MB,
        "faults.recoveries": float(len(timeline.rounds)) if timeline else 0.0,
        "faults.checkpoints": float(job.result.checkpoints),
        "faults.lost_sim_s": timeline.lost_seconds if timeline else 0.0,
        "faults.restore_sim_s": timeline.restore_seconds if timeline else 0.0,
        "bench.traced_wall_s": wall,
        "bench.job_self_s": rows[ROOT]["self_s"],
        "bench.span_closure": sum(r["self_s"] for r in rows.values()) / wall,
    }
