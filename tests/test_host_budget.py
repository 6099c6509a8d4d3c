"""The gating host row: Python calls per unit of simulated work.

Wall-clock seconds on a shared 2-vCPU box are too noisy to gate a PR;
the number of Python-level function calls a job makes is exact.  Each
twin below is one of the six ``benchmarks/perf`` regimes at RMAT-9/10
(the traced one with its attribution and trace export, as the benchmark
runs it), run once under ``sys.setprofile``; the test counts ``call``
events whose code lives under ``src/repro`` — C builtins, the standard
library and generated ``<string>`` code (dataclass ``__init__``) are not
counted, and neither are list / dict / set comprehensions, which stopped
being calls in Python 3.12 — and divides by three exact denominators
taken from the same run: heap pushes (every push onto a simulator's
heap, wherever it is made, read off the simulator's ``_seq`` tie-break
counter at the end), ``Network.send`` calls (``net.messages``) and
edges streamed.

A ratio above its pin fails: some per-event, per-message or per-edge
path grew a call.  More than 3 % under only warns — lower the pin in
the PR that earned it, so the budget ratchets down and never up.
"""

from __future__ import annotations

import gc
import os
import sys
import warnings
from typing import Callable, Dict, NamedTuple, Optional

import pytest

import repro
from repro.algorithms import SSSP, WCC, PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected
from repro.net.topology import GIGE_40_BENCH
from repro.net.transport import Network
from repro.obs import critpath, export
from repro.obs.host import HostProfiler
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.store import FileChunkStore
from repro.store.device import SSD_BENCH

KB = 1024
SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
INLINED_IN_312 = {"<listcomp>", "<dictcomp>", "<setcomp>"}
BENCH_HARDWARE = {"network": GIGE_40_BENCH, "device": SSD_BENCH}


def _sssp() -> SSSP:
    algorithm = SSSP(root=0)
    algorithm.max_iterations = 12
    return algorithm


class Twin(NamedTuple):
    """One ``benchmarks/perf/workloads.py`` regime with the graph shrunk
    and nothing else changed."""

    algorithm: Callable[[], object]
    scale: int
    config: Dict[str, object]
    undirected: bool = False
    weighted: bool = False
    file_backend: bool = False
    observers: bool = False
    fault: Optional[str] = None


TWINS = {
    "pr_kernel": Twin(
        lambda: PageRank(iterations=3), 10,
        {"machines": 4, "chunk_bytes": 64 * KB}),
    "pr_overhead": Twin(
        lambda: PageRank(iterations=3), 10,
        {"machines": 8, "chunk_bytes": 4 * KB, "batch_factor": 8,
         "partitions_per_machine": 1, **BENCH_HARDWARE}),
    "wcc_minfold": Twin(
        WCC, 10, {"machines": 4, "chunk_bytes": 64 * KB}, undirected=True),
    "sssp_file_ckpt": Twin(
        _sssp, 9,
        {"machines": 4, "chunk_bytes": 64 * KB, "checkpointing": True},
        undirected=True, weighted=True, file_backend=True),
    "pr_traced": Twin(
        lambda: PageRank(iterations=3), 9,
        {"machines": 4, "chunk_bytes": 16 * KB}, observers=True),
    "pr_crash_recover": Twin(
        lambda: PageRank(iterations=5), 10,
        {"machines": 3, "chunk_bytes": 4 * KB, "batch_factor": 8,
         "checkpointing": True, **BENCH_HARDWARE},
        fault="crash:1@iter=2"),
}

#: twin -> calls per (heap push, message, edge streamed): the last
#: measurement (Python 3.11) plus 0.5 %, because CI's 3.10 and 3.12
#: could not be run where these were pinned.  One more call per
#: delivered message is +3.4 % (``pr_traced``) to +5.9 % (``wcc_minfold``):
#: red on every twin.
#: ``pr_traced`` counts the whole job — run, attribution, trace export —
#: since PR 22; on that twin the parent (PR 21) made 99,954 calls, 81.66
#: per message (run alone: 87,106 / 71.17).
#: ``pr_crash_recover``'s per-event pin rose once, 8.207 -> 8.563, when
#: the compute engine stopped watching liveness: 806 read-watch and
#: steal-race timer events of ~5.4 calls each left the denominator, and
#: total calls fell 56,898 -> 52,484 (-7.8 %).
#: Every per-event pin rose again when a remote message became two heap
#: events: each message's egress-done push (one call) left the
#: denominator, which now counts every heap push, not only
#: ``Simulator.schedule`` calls (``pr_overhead`` 14,344 -> 10,080).
#: Total calls fell 13-22 % (``pr_overhead`` 104,753 -> 82,013,
#: ``pr_crash_recover`` 52,484 -> 44,695), and the per-message and
#: per-edge pins with them.
#: ``pr_traced``'s pins fell when the host profiler moved outside the
#: engines: its per-send ``msg_copy`` start/stop pair and the engines'
#: guarded start/stop calls left, one timed wrapper call per kernel
#: came in, and total calls fell 35,071 -> 32,242 (-8.1 %).
#: Every pin fell again when stored edge chunks came grouped by
#: destination partition: scatter bins without a sort, gather stops
#: converting ids per chunk, and the memory backend is no longer timed
#: under a host profiler (``pr_traced`` 32,242 -> 31,620, -1.9 %).
BUDGET = {
    "pr_kernel": (8.629, 17.243, 0.433),  # 21,137 calls
    "pr_overhead": (8.148, 17.313, 1.671),  # 81,722 calls
    "wcc_minfold": (8.529, 16.913, 0.284),  # 29,652 calls
    "sssp_file_ckpt": (8.862, 17.06, 0.693),  # 78,591 calls
    "pr_traced": (12.945, 25.963, 1.294),  # 31,620 calls
    "pr_crash_recover": (9.504, 20.313, 0.536),  # 43,981 calls
}


def _run_twin(name: str, workdir) -> int:
    """Run the twin's job once; edges streamed."""
    twin = TWINS[name]
    graph = rmat_graph(twin.scale, seed=5, weighted=twin.weighted)
    if twin.undirected:
        graph = to_undirected(graph)
    backend = None
    if twin.file_backend:
        backend = lambda m: FileChunkStore(str(workdir / f"m{m}"))  # noqa: E731
    cluster = ChaosCluster(
        ClusterConfig(seed=1, **twin.config),
        backend_factory=backend,
        tracer=Tracer() if twin.observers else None,
        host=HostProfiler() if twin.observers else None,
    )
    result = cluster.run(
        twin.algorithm(),
        graph,
        fault_plan=FaultPlan.parse([twin.fault]) if twin.fault else None,
    )
    if twin.observers:
        # The benchmark's job does not stop at the run: the observers'
        # budget covers reading the recording back, as
        # ``benchmarks/perf/workloads.py::run_job`` does.
        critpath.analyze_tracer(cluster.tracer)
        workdir.mkdir(parents=True, exist_ok=True)
        export.write_chrome_trace(
            cluster.tracer,
            str(workdir / "trace.json"),
            host_metrics=cluster.host.finalize().to_dict(),
        )
    return sum(s.edges_streamed for s in result.iteration_stats)


def measure(name: str, tmp_path):
    """(calls under ``src/repro``, heap pushes, messages, edges) of one
    twin; a first, uncounted run pays for lazy imports."""
    _run_twin(name, tmp_path / "warm")
    send = Network.send.__code__
    counts = {"calls": 0, send: 0}
    sims = []
    init = Simulator.__init__

    def recording_init(sim):  # not under src/repro: not counted
        init(sim)
        sims.append(sim)

    def on_event(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code in counts:
            counts[code] += 1
        if code.co_filename.startswith(SRC) and code.co_name not in INLINED_IN_312:
            counts["calls"] += 1

    # Garbage left by an earlier job (a traced twin's sampler generator)
    # is finalized now, not by a collection inside the counted job.
    gc.collect()
    Simulator.__init__ = recording_init
    sys.setprofile(on_event)
    try:
        edges = _run_twin(name, tmp_path / "counted")
    finally:
        sys.setprofile(None)
        Simulator.__init__ = init
    pushes = sum(sim._seq for sim in sims)
    return counts["calls"], pushes, counts[send], edges


@pytest.mark.parametrize("name", list(TWINS))
def test_calls_per_unit_of_work_stay_in_budget(name, tmp_path):
    calls, *work = measure(name, tmp_path)
    units = ("heap push", "message", "edge streamed")
    for unit, amount, pin in zip(units, work, BUDGET[name]):
        ratio = calls / amount
        assert ratio <= pin, (
            f"{name}: {ratio:.3f} Python calls per {unit} ({calls:,} / "
            f"{amount:,}), budget {pin}"
        )
        if ratio < 0.97 * pin:
            warnings.warn(
                f"{name}: {ratio:.3f} calls per {unit} is more than 3 % "
                f"under its pin {pin} — lower the pin"
            )


@pytest.mark.parametrize("name", ["pr_kernel", "sssp_file_ckpt"])
def test_job_without_observers_never_enters_obs(name, tmp_path):
    """``tracer=None, host=None`` is not a cheap observer, it is none:
    once imports are paid for, a fault-free job makes no call into
    ``repro/obs/`` — every recording site is guarded at the site."""
    _run_twin(name, tmp_path / "warm")
    obs = SRC + "obs" + os.sep
    entered = []

    def on_event(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(obs):
            entered.append(
                f"{frame.f_code.co_name} <- {frame.f_back.f_code.co_name}"
            )

    # An earlier traced job's ``ResourceSampler._run`` generator, if the
    # cyclic collector finalized it inside the counted job, would enter
    # ``repro/obs/`` on that job's behalf.
    gc.collect()
    sys.setprofile(on_event)
    try:
        _run_twin(name, tmp_path / "counted")
    finally:
        sys.setprofile(None)
    assert entered == []


if __name__ == "__main__":  # the numbers behind the pins
    import pathlib
    import tempfile

    for twin in sys.argv[1:] or TWINS:
        with tempfile.TemporaryDirectory() as scratch:
            total, *rest = measure(twin, pathlib.Path(scratch))
        print(twin, total, *rest, *(f"{total / r:.3f}" for r in rest))
