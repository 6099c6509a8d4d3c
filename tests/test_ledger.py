"""Every simulated second of an engine is charged once: the ledger closes.

Each computation engine charges every wait of its main process to one
``Breakdown`` category, counted from where its previous charge ended;
the supervisor charges ``rollback`` at the fence that ends a failed
epoch and starts the next epoch's engines at that fence.  So on every machine
the ten categories, summed over epochs, are the job's runtime.  This
holds on the job ``tests/test_event_stream.py`` pins, fault-free and
under every plan of its that completes, and under a second crash that
strikes a restore.  Two categories are cross-checked against the
figures the runtime reports on its own: ``preprocess`` against
``preprocessing_seconds`` and ``restore`` against the fault timeline's
restore windows.

Traced, every charged wait is one engine span carrying its category, so
the trace is a second copy of the ledger.  Replayed by the span rule
(:func:`_replay`), each engine track gives back ``JobResult.breakdowns``
bit for bit, on those plans and across a lattice of clusters,
algorithms and time-placed crashes; and critpath's ``barrier`` and
``steal`` are the ledger's categories plus the two refinements DESIGN.md
§5 names.
"""

from __future__ import annotations

import functools

import pytest

from repro.algorithms import SSSP, WCC, PageRank
from repro.core.config import ClusterConfig
from repro.core.metrics import LEDGER_CATEGORIES, Breakdown
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected
from repro.obs import Tracer, analyze_tracer
from repro.obs.tracer import TID_ENGINE, TID_JOB
from tests.test_event_stream import PINNED, REFUSED, job_config

#: After ``crash:1@iter=2`` the pinned job's engines restore over t =
#: (0.0175, 0.0175099) s; machine 2 crashes in its restore barrier.
STRUCK_RESTORE = "crash:1@iter=2;crash:2@t=0.017505"

PLANS = [plan for plan in PINNED if plan not in REFUSED] + [STRUCK_RESTORE]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, seed=5)


def _run(graph, plan):
    specs = plan.split(";") if plan else []
    cluster = ChaosCluster(job_config(specs))
    result = cluster.run(
        PageRank(iterations=3), graph,
        fault_plan=FaultPlan.parse(specs) if specs else None,
    )
    return result, cluster.last_fault_timeline if specs else None


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: p or "none")
def test_categories_sum_to_the_runtime_on_every_machine(graph, plan):
    result, timeline = _run(graph, plan)
    assert len(result.breakdowns) == result.machines
    for breakdown in result.breakdowns:
        seconds = breakdown.seconds()
        assert list(seconds) == list(LEDGER_CATEGORIES)
        assert sum(seconds.values()) == pytest.approx(result.runtime, abs=1e-9)
        assert breakdown.preprocess == pytest.approx(
            result.preprocessing_seconds, abs=1e-12
        )
    if timeline is None:
        rounds, faults, restore = [], [], 0.0
    else:
        rounds, faults = timeline.rounds, timeline.faults
        restore = timeline.restore_seconds
    struck = any(
        r.detected_at <= f.fired_at <= r.resumed_at for f in faults for r in rounds
    )
    assert struck == (plan == STRUCK_RESTORE)
    if struck:
        # The struck machine's restore step ends where it died: the rest
        # of the window is its rollback.
        assert min(b.restore for b in result.breakdowns) < restore
        return
    for breakdown in result.breakdowns:
        assert breakdown.restore == pytest.approx(restore, abs=1e-12)
        assert (breakdown.rollback > 0) == bool(rounds)



# ---------------------------------------------------------------------------
# The trace replays the ledger
# ---------------------------------------------------------------------------

#: A crash that fences a steal pass after one of its replies was charged
#: (the killed proposal's or stolen partition's span ends fenced).
FENCES_A_STEAL_PASS = "crash:1@t=0.003"
CRASHES = [FENCES_A_STEAL_PASS, "crash:1@t=0.002", "crash:2@t=0.005",
           "crash:0@t=0.006", "crash:3@t=0.009"]


def _cluster(machines=4, **fields) -> ClusterConfig:
    return ClusterConfig(machines=machines, chunk_bytes=4 * 1024, seed=5, **fields)


#: cell id -> (algorithm, undirected weighted input, cluster, fault specs).
CELLS = {
    **{f"plan:{plan or 'none'}": (
        lambda: PageRank(iterations=3), False,
        job_config(plan.split(";") if plan else []),
        plan.split(";") if plan else []) for plan in PLANS},
    **{f"m{m}-k{k}-ckpt{int(ckpt)}-a{alpha}": (
        lambda: PageRank(iterations=3), False,
        _cluster(m, partitions_per_machine=k, checkpointing=ckpt,
                 steal_alpha=alpha), [])
       for m in (1, 2, 4, 8) for k in (1, 2) for ckpt in (False, True)
       for alpha in (1.0, float("inf"))},
    "wcc": (WCC, True, _cluster(), []),
    "sssp": (lambda: SSSP(root=0), True, _cluster(), []),
    **{spec: (lambda: PageRank(iterations=3), False,
              _cluster(checkpointing=True), [spec]) for spec in CRASHES},
}
FAULT_FREE = [cell for cell, (*_, specs) in CELLS.items() if not specs]


@functools.lru_cache(maxsize=None)
def _input(undirected: bool):
    if undirected:
        return to_undirected(rmat_graph(9, seed=5, weighted=True))
    return rmat_graph(9, seed=5)


@pytest.fixture(scope="module")
def traced():
    """``cell -> (tracer, result, fault timeline)``, each cell run once."""
    runs = {}

    def run(cell):
        if cell not in runs:
            algorithm, undirected, config, specs = CELLS[cell]
            tracer = Tracer(sample_interval=None)
            cluster = ChaosCluster(config, tracer=tracer)
            result = cluster.run(
                algorithm(), _input(undirected),
                fault_plan=FaultPlan.parse(specs) if specs else None,
            )
            runs[cell] = tracer, result, cluster.last_fault_timeline
        return runs[cell]

    return run


def _rows(tracer):
    trace = tracer.log.columns().trace
    return zip(trace.ph.tolist(), trace.pid.tolist(), trace.tid.tolist(),
               trace.name.tolist(), trace.ts.tolist(), trace.cat.tolist(),
               trace.args.tolist())


def _replay(tracer, machines: int):
    """Every machine's ledger rebuilt from the trace by the span rule:
    an engine span that ends with a ledger category (not cut short by
    the fence) is charged from the previous charge to its end; at each
    rollback fence (the job track's ``lost`` row is recorded there, and
    the matching ``restore`` window starts at its time) every machine
    charges ``rollback`` up to the fence, and its next epoch's ledger
    starts there; epochs merge as ``JobResult`` merges them.

    The charged spans tile each machine's time: each opens where that
    machine's previous charge ended (asserted here), so a wait whose
    span lost its category cannot hide in the next charged span.  The
    one span that opens later is a resumed epoch's first: its engine
    starts after the fence, and the admission wait is its charge's."""
    rows = list(_rows(tracer))
    fences = iter([ts for ph, pid, _tid, name, ts, _cat, _args in rows
                   if pid == machines and ph == "X" and name == "restore"])
    epochs = [[Breakdown()] for _ in range(machines)]
    since = [0.0] * machines
    opened = [[] for _ in range(machines)]  # open engine spans' starts
    resumed = [False] * machines  # fenced; the next epoch not yet begun
    for ph, pid, tid, name, ts, cat, args in rows:
        if pid == machines and tid == TID_JOB and ph == "X" and name == "lost":
            fence = next(fences)
            for machine in range(machines):
                epochs[machine][-1].rollback += fence - since[machine]
                epochs[machine].append(Breakdown())
                since[machine] = fence
                resumed[machine] = True
        elif tid == TID_ENGINE and ph == "B":
            if resumed[pid]:
                assert ts >= since[pid]
                ts, resumed[pid] = since[pid], False
            opened[pid].append((name, ts))
        elif tid == TID_ENGINE and ph == "E":
            name, start = opened[pid].pop()
            if cat in LEDGER_CATEGORIES and not (args or {}).get("fenced"):
                assert start == since[pid], (
                    f"machine {pid}: charged span {name!r} opens at {start}, "
                    f"its previous charge ended at {since[pid]}"
                )
                ledger = epochs[pid][-1]
                setattr(ledger, cat, getattr(ledger, cat) + (ts - since[pid]))
                since[pid] = ts
    return [functools.reduce(Breakdown.merged_with, e) for e in epochs]


def _fenced_after_a_charged_reply(tracer) -> bool:
    """Some engine's span ends fenced after a steal reply of the same
    phase was charged."""
    charged = set()
    for ph, pid, tid, name, _ts, _cat, args in _rows(tracer):
        if tid != TID_ENGINE:
            continue
        fenced = bool((args or {}).get("fenced"))
        if ph == "B" and name in ("scatter", "gather"):
            charged.discard(pid)
        elif ph == "E" and fenced and pid in charged:
            return True
        elif ph == "E" and name == "steal_propose":
            charged.add(pid)
    return False


@pytest.mark.parametrize("cell", list(CELLS))
def test_the_trace_replays_the_ledger(traced, cell):
    tracer, result, timeline = traced(cell)
    assert _replay(tracer, result.machines) == result.breakdowns
    if cell in CRASHES:
        assert timeline.rounds, "the crash never struck"
    if cell == FENCES_A_STEAL_PASS:
        assert _fenced_after_a_charged_reply(tracer)


def _span_seconds(tracer, machine: int, wanted) -> float:
    """Total length of ``machine``'s engine spans for which
    ``wanted(name, cat, stealer)`` holds; ``stealer`` says the span runs
    inside a stolen partition."""
    total, stack = 0.0, []
    for ph, pid, tid, name, ts, cat, args in _rows(tracer):
        if pid != machine or tid != TID_ENGINE:
            continue
        if ph == "B":
            role = (args or {}).get("role")
            stealer = role == "stealer" if role else bool(stack) and stack[-1][2]
            stack.append((name, ts, stealer))
        elif ph == "E":
            name, start, stealer = stack.pop()
            if wanted(name, cat, stealer):
                total += ts - start
    return total


@pytest.mark.parametrize("cell", FAULT_FREE)
def test_critpath_barrier_and_steal_are_ledger_categories(traced, cell):
    """critpath's ``barrier`` is the ledger's plus the pre-processing
    barrier; its ``steal`` is ``merge_wait + steal_propose`` plus a
    stealer's ``copy`` (vertex load, accumulator shipping)."""
    tracer, result, _ = traced(cell)
    report = analyze_tracer(tracer)
    for machine, ledger in enumerate(result.breakdowns):
        seconds = report.per_machine[machine].seconds
        preprocess_barrier = _span_seconds(
            tracer, machine, lambda name, _cat, _s: name == "preprocess.barrier")
        stealer_copy = _span_seconds(
            tracer, machine, lambda _name, cat, stealer: stealer and cat == "copy")
        assert seconds["barrier"] == pytest.approx(
            ledger.barrier + preprocess_barrier, abs=1e-9)
        assert seconds["steal"] == pytest.approx(
            ledger.merge_wait + ledger.steal_propose + stealer_copy, abs=1e-9)
