"""The trace file is pinned, byte for byte.

``dumps_chrome_trace`` of four small fixed-seed jobs is hashed; the
constants were computed with this very file on the commit *before* the
per-event dict stores of ``repro.obs`` were replaced by the columnar
event log (PR 22), and the file passes unchanged on both sides.  A
digest that moves means the serializer, an event's fields or the
recording order moved: fix the code, do not re-pin.

The two ``pr_crash`` pins were retaken three times.  First when the
computation engine stopped watching liveness: an engine whose read
targets the crashed machine no longer gives the read up, so in the
failed epoch its ``stream`` span stays open until the rollback fence
(no ``gp_master`` time is charged for it), and it sends one steal
proposal and loses one message fewer.  Then when the fence began to
close the killed epoch's spans: the nine spans the failed epoch left
open (``trace-report`` warned of 9 unbalanced span events) now end at
the fence with ``{"fenced": true}``, which adds nine ``E`` rows and
their time to the report's categories and span table.  Last when the
restore became the resumed epoch's first step: the trace equals the
old one for its first 3,311 events, up to the admission instant
(t = 22.5 ms); then the six ``process.start`` / ``process.finish``
instants of the three restore workers and their endpoints go, each
engine track gains a ``restore`` and a ``restore.barrier`` span, the
heartbeats that now run during the restore reads add three
``heartbeat`` messages, and the report lists the ``e1/restore``
barrier chain.  Simulated runtime, iterations and values are unchanged
all three times.

The four jobs between them cover the sampler's counter rows, the
recovery path's job-track spans and checkpoint marks, a run without
counters, and a run with the host profiler on (whose wall-clock
``hostMetrics`` are cut out of the text before hashing: everything
around them must equal the unprofiled trace).

``repro trace-report``'s text on the three deterministic jobs is pinned
the same way (computed on the commit before the report's text and JSON
builders became one document), and every resource track the text lists
must be a row of the JSON document's ``summary.tracks``.  The three
report pins were retaken once, when the top-span rows became keyed by
track kind and name: each row gained a track column, and with that
column cut out the ``pr`` and ``wcc_no_counters`` texts equal the old
ones; ``pr_crash``'s ``restore`` row, which summed the job track's
restore window with the engines' restore steps (n=4, 0.010711 s), is
now the window alone (``job restore`` n=1, 0.010254 s).  The
``pr_crash`` report pin was retaken once more, when the report's
Figure 17 category totals began to leave out the waits the rollback
fence cut short (their ``E`` row carries ``{"fenced": true}``), as the
engines' ledgers do: only the category rows moved (``gp_master``
0.016649 s to 0.011159 s, ``copy`` 0.012759 s to 0.007168 s, and every
share); the trace itself did not.

All seven pins were retaken once more when every charged engine wait
became one span carrying its ledger category.  The ``steal_pass``
``B``/``E`` pairs went; each ``steal.propose`` instant became a
``steal_propose`` ``B``/``E`` pair with the same args, ending where its
reply is charged; the ``preprocess`` / ``restore`` spans and their
``.barrier`` spans gained their ledger category as ``cat``; and the job
track gained one ``job.ledger`` instant.  With those rewrites undone,
each of the four traces equals the old one event for event.  In the
reports the breakdown block became the ledger's ten rows (Figure 17's
six unchanged), the top-span row ``steal_pass`` became ``steal_propose``
with the same total, and the instant table lists ``job.ledger`` in
place of ``steal.propose``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.algorithms import WCC, PageRank
from repro.cli import main
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected
from repro.obs import HostProfiler, Tracer, dumps_chrome_trace

#: job -> (characters, SHA-256 of the UTF-8 text).
PINNED = {
    "pr": (
        749753, "b955abe26724f8b47bc221e629150e91bac935a6c65e35b4c21f4a53eb40c475"),
    "pr_crash": (
        594836, "a03a43d7334d44c8fbd09b34030c4e2387f2819bbd0911d70b01a4c3628110dd"),
    "wcc_no_counters": (
        812958, "4ef30b7614621bfa81f0b2717c6fc6532209906cd761cac9451a4b96a35319f6"),
    "pr_host_stripped": (
        749753, "b955abe26724f8b47bc221e629150e91bac935a6c65e35b4c21f4a53eb40c475"),
}

#: job -> (characters, SHA-256) of ``repro trace-report`` on its trace.
REPORT_PINNED = {
    "pr": (
        5950, "9f5e9afcaec2e6e3ed819ab6f1590389074408191e0cdd1d19b01e80eb436cb2"),
    "pr_crash": (
        5963, "580a05ad3d32463423f8fea92907f0f22e429a372da66b72fb1c79f32c38343a"),
    "wcc_no_counters": (
        3864, "c68391194d52306b1b50287d1f8513b52408e4b356c26bee594a2f3ef3e2f07e"),
}


def _trace_text(job: str) -> str:
    graph = rmat_graph(8, seed=5)
    config = dict(machines=4, chunk_bytes=4 * 1024, seed=5)
    algorithm, plan, host = PageRank(iterations=3), None, None
    tracer = Tracer()
    if job == "pr_crash":
        config.update(machines=3, checkpointing=True)
        plan = FaultPlan.parse(["crash:1@iter=2"])
    elif job == "wcc_no_counters":
        graph, algorithm = to_undirected(graph), WCC()
        tracer = Tracer(sample_interval=None)
    elif job == "pr_host_stripped":
        host = HostProfiler()
    ChaosCluster(ClusterConfig(**config), tracer=tracer, host=host).run(
        algorithm, graph, fault_plan=plan
    )
    if host is None:
        return dumps_chrome_trace(tracer)
    text = dumps_chrome_trace(
        tracer, host_metrics=host.finalize().to_dict()
    )
    start = text.index(',"hostMetrics":')
    return text[:start] + text[text.index(',"traceEvents":[', start):]


@pytest.mark.parametrize("job", list(PINNED))
def test_trace_text_is_pinned(job):
    text = _trace_text(job)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(text), digest) == PINNED[job]


def test_host_profiler_leaves_the_trace_untouched():
    assert PINNED["pr_host_stripped"] == PINNED["pr"]


def _report(job: str, tmp_path, capsys, *flags) -> str:
    path = tmp_path / f"{job}.json"
    path.write_text(_trace_text(job))
    capsys.readouterr()
    assert main(["trace-report", str(path), *flags]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("job", list(REPORT_PINNED))
def test_trace_report_text_is_pinned(job, tmp_path, capsys):
    text = _report(job, tmp_path, capsys)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(text), digest) == REPORT_PINNED[job]


@pytest.mark.parametrize("job", list(REPORT_PINNED))
def test_every_listed_track_is_in_the_json(job, tmp_path, capsys):
    text = _report(job, tmp_path, capsys)
    listed, section = set(), False
    for line in text.splitlines():
        if line.startswith("per-") and line.endswith("utilization:"):
            section = True
        elif not line.strip():
            section = False
        elif section:
            process, thread = line.split()[:2]
            listed.add((process, thread))
    assert listed
    doc = json.loads(_report(job, tmp_path, capsys, "--format", "json"))
    rows = {(t["process"], t["thread"]) for t in doc["summary"]["tracks"]}
    assert listed <= rows, sorted(listed - rows)


if __name__ == "__main__":  # the numbers behind the pins
    for name in PINNED:
        body = _trace_text(name)
        print(name, len(body), hashlib.sha256(body.encode()).hexdigest())
