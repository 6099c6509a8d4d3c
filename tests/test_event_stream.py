"""The simulated event stream is pinned, bit for bit.

Host-speed work on ``repro.sim`` / ``repro.net`` must leave every heap
push where it was: same order, same timestamp down to the last ulp.
This test hashes the two places the whole stream passes through —
every ``Simulator.schedule`` call (by the absolute time it lands on)
and every ``Network._deliver`` (by when, which stream and which
sequence number) — over one small PageRank job, fault-free and under
one fault plan per fault kind, which between them drive the drop,
retry, dedup, reorder, corruption, slow-device and recovery paths.

The fault-free constant was computed with this very file on the commit
*before* the simulator's completion-callback rewrite, and it has never
moved.  Every fault pin was retaken once, when the computation engine
stopped watching liveness (its per-read watchdog and its steal-reply
timeout race retired, so their heap pushes left every fault stream).
That retake was checked against the old stream with those pushes
filtered out: equal to the end for each plan that kills no machine,
and equal up to the first give-up on a fenced peer for ``crash``,
``partition`` and ``crash-restart``.  In the same retake two plans that
changed no event (a ``stale-read`` and a ``ckpt-corrupt`` whose damage
no later read met) became plans whose damage a restore reads back;
:func:`test_every_fault_changes_the_stream` holds every fault pin apart
from its control, the same plan with the fault swapped for one that
never fires.  Each run that completes ends with values identical to
the fault-free run.  A digest that moves means timestamps or
tie-breaks moved: fix the code, do not re-pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algorithms import PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.faults.diagnosis import UnrecoverableJobError
from repro.graph import rmat_graph
from repro.net.topology import GIGE_40_BENCH
from repro.net.transport import Network
from repro.sim.engine import Simulator
from repro.store.device import SSD_BENCH

#: A fault spec that never fires (the job has 3 iterations): the
#: control that stands in for a plan's first spec.
NEVER_FIRES = "msg-dup:1@iter=99"

#: plan (specs joined by ``;``) -> (``schedule`` calls, SHA-256 of
#: the stream).
PINNED = {
    None: (
        2419, "9433725a074764e726288c4a258b5ecf7a5df241f50e2c5e1cd9a68384ad6b55"),
    "crash:1@iter=1": (
        2700, "fa4f1e29521d8e1f9563d673ca0aafc2837a74ceaf480d9ce07e25c5a9cf471c"),
    "partition:2@iter=1": (
        2808, "426e48dba579d7424d56e995dcc0e1aeb76e95592ac65ae477aa5e37a181b0f7"),
    "msg-reorder:1@iter=1": (
        2626, "458d60384aa15634bc4611e07a1aaa2d00aee67ee82925b809a3443edbdd22ba"),
    "msg-dup:2@iter=1": (
        2537, "d25f32d9546a2db6270cfdda7965d94983df198e4599ac0f578347f2324796e9"),
    "msg-corrupt:0@iter=1": (
        2527, "d774b8cf76dc8fb1d6f2a3e5eb4324d40d6c08b9ace096d6063e2dabba2b16ef"),
    "chunk-bitflip:1@iter=1": (
        2510, "88c8a2a349f65697159f9497e5be99721b4ebc33ca1df05ade4fbd6c2b4fc62f"),
    "crash-restart:0@iter=1": (
        2719, "a13f4aa314c2eb4cf849f60d95cab0017966f949a68be24647b2050c3bb574f5"),
    "slow-device:2@iter=1,factor=4,for=0.01": (
        2582, "00a23bc429fa4d84aef91bacd0c1a857582f98109c3f8e66b1569011dc56ead6"),
    "torn-write:1@iter=1": (
        2536, "9046daed38aab724b53cef3a0a9213fc72775053bd5d490be5b2e09ad638fbd2"),
    # Machine 2 serves five vertex reads the version their last write
    # overwrote; after the crash two of them are restore reads, which
    # reject the stale chunk by its generation tag.
    "stale-read:2@iter=1,count=5;crash:1@iter=2": (
        2703, "6b0d8977397410f124e53caa79067dc3b283ec2b0fd07f49791bc86f23e0df43"),
    # With one vertex replica no completing plan reaches the rot: every
    # durable checkpoint replica on machine 1 rots, machine 0 crashes,
    # and the restore refuses the job (pinned up to the raise).
    "ckpt-corrupt:1@iter=1,count=64;crash:0@iter=1": (
        1150, "75a4db09377deef4b83115b94b924ea2fc725465ac7f9805c8a5779c3aa16917"),
    # Controls.
    NEVER_FIRES: (
        2535, "2aeddf5b4faf91ff656bf83d8f195b15d751c5158aa072e49cc641b8a5de4c8e"),
    f"{NEVER_FIRES};crash:1@iter=2": (
        2693, "4594dfd78b1a8b1b3f0abbf7a3300d062c50c9cd629bd515fde01363594bdcf5"),
    f"{NEVER_FIRES};crash:0@iter=1": (
        2723, "d35d57c830806a2025fdf552d549ad053d2255011d29748af404ec2e282b252a"),
}

#: Plans the restore refuses (:class:`UnrecoverableJobError`).
REFUSED = {"ckpt-corrupt:1@iter=1,count=64;crash:0@iter=1"}


def control(plan):
    """The plan with its first (fault) spec swapped for :data:`NEVER_FIRES`."""
    return ";".join([NEVER_FIRES, *plan.split(";")[1:]])


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, seed=5)


def event_stream(monkeypatch, graph, specs):
    """Run the job under the fault specs (none: fault-free) with both
    choke points tapped; ``(calls, hex digest, refused)``, where
    ``refused`` says the run ended in :class:`UnrecoverableJobError`
    (the stream is then the one up to the raise)."""
    digest = hashlib.sha256()
    calls = [0]
    schedule, deliver = Simulator.schedule, Network._deliver

    def tapped_schedule(sim, delay, fn, *args):
        calls[0] += 1
        digest.update(b"s" + (sim.now + delay).hex().encode())
        return schedule(sim, delay, fn, *args)

    def tapped_deliver(network, mailbox, message, delivered):
        record = (
            network.sim.now.hex(), message.src, message.dst,
            message.service, message.kind, message.seq,
        )
        digest.update(b"d" + repr(record).encode())
        return deliver(network, mailbox, message, delivered)

    monkeypatch.setattr(Simulator, "schedule", tapped_schedule)
    monkeypatch.setattr(Network, "_deliver", tapped_deliver)
    config = ClusterConfig(
        machines=3,
        chunk_bytes=4 * 1024,
        network=GIGE_40_BENCH,
        device=SSD_BENCH,
        seed=5,
        checkpointing=bool(specs),
    )
    try:
        ChaosCluster(config).run(
            PageRank(iterations=3),
            graph,
            fault_plan=FaultPlan.parse(specs) if specs else None,
        )
    except UnrecoverableJobError:
        return calls[0], digest.hexdigest(), True
    return calls[0], digest.hexdigest(), False


@pytest.mark.parametrize("plan", list(PINNED), ids=lambda p: p or "none")
def test_event_stream_is_pinned(monkeypatch, graph, plan):
    calls, digest, refused = event_stream(
        monkeypatch, graph, plan.split(";") if plan else []
    )
    assert (calls, digest) == PINNED[plan]
    assert refused == (plan in REFUSED)


def test_every_fault_changes_the_stream():
    """A fault pin equal to its control would not notice an arm that
    does nothing."""
    faults = [p for p in PINNED if p and not p.startswith(NEVER_FIRES)]
    assert len(faults) == 11
    for plan in faults:
        assert PINNED[plan] != PINNED[control(plan)], plan
