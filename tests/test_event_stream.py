"""The simulated event stream is pinned, bit for bit.

Host-speed work on ``repro.sim`` / ``repro.net`` must leave every heap
push where it was: same order, same timestamp down to the last ulp.
This test hashes the two places the whole stream passes through —
every ``Simulator.schedule`` call (by the absolute time it lands on)
and every ``Network._deliver`` (by when, which stream and which
sequence number) — over one small PageRank job, fault-free and under
one fault plan per fault kind, which between them drive the drop,
retry, dedup, reorder, corruption, slow-device and recovery paths.

The constants were computed with this very file on the commit *before*
the completion-callback rewrite of PR 20, and the file passes unchanged
on both sides.  The five pins after ``chunk-bitflip`` were added the
same way, before the fault kinds moved into one declared table; each of
those runs ends with values identical to the fault-free run.  A digest
that moves means timestamps or tie-breaks moved: fix the code, do not
re-pin.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algorithms import PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph
from repro.net.topology import GIGE_40_BENCH
from repro.net.transport import Network
from repro.sim.engine import Simulator
from repro.store.device import SSD_BENCH

#: plan -> (``schedule`` calls, SHA-256 of the stream).
PINNED = {
    None: (
        2419, "9433725a074764e726288c4a258b5ecf7a5df241f50e2c5e1cd9a68384ad6b55"),
    "crash:1@iter=1": (
        3024, "269a4ee5ba94c4d12409ef05fa2bed65c64cc9646a72f03307ed9acb4a40f420"),
    "partition:2@iter=1": (
        3176, "f81ba9c6cbcbcfea22ac1075872975cc5d92204ce5a7e3a2416235f82ef69e6b"),
    "msg-reorder:1@iter=1": (
        2954, "5718d830785032e464efe420b004b911366e691835717d0ce9878d8d91b15a06"),
    "msg-dup:2@iter=1": (
        2850, "2781df7544f0b3ee3be4271fcda45399e563ea3a942336c40690b9707ed25c68"),
    "msg-corrupt:0@iter=1": (
        2838, "233f55cc96f8464db21069ef19f0e380de85d74af41bc648cf13029fdf694de1"),
    "chunk-bitflip:1@iter=1": (
        2822, "42d551fb8159121f8a3080248480a2f710c51dbf90d947415a3fc50aaf8bc63f"),
    "crash-restart:0@iter=1": (
        3073, "32e11410d59f557324275fe073d7c33f40070ee2ee79279f7d1e0ecd910dc203"),
    "slow-device:2@iter=1,factor=4,for=0.01": (
        2902, "b6976afb4a533c8b5a6f14dff8a1a7ae01690ba1d1f5f239895deccb4d5cbc6b"),
    "torn-write:1@iter=1": (
        2849, "21c4b3bae8c2b6419edc06157bce2208fe920a233bc8912eb548a66e83e9c2d2"),
    "stale-read:1@iter=2": (
        2848, "9eb9c9bf17d3056e862cda147ab5c7b2796bb5a84ec7930211498f040a10e8c2"),
    "ckpt-corrupt:1@iter=2": (
        2848, "9eb9c9bf17d3056e862cda147ab5c7b2796bb5a84ec7930211498f040a10e8c2"),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, seed=5)


def event_stream(monkeypatch, graph, plan):
    """Run the job with both choke points tapped; (calls, hex digest)."""
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
        checkpointing=plan is not None,
    )
    ChaosCluster(config).run(
        PageRank(iterations=3),
        graph,
        fault_plan=FaultPlan.parse([plan]) if plan else None,
    )
    return calls[0], digest.hexdigest()


@pytest.mark.parametrize("plan", list(PINNED), ids=lambda p: p or "none")
def test_event_stream_is_pinned(monkeypatch, graph, plan):
    assert event_stream(monkeypatch, graph, plan) == PINNED[plan]
