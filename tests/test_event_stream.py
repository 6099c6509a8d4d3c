"""The simulated event stream is pinned, bit for bit.

Host-speed work on ``repro.sim`` / ``repro.net`` must leave every heap
push where it was: same order, same timestamp down to the last ulp.
This test hashes the two places the whole stream passes through —
every push onto the simulator's heap (by the absolute time it lands
on; :data:`PUSHERS` names every module that pushes, and each push must
take the next tie-break of ``Simulator._seq``, so a push that bypasses
the tap fails the run) and every ``Network._deliver`` (by when, which
stream and which sequence number) — over one small PageRank job,
fault-free and under one fault plan per fault kind, which between them
drive the drop, retry, dedup, reorder, corruption, slow-device and
recovery paths.

The pins have been retaken three times, each time for a change that
removed heap pushes and was checked against the old stream:

* when the computation engine stopped watching liveness (its per-read
  watchdog and its steal-reply timeout race retired), every fault pin.
  The old stream with those pushes filtered out was equal to the end
  for each plan that kills no machine, and equal up to the first
  give-up on a fenced peer for ``crash``, ``partition`` and
  ``crash-restart``.  In the same retake two plans that changed no
  event (a ``stale-read`` and a ``ckpt-corrupt`` whose damage no later
  read met) became plans whose damage a restore reads back;
* when a remote message became two heap events (the egress hop's
  ``_after_tx`` push folded into the send, which pushes the arrival
  itself), every pin, now over all heap pushes.  On each of the 15
  plans the ``_deliver`` records were identical to the old stream's,
  in order and count; the multiset of ``(time, callee)`` pushes equals
  the old stream's with its ``_after_tx`` pushes removed; only the
  order of pushes changed, because an arrival is pushed at send time
  instead of at ``egress_done``;
* when the restore became the resumed epoch's first step (the restore
  workers, their timed RPC and the between-epoch retry loop retired),
  the seven pins that roll back.  Each new stream equals the old one
  up to and past its first fence: 1,195 records (830 pushes, 365
  deliveries) for ``crash:1@iter=1``, 1,325 (921, 404) for
  ``partition``, 1,224 (848, 376) for ``crash-restart``, 1,225 (849,
  376) for ``ckpt-corrupt`` and its control, 2,037 (1,401, 636) for
  ``stale-read`` and its control.  The fence is record 1,188, 1,315,
  1,218, 1,218 and 2,030; the streams part 6 to 10 records later,
  where the admission check is now pushed for the zero-delay instant
  after the fence.  The other eight pins did not move.

:func:`test_every_fault_changes_the_stream` holds every fault pin apart
from its control, the same plan with the fault swapped for one that
never fires.  Each run that completes ends with values identical to
the fault-free run.  A digest that moves means timestamps or
tie-breaks moved: fix the code, do not re-pin.
"""

from __future__ import annotations

import hashlib
from heapq import heappush

import pytest

import repro.net.transport
import repro.sim.engine

from repro.algorithms import PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.faults.diagnosis import UnrecoverableJobError
from repro.graph import rmat_graph
from repro.net.topology import GIGE_40_BENCH
from repro.net.transport import Network
from repro.store.device import SSD_BENCH

#: Every module that pushes onto the simulator's heap.
PUSHERS = (repro.sim.engine, repro.net.transport)

#: A fault spec that never fires (the job has 3 iterations): the
#: control that stands in for a plan's first spec.
NEVER_FIRES = "msg-dup:1@iter=99"

#: plan (specs joined by ``;``) -> (heap pushes, SHA-256 of the
#: stream).
PINNED = {
    None: (
        1803, "c017238a6400675618a3202eb4fb1520af75e6fae140a8e857d19445ed9423e8"),
    "crash:1@iter=1": (
        2019, "6860c8e4c91d807433887c1f6b58e7444f5eb1fd6722197b2c8871e9bc0ec9f1"),
    "partition:2@iter=1": (
        2109, "cc38112c89bf73c57cd7563cdde7beb19f25921b966f88cd1da1fcf278f28b2e"),
    "msg-reorder:1@iter=1": (
        1959, "55ba4ce9d1685ebf3f72cc28ed1531436dfca8a1a7c6f0b48f75d37ee253fc69"),
    "msg-dup:2@iter=1": (
        1903, "2cdc01c3cc2182cb86d75403b6a5f43695df75db2d0eba64b5e8cd8b0afd695b"),
    "msg-corrupt:0@iter=1": (
        1897, "0df6000b033c192c028127cccbdf4c982370aafd4ea8b08a62dc46094e7920ce"),
    "chunk-bitflip:1@iter=1": (
        1888, "9b75f6129ad2c539b2b8c05924e80be2b82c05d430b6c25999cf2248a43df936"),
    "crash-restart:0@iter=1": (
        2034, "75aca8dc0ce585bf29b99b0501371e321097391cf02fa211bd8c2d7c40d3708f"),
    "slow-device:2@iter=1,factor=4,for=0.01": (
        1935, "0b2ec8ddb3d24b7123fce1ca4e2d622b9693a4d5b797352dacb1e63b7b2e40cd"),
    "torn-write:1@iter=1": (
        1902, "caec6fa7ca6e8b4472f2fe1516d2d7ebfceff7b77189229013aa6159910c99d9"),
    # Machine 2 serves five vertex reads the version their last write
    # overwrote; after the crash two of them are restore reads, which
    # reject the stale chunk by its generation tag.
    "stale-read:2@iter=1,count=5;crash:1@iter=2": (
        2026, "e3d0b6d7d8a1eb1bb9309e0ada18910b0d647f0277fb4d0ea7b0418eaf0aa309"),
    # With one vertex replica no completing plan reaches the rot: every
    # durable checkpoint replica on machine 1 rots, machine 0 crashes,
    # and the restore refuses the job (pinned up to the raise).
    "ckpt-corrupt:1@iter=1,count=64;crash:0@iter=1": (
        886, "ff381a64c067bed5ce18a2452352e9c95e42e6732abbf98d552569dd11f28489"),
    # Controls.
    NEVER_FIRES: (
        1901, "79243e3a6b543e325f84fba951a0bf680f6eda21ed96982e23608fda3e8c8b2f"),
    f"{NEVER_FIRES};crash:1@iter=2": (
        2018, "d06ab3ec41edb282f1dba196977d2aada725bb042cbc19e3d9d482272f4135df"),
    f"{NEVER_FIRES};crash:0@iter=1": (
        2038, "58873b8686d7a816dd261a94cad13129419d60df8c9d881f1e642cd3517d9967"),
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
    choke points tapped; ``(pushes, hex digest, refused)``, where
    ``refused`` says the run ended in :class:`UnrecoverableJobError`
    (the stream is then the one up to the raise)."""
    digest = hashlib.sha256()
    seen = {}  # id(heap) -> (heap, pushes seen)
    deliver = Network._deliver

    def tapped_push(heap, entry):
        when, seq = entry[0], entry[1]
        count = seen.get(id(heap), (heap, 0))[1] + 1
        seen[id(heap)] = heap, count
        assert seq == count, "a heap push bypassed the tap"
        digest.update(b"s" + when.hex().encode())
        heappush(heap, entry)

    def tapped_deliver(network, endpoint, message, delivered):
        record = (
            network.sim.now.hex(), message.src, message.dst,
            message.service, message.kind, message.seq,
        )
        digest.update(b"d" + repr(record).encode())
        return deliver(network, endpoint, message, delivered)

    for module in PUSHERS:
        monkeypatch.setattr(module, "heappush", tapped_push)
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
        refused = True
    else:
        refused = False
    return sum(count for _, count in seen.values()), digest.hexdigest(), refused


@pytest.mark.parametrize("plan", list(PINNED), ids=lambda p: p or "none")
def test_event_stream_is_pinned(monkeypatch, graph, plan):
    pushes, digest, refused = event_stream(
        monkeypatch, graph, plan.split(";") if plan else []
    )
    assert (pushes, digest) == PINNED[plan]
    assert refused == (plan in REFUSED)


def test_every_fault_changes_the_stream():
    """A fault pin equal to its control would not notice an arm that
    does nothing."""
    faults = [p for p in PINNED if p and not p.startswith(NEVER_FIRES)]
    assert len(faults) == 11
    for plan in faults:
        assert PINNED[plan] != PINNED[control(plan)], plan
