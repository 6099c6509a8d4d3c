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

The pins have been retaken four times, each time for a change that
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
  after the fence.  The other eight pins did not move;
* when the barrier's stall watch retired (the lease detector is the
  only failure signal), the 14 pins with a fault plan: the supervisor
  armed the watch, which pushed one ``_check_stall`` per barrier
  generation (4 to 8 a run) and never suspected a machine.  A callback
  that only reads state and suspects no one changes no later event,
  and removing a push keeps the relative order of all the others: on
  each plan the new stream equals the old one with its ``_check_stall``
  pushes filtered out, record for record and in order, every
  ``_deliver`` record included.  The fault-free pin did not move.

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
        2011, "9dbe8378bd95168a43fb527ea1063fb6870f7e5e34694965820007410608fcc9"),
    "partition:2@iter=1": (
        2101, "20292c24a4396b08c8729493c051bbdd2256a92e6d9fbed1b7dabe3da2a21225"),
    "msg-reorder:1@iter=1": (
        1952, "7358099b893c8bc3d2dd7cf183b793c9383eb4db76809c9a7597967878dc8b12"),
    "msg-dup:2@iter=1": (
        1896, "640fe33bb34720f04c1900067946c926d72fdb07e9ab0d1bf511a2930356186e"),
    "msg-corrupt:0@iter=1": (
        1890, "d4904b767a3a68108829953366a1abe6311abad5d848bb95d2a16bc4e9225eb2"),
    "chunk-bitflip:1@iter=1": (
        1881, "94c07045bfc76f5a99c07b47d4324d4341673bcf28881e4752d2ffaa2ed1ce00"),
    "crash-restart:0@iter=1": (
        2026, "959ff9058a2e204d188e5c8c377214014554232cf5a5ee7d246c0feab2befe15"),
    "slow-device:2@iter=1,factor=4,for=0.01": (
        1928, "da92b6ce43a793b9f2ed8e41044104c0d584c7a0dfe2d5fae5d2c40d61eaf573"),
    "torn-write:1@iter=1": (
        1895, "b922751afd17f4c2b5ece423f3b05428aeba800e267c47981e2de0400d9e39b8"),
    # Machine 2 serves five vertex reads the version their last write
    # overwrote; after the crash two of them are restore reads, which
    # reject the stale chunk by its generation tag.
    "stale-read:2@iter=1,count=5;crash:1@iter=2": (
        2018, "965ac19ba2ad3002d76a89ea71522088665e46d511357edaf5dc1de0a3a9c275"),
    # With one vertex replica no completing plan reaches the rot: every
    # durable checkpoint replica on machine 1 rots, machine 0 crashes,
    # and the restore refuses the job (pinned up to the raise).
    "ckpt-corrupt:1@iter=1,count=64;crash:0@iter=1": (
        882, "ec0ba0b216fee9951c1cac8c272fd3d9b5eef6e609a65552da8fdfb960e1e502"),
    # Controls.
    NEVER_FIRES: (
        1894, "84395015408de1bcc39e6d445c6d028579b815cbb305fc1abfd16ff760ccfa62"),
    f"{NEVER_FIRES};crash:1@iter=2": (
        2010, "26ba19a6e0d9de21a986ce561781d9b1a5cd9f4f18accc276410d92c7a1e1a54"),
    f"{NEVER_FIRES};crash:0@iter=1": (
        2030, "5af2708d9b6292e198f3bc8fba6ea30ea9d0b07f210ea4abbff09e0a1a37878c"),
}

#: Plans the restore refuses (:class:`UnrecoverableJobError`).
REFUSED = {"ckpt-corrupt:1@iter=1,count=64;crash:0@iter=1"}


def control(plan):
    """The plan with its first (fault) spec swapped for :data:`NEVER_FIRES`."""
    return ";".join([NEVER_FIRES, *plan.split(";")[1:]])


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(9, seed=5)


def job_config(specs) -> ClusterConfig:
    """The pinned job's cluster; checkpointing on under a fault plan."""
    return ClusterConfig(
        machines=3,
        chunk_bytes=4 * 1024,
        network=GIGE_40_BENCH,
        device=SSD_BENCH,
        seed=5,
        checkpointing=bool(specs),
    )


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
    try:
        ChaosCluster(job_config(specs)).run(
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
