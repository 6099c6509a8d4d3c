"""The declared message vocabulary holds in both directions.

``repro.net.transport.MESSAGE_KINDS`` declares, per service, the kinds
it handles.  Each of the four services registers exactly one handler
per declared kind, and delivery rejects any other kind on first
arrival, with a :class:`SimulationError` naming the machine, the
service and the kind.  Conversely every declared kind is delivered
to its service and handled there in one of two small traced runs, and
``trace conform`` over those two runs observes every declared kind:

========================  ============================================
run                       kinds it delivers that the other run does not
========================  ============================================
``directory``             ``accum`` (compute); ``directory_lookup``
                          (directory) and ``directory_reply`` (compute)
``faults``                ``read_retry`` (storage, after an in-flight
                          corrupt ``read_reply``); ``heartbeat``
                          (membership)
========================  ============================================

Both runs deliver every other compute and storage kind.
"""

from __future__ import annotations

import collections
import inspect

import pytest

from repro.algorithms import PageRank
from repro.analysis.protocol import conform
from repro.core.compute import ComputationEngine
from repro.core.runtime import run_algorithm
from repro.faults import FailureDetector, FaultPlan
from repro.graph import rmat_graph
from repro.net.transport import (
    COMPUTE_SERVICE,
    DIRECTORY_SERVICE,
    MEMBERSHIP_SERVICE,
    MESSAGE_KINDS,
    STORAGE_SERVICE,
    Network,
)
from repro.obs import Tracer, chrome_trace_dict
from repro.obs.causal import causal_events_from_trace
from repro.sim.engine import SimulationError
from repro.store.engine import StorageEngine
from repro.store.placement import CentralizedDirectory

from tests.conftest import fast_config

#: The class that registers each service's handlers.
ROLES = {
    COMPUTE_SERVICE: ComputationEngine,
    STORAGE_SERVICE: StorageEngine,
    DIRECTORY_SERVICE: CentralizedDirectory,
    MEMBERSHIP_SERVICE: FailureDetector,
}


def _run(name, tracer=None):
    """One of the two coverage runs (PageRank on RMAT-8)."""
    graph = rmat_graph(8, seed=5)
    if name == "directory":
        # The Figure 15 baseline placement, with stealing always on.
        config = fast_config(
            2, placement="centralized", steal_alpha=float("inf")
        )
        return run_algorithm(PageRank(iterations=2), graph, config,
                             tracer=tracer)
    # Checkpoints on two replicas; one corrupt read reply, a rotted
    # checkpoint replica, and the crash whose recovery restores it.
    config = fast_config(3, checkpointing=True, vertex_replicas=2)
    plan = FaultPlan.parse([
        "msg-corrupt:1@iter=1,count=2",
        "ckpt-corrupt:1@iter=2,count=64",
        "crash:0@iter=2",
    ])
    return run_algorithm(PageRank(iterations=3), graph, config,
                         tracer=tracer, fault_plan=plan)


RUNS = ("directory", "faults")


def _record(name):
    """One coverage run, traced: its causal events and the kinds
    delivered to each service."""
    delivered = collections.defaultdict(set)
    deliver = Network._deliver

    def recording(self, endpoint, message, event):
        delivered[message.service].add(message.kind)
        deliver(self, endpoint, message, event)

    tracer = Tracer(sample_interval=None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "_deliver", recording)
        _run(name, tracer)
    return causal_events_from_trace(chrome_trace_dict(tracer)), delivered


@pytest.fixture(scope="module")
def coverage():
    return {name: _record(name) for name in RUNS}


@pytest.mark.parametrize("target", sorted(ROLES))
def test_undeclared_kind_is_rejected_on_first_delivery(monkeypatch, target):
    """The first message to ``target`` leaves with a mistyped kind."""
    send = Network.send
    mistyped = []

    def send_mistyped(self, src, dst, service, kind, *args, **kwargs):
        if service == target and not mistyped:
            mistyped.append(kind)
            kind = "write_akc"
        return send(self, src, dst, service, kind, *args, **kwargs)

    monkeypatch.setattr(Network, "send", send_mistyped)
    run = "faults" if target == MEMBERSHIP_SERVICE else "directory"
    with pytest.raises(SimulationError) as excinfo:
        _run(run)
    assert mistyped
    assert str(excinfo.value).startswith("machine ")
    assert str(excinfo.value).endswith(
        f": service {target!r} received undeclared message kind 'write_akc'"
    )


@pytest.mark.parametrize("service", sorted(ROLES))
def test_every_handler_names_a_declared_kind(service):
    handled = {
        name[len("_handle_"):]
        for name in dir(ROLES[service])
        if name.startswith("_handle_")
    }
    assert handled <= MESSAGE_KINDS[service]
    if service == STORAGE_SERVICE:
        # The storage table is built from the declared set: one handler
        # per declared kind.
        assert handled == MESSAGE_KINDS[service]


@pytest.mark.parametrize("service", sorted(ROLES))
def test_every_declared_kind_is_delivered_to_its_service(coverage, service):
    delivered = set().union(*(kinds[service] for _, kinds in coverage.values()))
    assert delivered == MESSAGE_KINDS[service]


def test_conform_over_the_coverage_runs_observes_every_kind(coverage):
    unobserved = []
    for name in RUNS:
        report = conform(coverage[name][0])
        assert report.ok, report.format_text()
        unobserved.append(set(report.unobserved))
    assert set.intersection(*unobserved) == set()


@pytest.mark.parametrize("kind", ["read_reply", "steal_reply"])
def test_reply_with_an_unknown_request_id_is_a_simulation_error(
    monkeypatch, kind
):
    """A reply no request is waiting for is a protocol violation, raised
    as such rather than as a bare ``RuntimeError`` the value harness
    cannot tell from a crash.  A steal reply is no exception: no
    proposal is ever given up on, so none may arrive unasked."""
    send = Network.send
    signature = inspect.signature(send)

    def send_stray(self, *args, **kwargs):
        # Call sites pass the arguments by position or by keyword.
        call = signature.bind(self, *args, **kwargs)
        if call.arguments["kind"] == kind:
            call.arguments["payload"] = (-1, *call.arguments["payload"][1:])
        return send(*call.args, **call.kwargs)

    monkeypatch.setattr(Network, "send", send_stray)
    with pytest.raises(
        SimulationError, match=rf"engine \d: unexpected reply {kind} id=-1"
    ):
        run_algorithm(PageRank(iterations=1), rmat_graph(7, seed=5),
                      fast_config(2))
