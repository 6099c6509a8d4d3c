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
"""

from __future__ import annotations

import pytest

from repro.algorithms import PageRank
from repro.core.metrics import LEDGER_CATEGORIES
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph
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

