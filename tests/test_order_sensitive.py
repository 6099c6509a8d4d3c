"""``order_sensitive = False`` is earned, not declared.

An algorithm that sets the attribute ``False`` has its updates folded in
arrival order, which work stealing and recovery change from run to run;
the byte-identity invariants then rest on the fold being exact in any
order.  These tests check the declaration three ways: by shuffling one
update multiset through every such ``gather``, by reading every
``gather``'s source for float sums, and end to end against the same
jobs with the canonical order forced back on.
"""

import inspect

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    MIS,
    SSSP,
    WCC,
    BeliefPropagation,
    Conductance,
    KCore,
    PageRank,
    SpMV,
    transpose_edges,
)
from repro.algorithms.mcst import _HookPropagate, _MinEdgePick
from repro.algorithms.scc import _BackwardConfirm, _ForwardColor
from repro.core.gas import GasAlgorithm
from repro.core.runtime import run_algorithm
from repro.faults import FaultPlan
from repro.graph import rmat_graph, to_undirected

from tests.conftest import fast_config

VERTICES = 64

_NOTHING_ASSIGNED = np.zeros(VERTICES, dtype=bool)
_OWN_COLOR = np.arange(VERTICES, dtype=np.int64)

#: One instance of every shipped algorithm class.
SHIPPED = {
    BFS: lambda: BFS(root=0),
    WCC: WCC,
    SSSP: lambda: SSSP(root=0),
    MIS: MIS,
    KCore: lambda: KCore(k=3),
    Conductance: Conductance,
    PageRank: lambda: PageRank(iterations=2),
    BeliefPropagation: lambda: BeliefPropagation(iterations=2),
    SpMV: SpMV,
    _ForwardColor: lambda: _ForwardColor(_NOTHING_ASSIGNED, _OWN_COLOR),
    _BackwardConfirm: lambda: _BackwardConfirm(_NOTHING_ASSIGNED, _OWN_COLOR),
    _MinEdgePick: _MinEdgePick,
    _HookPropagate: lambda: _HookPropagate(np.full(VERTICES, -1)),
}

ORDER_FREE = [cls for cls in SHIPPED if not cls.order_sensitive]


def _shipped_subclasses(base=GasAlgorithm):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro.algorithms"):
            yield cls
        yield from _shipped_subclasses(cls)


def test_every_shipped_algorithm_is_covered():
    assert set(_shipped_subclasses()) == set(SHIPPED)
    assert {cls.__name__ for cls in ORDER_FREE} == {
        "BFS", "WCC", "SSSP", "MIS", "_ForwardColor", "_BackwardConfirm",
        "KCore", "Conductance",
    }


def _update_multiset(algorithm, rng, count=2000):
    """Updates of the dtype ``algorithm`` folds, heavy with duplicates
    and ties, plus the vertex state its ``gather`` filters on."""
    dst = rng.integers(0, VERTICES, size=count)
    accum = algorithm.make_accumulator(VERTICES)
    if accum.dtype.kind == "f":
        pool = np.concatenate([rng.random(30), [0.0, np.inf, 1.0, 1.0]])
    else:
        pool = np.concatenate([np.arange(-1, VERTICES), [np.iinfo(np.int64).max]])
    values = rng.choice(pool, size=count).astype(accum.dtype)
    state = {
        # SCC/backward accepts updates matching the destination's colour.
        "color": rng.choice(values, size=VERTICES),
        "assigned": rng.random(VERTICES) < 0.2,
        "confirmed": rng.random(VERTICES) < 0.2,
        # Conductance counts updates from the other side of the cut.
        "side": rng.integers(0, 2, size=VERTICES).astype(np.int8),
    }
    return dst, values, state


@pytest.mark.parametrize("cls", ORDER_FREE, ids=lambda cls: cls.__name__)
def test_gather_is_exact_in_any_order(cls):
    algorithm = SHIPPED[cls]()
    rng = np.random.default_rng(11)
    dst, values, state = _update_multiset(algorithm, rng)
    reference = algorithm.make_accumulator(VERTICES)
    algorithm.gather(reference, dst, values, state)
    assert reference.tobytes() != algorithm.make_accumulator(VERTICES).tobytes()
    for _ in range(20):
        shuffle = rng.permutation(len(dst))
        accum = algorithm.make_accumulator(VERTICES)
        algorithm.gather(accum, dst[shuffle], values[shuffle], state)
        assert accum.tobytes() == reference.tobytes()


@pytest.mark.parametrize("cls", SHIPPED, ids=lambda cls: cls.__name__)
def test_float_sums_stay_order_sensitive(cls):
    source = inspect.getsource(cls.gather)
    accum = SHIPPED[cls]().make_accumulator(1)
    if ("add.at" in source or "+=" in source) and accum.dtype.kind == "f":
        assert cls.order_sensitive, (
            f"{cls.__name__}.gather sums floats: every + rounds, so the "
            f"result depends on the order of the updates"
        )
    if not cls.order_sensitive:
        exact = "minimum.at" in source or "maximum.at" in source
        assert exact or accum.dtype.kind in "iu"


@pytest.fixture(scope="module")
def directed():
    return rmat_graph(8, seed=5)


@pytest.fixture(scope="module")
def undirected():
    return to_undirected(rmat_graph(8, seed=5, weighted=True))


def _job(cls, directed, undirected):
    """``(algorithm, graph)`` for one job of ``cls`` on RMAT-8."""
    size = directed.num_vertices
    nothing_assigned = np.zeros(size, dtype=bool)
    if cls is _ForwardColor:
        return cls(nothing_assigned, np.arange(size)), directed
    if cls is _BackwardConfirm:
        forward = run_algorithm(
            _ForwardColor(nothing_assigned, np.arange(size)),
            directed,
            fast_config(1),
        )
        color = forward.values["color"]
        return cls(nothing_assigned, color), transpose_edges(directed)
    if cls is Conductance:
        return cls(), directed
    return SHIPPED[cls](), undirected


@pytest.mark.parametrize(
    "machines, fault",
    [(1, None), (3, None), (3, "crash:1@iter=1")],
    ids=["m1", "m3", "m3-crash"],
)
@pytest.mark.parametrize("cls", ORDER_FREE, ids=lambda cls: cls.__name__)
def test_skipping_the_order_changes_no_byte(
    cls, machines, fault, directed, undirected, monkeypatch
):
    """Same job, stealing on, with and without the canonical order."""
    config = fast_config(
        machines, chunk_bytes=4096, checkpointing=fault is not None
    )
    assert config.stealing_enabled

    def final_bytes():
        algorithm, graph = _job(cls, directed, undirected)
        plan = FaultPlan.parse([fault]) if fault else None
        values = run_algorithm(algorithm, graph, config, fault_plan=plan).values
        return {name: array.tobytes() for name, array in values.items()}

    unordered = final_bytes()
    monkeypatch.setattr(cls, "order_sensitive", True)
    assert final_bytes() == unordered
