"""Every gather is exact in any order.

The runtime folds each partition's updates in the order they arrived,
and machine count, work stealing, the chunk-store provider and recovery
all change that order; the byte-identity invariants rest on every
shipped ``gather`` giving the same bits for every permutation of one
update multiset.  These tests check that four ways: by shuffling one
update multiset through every ``gather``, by reading every ``gather``'s
source for a rounding float sum, end to end against the same jobs folded
in reverse arrival order and across a sampled configuration grid — and
by unit tests of :func:`repro.core.gas.exact_add_at`, the fold every
float sum goes through.
"""

import inspect
import math

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
from repro.core.gas import GasAlgorithm, exact_add_at
from repro.core.runtime import ChaosCluster, run_algorithm
from repro.core.workload import GatherBuffer
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

#: The gathers that sum floats, all through ``exact_add_at``.
FLOAT_SUMS = {PageRank, BeliefPropagation, SpMV}

#: Values a fold must treat the same in any order besides ordinary
#: ones: ±inf, both zeros, subnormals and the ends of the 1e±300 range.
SPECIAL_FLOATS = (
    np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-320, 1e-300, -1e-300,
    1e300, -1e300,
)


def _ids(cls):
    return cls.__name__


def _shipped_subclasses(base=GasAlgorithm):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro.algorithms"):
            yield cls
        yield from _shipped_subclasses(cls)


def test_every_shipped_algorithm_is_covered():
    assert set(_shipped_subclasses()) == set(SHIPPED)


def _floats(rng, count):
    """Magnitudes over 16 decades, one value in five a tie, one in
    twenty special."""
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 9, count)
    values[rng.random(count) < 0.2] = 0.5
    special = rng.random(count) < 0.05
    values[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
    return values


def _update_multiset(algorithm, rng, count=2000):
    """Updates of the kind ``algorithm``'s scatter emits — duplicates,
    ties and the invariants scatter guarantees included — plus the
    vertex state its ``gather`` filters on."""
    dst = rng.integers(0, VERTICES, size=count)
    src = rng.integers(0, VERTICES, size=count)
    state = {
        "assigned": rng.random(VERTICES) < 0.2,
        "confirmed": rng.random(VERTICES) < 0.2,
        # Conductance counts updates from the other side of the cut.
        "side": rng.integers(0, 2, size=VERTICES).astype(np.int8),
        # MCST/hook accepts only the destination's chosen parent.
        "chosen": rng.integers(0, VERTICES, size=VERTICES),
    }
    accum = algorithm.make_accumulator(VERTICES)
    values = np.empty(count, dtype=accum.dtype)
    if isinstance(algorithm, _MinEdgePick):
        # A record's sender follows from its edge and its destination;
        # weights are edge weights, never -0.0.
        values["weight"] = np.abs(_floats(rng, count))
        values["k1"] = np.minimum(src, dst)
        values["k2"] = np.maximum(src, dst)
        values["src"] = src
    elif isinstance(algorithm, _HookPropagate):
        # Half the messages come from the chosen parent, and all of one
        # sender's messages carry the sender's one state.
        src = np.where(rng.random(count) < 0.5, state["chosen"][dst], src)
        values["src"] = src
        values["src_chosen"] = rng.integers(0, VERTICES, size=VERTICES)[src]
        values["comp"] = rng.integers(0, VERTICES, size=VERTICES)[src]
    elif accum.dtype.kind == "f":
        values[:] = _floats(rng, count)
        if isinstance(algorithm, SSSP):
            values = np.abs(values)  # distances start at +0.0 and grow
    else:
        pool = np.concatenate(
            [np.arange(-1, VERTICES), [np.iinfo(np.int64).max]]
        )
        values[:] = rng.choice(pool, size=count)
        # SCC/backward accepts updates matching the destination's colour.
        state["color"] = rng.choice(values, size=VERTICES)
    return dst, values, state


@pytest.mark.parametrize("cls", SHIPPED, ids=_ids)
def test_gather_is_exact_in_any_order(cls):
    algorithm = SHIPPED[cls]()
    rng = np.random.default_rng(11)
    dst, values, state = _update_multiset(algorithm, rng)
    reference = algorithm.make_accumulator(VERTICES)
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as intended
        algorithm.gather(reference, dst, values, state)
        assert reference.tobytes() != algorithm.make_accumulator(VERTICES).tobytes()
        for _ in range(20):
            shuffle = rng.permutation(len(dst))
            accum = algorithm.make_accumulator(VERTICES)
            algorithm.gather(accum, dst[shuffle], values[shuffle], state)
            assert accum.tobytes() == reference.tobytes()


@pytest.mark.parametrize("cls", SHIPPED, ids=_ids)
def test_float_sums_stay_order_sensitive(cls):
    """Float ``+`` still rounds, so no gather may fold floats with it:
    a float sum goes through ``exact_add_at``, and a ``+`` fold is over
    integers."""
    source = inspect.getsource(cls.gather)
    kind = SHIPPED[cls]().make_accumulator(1).dtype.kind
    if "add.at" in source or "+=" in source:
        assert kind in "iu", f"{cls.__name__}.gather sums floats with +"
    assert ("exact_add_at" in source) == (cls in FLOAT_SUMS)


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
    if cls is _HookPropagate:
        pick = run_algorithm(_MinEdgePick(), undirected, fast_config(1))
        return cls(pick.values["chosen"]), undirected
    if cls is Conductance:
        return cls(), directed
    return SHIPPED[cls](), undirected


def _final_bytes(cls, directed, undirected, config, fault=None, backend=None):
    algorithm, graph = _job(cls, directed, undirected)
    plan = FaultPlan.parse([fault]) if fault else None
    values = (
        ChaosCluster(config, backend_factory=backend)
        .run(algorithm, graph, fault_plan=plan)
        .values
    )
    return {name: array.tobytes() for name, array in values.items()}


@pytest.mark.parametrize(
    "machines, fault",
    [(1, None), (3, None), (3, "crash:1@iter=1")],
    ids=["m1", "m3", "m3-crash"],
)
@pytest.mark.parametrize("cls", SHIPPED, ids=_ids)
def test_skipping_the_order_changes_no_byte(
    cls, machines, fault, directed, undirected, monkeypatch
):
    """Same job, stealing on, folded in arrival order and in reverse
    arrival order: no fold may impose an order of its own."""
    config = fast_config(
        machines, chunk_bytes=4096, checkpointing=fault is not None
    )
    assert config.stealing_enabled
    arrival = _final_bytes(cls, directed, undirected, config, fault)
    drain = GatherBuffer.drain

    def reversed_drain(buffer):
        updates = drain(buffer)
        return None if updates is None else tuple(a[::-1] for a in updates)

    monkeypatch.setattr(GatherBuffer, "drain", reversed_drain)
    assert _final_bytes(cls, directed, undirected, config, fault) == arrival


#: The configuration grid of one provider (the ``backend`` fixture
#: crosses it with both): update aggregation x steal_alpha x {no fault,
#: crash} x machine count, machine count varying fastest.  One machine
#: has no machine 1 to crash, so its two fault cells are one.
GRID = list(dict.fromkeys(
    (machines, alpha, fault if machines > 1 else None, aggregate)
    for aggregate in (False, True)
    for alpha in (0.0, 1.0)
    for fault in (None, "crash:1@iter=1")
    for machines in (1, 2, 3, 4, 8)
))


def _sampled_cells(cls):
    """Three consecutive cells — mostly three machine counts — per
    class, so that the 13 classes between them visit every cell of the
    grid."""
    start = 3 * list(SHIPPED).index(cls)
    return [GRID[(start + step) % len(GRID)] for step in range(3)]


def test_the_sample_covers_the_grid():
    assert {cell for cls in SHIPPED for cell in _sampled_cells(cls)} == set(GRID)


@pytest.fixture(scope="module")
def reference_bytes(directed, undirected):
    """The values of one undisturbed single-machine memory-provider job
    per class — what every cell of the grid must reproduce."""
    cache = {}

    def of(cls):
        if cls not in cache:
            cache[cls] = _final_bytes(
                cls, directed, undirected, fast_config(1, chunk_bytes=4096)
            )
        return cache[cls]

    return of


@pytest.mark.parametrize("cls", SHIPPED, ids=_ids)
def test_values_are_identical_across_configurations(
    cls, backend, directed, undirected, reference_bytes
):
    for machines, alpha, fault, aggregate in _sampled_cells(cls):
        config = fast_config(
            machines,
            chunk_bytes=4096,
            steal_alpha=alpha,
            checkpointing=fault is not None,
            aggregate_updates=aggregate,
        )
        got = _final_bytes(cls, directed, undirected, config, fault, backend)
        assert got == reference_bytes(cls), (machines, alpha, fault, aggregate)


# ---------------------------------------------------------------------------
# exact_add_at
# ---------------------------------------------------------------------------


def _fsum_by_vertex(index, values, size):
    return np.array(
        [math.fsum(values[index == v]) for v in range(size)], dtype=np.float64
    )


def _folded(index, values, size, fold=exact_add_at):
    accum = np.zeros(size)
    with np.errstate(invalid="ignore"):
        fold(accum, index, values)
    return accum


class TestExactAddAt:
    def test_any_permutation_gives_the_same_bits(self):
        rng = np.random.default_rng(3)
        index = rng.integers(0, 50, size=5000)
        values = _floats(rng, 5000)
        exact, plain = set(), set()
        for _ in range(10):
            shuffle = rng.permutation(5000)
            index, values = index[shuffle], values[shuffle]
            exact.add(_folded(index, values, 50).tobytes())
            plain.add(_folded(index, values, 50, fold=np.add.at).tobytes())
        assert len(exact) == 1
        assert len(plain) > 1  # the same multiset through a rounding +

    def test_a_vertex_depends_on_its_own_updates_only(self):
        rng = np.random.default_rng(5)
        mine = rng.standard_normal(300)
        alone = _folded(np.zeros(300, dtype=np.int64), mine, 1)
        index = np.concatenate([np.zeros(300, np.int64), rng.integers(1, 9, 7000)])
        values = np.concatenate([mine, _floats(rng, 7000)])
        shuffle = rng.permutation(len(index))
        mixed = _folded(index[shuffle], values[shuffle], 9)
        assert mixed[:1].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e20, 1e300])
    def test_equals_fsum_on_random_updates(self, scale):
        rng = np.random.default_rng(7)
        index = rng.integers(0, 40, size=4000)
        values = rng.standard_normal(4000) * scale
        folded = _folded(index, values, 40)
        assert folded.tobytes() == _fsum_by_vertex(index, values, 40).tobytes()

    def test_equals_fsum_under_cancellation(self):
        """Terms near 2**20 that cancel exactly, leaving terms near
        2**-8 — a sequential float sum gets the low bits wrong.  (Every
        update stays within the fold's ~100-bit window under the largest
        one, where the result is exact.)"""
        rng = np.random.default_rng(9)
        sign = rng.choice([-1.0, 1.0], size=(2, 3000))
        big = sign[0] * rng.uniform(2.0**19, 2.0**20, 3000)
        small = sign[1] * rng.uniform(2.0**-8, 2.0**-7, 3000)
        values = np.concatenate([big, -big, small, [2.0**-60, 1.0, -1.0]])
        index = np.concatenate(
            [np.tile(rng.integers(0, 30, 3000), 2), rng.integers(0, 30, 3000), [0, 0, 0]]
        )
        shuffle = rng.permutation(len(values))
        index, values = index[shuffle], values[shuffle]
        folded = _folded(index, values, 30)
        expected = _fsum_by_vertex(index, values, 30)
        assert folded.tobytes() == expected.tobytes()
        sequential = np.zeros(30)
        np.add.at(sequential, index, values)
        assert sequential.tobytes() != expected.tobytes()

    def test_empty_input_leaves_the_accumulator_alone(self):
        accum = np.array([-0.0, 1.5, np.nan])
        before = accum.tobytes()
        exact_add_at(accum, np.array([], dtype=np.int64), np.array([]))
        assert accum.tobytes() == before

    def test_near_the_overflow_threshold(self):
        index = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        values = np.array(
            [1.7e308, -1.6e308, 1e292, 1.7e308, 1.7e308, 1.7e308, 1.7e308, -1.7e308]
        )
        with np.errstate(all="raise"):
            folded = _folded(index, values, 3)
        assert folded[0] == math.fsum(values[:3])
        assert folded[1] == np.inf  # the sum itself overflows
        assert folded[2] == 1.7e308  # an intermediate overflow does not
        shuffle = np.random.default_rng(1).permutation(len(values))
        assert _folded(index[shuffle], values[shuffle], 3).tobytes() == folded.tobytes()

    def test_non_finite_updates_stay_with_their_vertex(self):
        index = np.array([0, 0, 1, 1, 2, 2, 3])
        values = np.array([np.inf, 1.0, np.inf, -np.inf, -np.inf, 2.0, 4.0])
        folded = _folded(index, values, 4)
        assert folded[0] == np.inf and np.isnan(folded[1])
        assert folded[2] == -np.inf and folded[3] == 4.0

    def test_float64_accumulators_only(self):
        with pytest.raises(TypeError, match="float64"):
            exact_add_at(np.zeros(2, dtype=np.int64), np.array([0]), np.array([1]))
