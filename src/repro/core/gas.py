"""The edge-centric GAS programming model (Section 2).

Chaos adopts PowerLyra's simplified GAS variant: updates are scattered
only over *outgoing* edges and gathered only for *incoming* edges.  The
computation state lives entirely in per-vertex values; each iteration
runs a scatter phase (edges → updates) and a gather phase (updates →
accumulators, then Apply folds accumulators into vertex values).

User algorithms subclass :class:`GasAlgorithm` and provide vectorized
``scatter`` / ``gather`` / ``apply`` functions over numpy arrays —
Chaos' per-edge C++ callbacks become per-chunk array callbacks here, the
natural Python equivalent with identical semantics.

All three functions must be order-independent (commutative/associative
in their accumulation effects), which the runtime exploits for parallel
execution and stealer-accumulator merging — exactly the requirement the
paper states at the end of Section 2.

**The contract: gather must be exact in any order.**  "Commutative and
associative" in the paper is a statement about real numbers; the
runtime's invariant is about *bits* (a fault-injected or work-stolen run
must equal an undisturbed one byte for byte), and the runtime folds
updates in whatever order they arrived.  A fold is *exact in any order*
when every permutation of one update multiset leaves a bit-identical
accumulator.  ``min``/``max`` — over floats too — are: they return one
of their operands unrounded, so the result is the extreme element
whichever way the comparisons nest (two operands that compare equal but
differ in bits, ``-0.0``/``0.0`` or NaNs with different payloads, are
the one exception, so a scatter must not emit both).  Integer sums are:
wrap-around addition is associative.  Float sums are not — every ``+``
rounds, so ``(a + b) + c`` and ``a + (b + c)`` can differ in the last
bit — so float sums go through :func:`exact_add_at`, whose per-vertex
result is a function of that vertex's update multiset alone.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: Type alias: vertex state is a dict of named numpy arrays (structure of
#: arrays); a partition's state is a dict of views into the full arrays.
State = Dict[str, np.ndarray]

#: Canonical names of the three GAS kernel phases.  The host profiler
#: (:mod:`repro.obs.host`) records real wall/CPU time under exactly
#: these names when the compute engine runs the corresponding user
#: function, so sim-time spans and host cost line up span-for-span
#: (``repro.obs.host.GAS_HOST_PHASES`` mirrors this tuple; a test pins
#: the two together).
GAS_PHASES = ("scatter", "gather", "apply")


@dataclass
class GraphContext:
    """Graph-level facts available to algorithms at initialization."""

    num_vertices: int
    num_edges: int
    weighted: bool
    #: Out-degree per vertex; populated by the runtime when the algorithm
    #: sets ``needs_out_degrees`` (computed during pre-processing).
    out_degrees: Optional[np.ndarray] = None


class GasAlgorithm(abc.ABC):
    """Base class for edge-centric GAS algorithms.

    Subclasses define the three user functions of Figure 1/2 plus the
    metadata the runtime needs (update wire size, convergence rule).

    Wire sizes (``update_bytes``, ``vertex_bytes``, ``accum_bytes``)
    drive the modelled I/O volumes; they follow the paper's compact
    format (4-byte ids and values for graphs under 2^32 vertices).
    """

    #: Human-readable algorithm name (used in results and benchmarks).
    name: str = "gas"
    #: Requires an undirected (symmetrized) input graph (Table 1 note).
    needs_undirected: bool = False
    #: Requires edge weights.
    needs_weights: bool = False
    #: Requires the runtime to pre-compute out-degrees.
    needs_out_degrees: bool = False
    #: Fixed iteration count, or None to run until no updates are produced.
    max_iterations: Optional[int] = None
    #: Modelled bytes of one update on the wire/storage (dst id + value).
    update_bytes: int = 8
    #: Modelled bytes of one vertex's value on storage.
    vertex_bytes: int = 8
    #: Modelled bytes of one accumulator entry (shipped by gather stealers).
    accum_bytes: int = 8

    # -- state ----------------------------------------------------------

    @abc.abstractmethod
    def init_values(self, ctx: GraphContext) -> State:
        """Create the full-graph vertex state arrays (length |V| each)."""

    # -- the three user functions ----------------------------------------

    @abc.abstractmethod
    def scatter(
        self,
        values: State,
        src_local: np.ndarray,
        dst: np.ndarray,
        weight: Optional[np.ndarray],
        iteration: int,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Produce updates for a chunk of edges.

        ``values`` is the state of the partition being scattered
        (views); ``src_local`` indexes into it; ``dst`` holds *global*
        destination ids.  Returns ``(dst_global, update_values)`` for
        the (possibly filtered) edges that emit updates, or ``None`` if
        no updates are produced.
        """

    @abc.abstractmethod
    def make_accumulator(self, n: int) -> np.ndarray:
        """A length-``n`` accumulator array filled with the identity."""

    @abc.abstractmethod
    def gather(
        self,
        accum: np.ndarray,
        dst_local: np.ndarray,
        values: np.ndarray,
        state: Optional[State] = None,
    ) -> None:
        """Fold a chunk of update values into the accumulator, in place.

        Must be exact in any order (see the module docstring): the
        updates come in arrival order.  ``state`` is the partition's
        vertex state — read-only during gather, available because the
        vertex set is loaded into memory before streaming updates
        (Section 5.2); some algorithms (MCST, SCC, Conductance) filter
        updates against the destination's current value.
        """

    def combine_updates(
        self, dst: np.ndarray, values: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Pre-aggregate buffered updates sharing a destination.

        This is the Pregel-style combiner the paper discusses and
        rejects (Section 11.1: *"the cost of merging the updates to the
        same vertex outweighs the benefits from reduced network
        traffic"*).  It is optional (``ClusterConfig.aggregate_updates``)
        so the trade-off can be measured; returning ``None`` (the
        default) marks the algorithm as non-combinable.
        """
        return None

    @abc.abstractmethod
    def apply(
        self, values: State, accum: np.ndarray, iteration: int
    ) -> int:
        """Fold the merged accumulator into vertex values, in place.

        Returns the number of vertices whose value changed (drives
        convergence detection and the Figure 17 workload skew).
        """

    # -- convergence -------------------------------------------------------

    def finished(self, iteration: int, stats: "IterationStatsLike") -> bool:
        """Job-completion test evaluated after each gather barrier.

        Default policy: stop after ``max_iterations`` when set;
        otherwise stop when an iteration scattered no updates.
        """
        if self.max_iterations is not None:
            return iteration + 1 >= self.max_iterations
        return stats.updates_produced == 0

    # -- introspection ------------------------------------------------------

    def vertex_state_bytes(self) -> int:
        """Per-vertex memory footprint used by the partition-count rule."""
        return self.vertex_bytes + self.accum_bytes

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class IterationStatsLike:
    """Structural protocol for :meth:`GasAlgorithm.finished` inputs."""

    updates_produced: int
    vertices_changed: int


def state_slice(values: State, start: int, stop: int) -> State:
    """Views of each state array restricted to ``[start, stop)``.

    Because partitions are consecutive vertex ranges (Section 3), a
    partition's state is a set of contiguous views — apply mutates the
    canonical arrays in place, which is the in-memory analogue of the
    master writing the vertex set back to storage.
    """
    return {name: array[start:stop] for name, array in values.items()}


#: Largest ``e`` for which ``1.5 * 2**e`` is a finite float64.
_TOP_EXPONENT = 1023


def exact_add_at(accum: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(accum, index, values)`` for a float64 ``accum``, with
    every vertex's result independent of the order of the updates.

    Reproducible summation (Demmel & Nguyen, ARITH 2013) with one
    exponent per destination *v*, in two levels:

    * ``e_v`` is the ``frexp`` exponent of the largest ``|x|`` among
      *v*'s updates (``|x| < 2**e_v``) and ``b_v`` the bit length of
      their count.  Level 1 works at ``e1 = e_v + b_v + 1``.
    * ``(x + 1.5 * 2**e1) - 1.5 * 2**e1`` rounds ``x`` to a multiple of
      ``2**(e1 - 52)``: the sum stays in the constant's binade, so only
      the addition rounds.  Every partial sum of *v*'s ``q1`` is such a
      multiple below ``2**(e1 - 1)``, hence a float64, so
      ``np.bincount`` adds them exactly, in any order.
    * The remainder ``x - q1`` is exact and is rounded and summed the
      same way at ``e2 = e1 - 52 + b_v + 1``.
    * ``accum += s1 + s2`` rounds once.

    Only what lies below ``2**(e2 - 53)`` in each update is dropped —
    about a hundred bits under *v*'s largest update — so the result is
    the correctly rounded sum (``math.fsum``) unless updates that far
    apart cancel.  Either way it is a function of *v*'s update multiset
    alone: no order, partition boundary or other vertex moves its bits.

    Updates that are not finite take no part in the exponents or sums;
    they are added afterwards with ``np.add.at``, so such a vertex ends
    ±inf or NaN whatever the order.  A vertex whose updates come within
    ``2**(b_v + 2)`` of the overflow threshold is folded at a power-of-two
    scale and scaled back.  ``values`` is not modified; two 8-byte-per-
    update temporaries are alive at once (three when scaling).
    """
    if accum.dtype != np.float64:
        raise TypeError(f"exact_add_at folds into float64, not {accum.dtype}")
    if len(values) == 0:
        return
    size = len(accum)
    spare = np.abs(values, dtype=np.float64)
    top = np.zeros(size)
    np.maximum.at(top, index, spare)
    skip = None
    if not np.isfinite(top).all():  # an update is ±inf or NaN
        skip = np.flatnonzero(~np.isfinite(spare))
        spare[skip] = 0.0
        top[:] = 0.0
        np.maximum.at(top, index, spare)
    grow = np.frexp(np.bincount(index, minlength=size))[1] + 1  # b_v + 1
    level = np.frexp(top)[1] + grow  # e1
    shift = np.maximum(level - _TOP_EXPONENT, 0)
    scaled = values
    if shift.any():
        level -= shift
        scaled = values * np.take(np.ldexp(1.0, -shift), index)
    # np.maximum.at has bounds-checked every index: "clip" skips a second check.
    high = np.take(np.ldexp(1.5, level), index, mode="clip")
    np.add(scaled, high, out=spare)
    spare -= high  # q1
    if skip is not None:
        spare[skip] = 0.0
    total = np.bincount(index, spare, size)
    np.subtract(scaled, spare, out=spare)  # x - q1, exact
    level += grow - 52  # e2
    np.take(np.ldexp(1.5, level), index, out=high, mode="clip")
    spare += high
    spare -= high  # q2
    if skip is not None:
        spare[skip] = 0.0
    total += np.bincount(index, spare, size)
    if shift.any():
        with np.errstate(over="ignore"):  # the sum itself overflows
            total = np.ldexp(total, shift)
    accum += total
    if skip is not None:
        np.add.at(accum, np.take(index, skip), np.take(values, skip))
