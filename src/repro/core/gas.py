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

**The ``order_sensitive`` contract.**  "Commutative and associative" in
the paper is a statement about real numbers; the runtime's invariant is
about *bits* (a fault-injected or work-stolen run must equal an
undisturbed one byte for byte).  A fold is *exact in any order* when
every permutation of one update multiset leaves a bit-identical
accumulator.  ``min``/``max`` — over floats too — qualify: they return
one of their operands unrounded, so the result is the extreme element
whichever way the comparisons nest (two operands that compare equal
but differ in bits, ``-0.0``/``0.0`` or NaNs with different payloads,
are the one exception; an algorithm whose scatter can emit those keeps
the default).  Integer sums qualify: wrap-around addition is
associative.  Float sums do not: every ``+`` rounds, so ``(a + b) + c``
and ``a + (b + c)`` can differ in the last bit.  An algorithm that
declares ``order_sensitive = False`` gets its updates folded as they
arrived; everything else (the default) gets them replayed in the
canonical order of :func:`repro.core.workload.canonical_update_order`,
which costs a sort per partition per iteration.
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
    #: Whether ``gather``'s result depends, in its bits, on the order of
    #: the updates it is handed.  ``True`` (the safe default) makes the
    #: runtime sort every partition's updates into a canonical order
    #: before folding; set ``False`` only when the fold is exact in any
    #: order — ``np.minimum.at`` / ``np.maximum.at``, integer sums — and
    #: never for a float sum (see the module docstring).
    order_sensitive: bool = True
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

        Must be commutative and associative over updates (Section 2);
        if it is also exact in any order, say so with
        ``order_sensitive = False`` and the runtime skips the sort.
        ``state`` is the partition's vertex state — read-only during
        gather, available because the vertex set is loaded into memory
        before streaming updates (Section 5.2); some algorithms (MCST,
        SCC, Conductance) filter updates against the destination's
        current value.
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
