"""Workloads: what flows through the engines.

The computation engine (:mod:`repro.core.compute`) is written against a
small workload interface so the same scheduling/stealing/batching logic
drives two execution modes:

:class:`DataWorkload`
    Functional mode: chunks carry real numpy edge/update payloads and
    the user algorithm's vectorized scatter/gather/apply run on them.
    Results are exact.

:class:`ModelWorkload`
    Capacity mode: chunks are phantoms (sizes only) and per-iteration
    update volumes come from an :class:`~repro.perf.profiles.ActivityProfile`.
    Used for paper-scale projections (RMAT-36) that no machine could
    materialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State, state_slice
from repro.partition.streaming import PartitionLayout
from repro.store.chunk import Chunk


@dataclass(slots=True)
class UpdateBatch:
    """Updates destined for one partition, produced by one scatter chunk."""

    partition: int
    count: int
    nbytes: int
    payload: Optional[Dict[str, np.ndarray]]  # {"dst": ..., "value": ...}


class GatherBuffer:
    """Deferred gather input for one partition, one worker.

    The simulated schedule delivers update chunks in an order that
    depends on device queues, stealing and (under fault injection) on
    recovery timing, and a gather stealer holds a schedule-dependent
    subset of them.  Workers therefore buffer the raw
    ``(dst_local, value)`` pairs while streaming and the master folds
    the union once, at apply time (a per-worker partial float sum would
    round over a schedule-dependent subset), in arrival order: every
    gather is exact in any order (min, max, integer sums, and float sums
    through :func:`repro.core.gas.exact_add_at`), so each vertex's value
    is a function of its own update multiset — the recovery invariant
    that a fault-injected run equals an undisturbed run byte for byte.
    Folding at the master is a pure host-side choice: the simulated
    timing (per-chunk CPU charges, accumulator ship sizes, merge costs)
    is untouched.
    """

    __slots__ = ("_dst", "_values")

    def __init__(self):
        self._dst: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def append(self, dst_local: np.ndarray, values: np.ndarray) -> None:
        if len(dst_local) == 0:
            return
        self._dst.append(dst_local)
        self._values.append(values)

    def extend(self, other: "GatherBuffer") -> None:
        """Move ``other``'s updates into this buffer (``other`` is left
        empty, so the arrays have one owner and :meth:`drain` frees
        them)."""
        self._dst.extend(other._dst)
        self._values.extend(other._values)
        other._dst.clear()
        other._values.clear()

    def drain(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """All buffered updates concatenated as ``(dst_local, values)``,
        or ``None`` if empty.  Empties the buffer: the per-chunk arrays
        are released as soon as their concatenation exists, which keeps
        the apply-time peak at one copy of the updates, not two."""
        if not self._dst:
            return None
        dst = np.concatenate(self._dst)
        self._dst.clear()
        values = np.concatenate(self._values)
        self._values.clear()
        return dst, values


def _byte_lexsort(dst_local: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The definition of :func:`canonical_update_order`, computed
    literally: one ``uint8`` lexsort key per value byte."""
    raw = np.ascontiguousarray(values).view(np.uint8)
    raw = raw.reshape(len(values), -1)
    keys = [raw[:, i] for i in range(raw.shape[1] - 1, -1, -1)]
    keys.append(dst_local)
    return np.lexsort(keys)


def _packed_value_order(
    dst_local: np.ndarray, values: np.ndarray
) -> Optional[np.ndarray]:
    """:func:`canonical_update_order` by two in-place value sorts, or
    ``None`` when the input does not qualify (the caller falls back).

    ``np.argsort`` of a ``uint64`` is ~3x slower than ``ndarray.sort``
    of the same array (16 ms against 5 ms for 600 k keys), so the
    argsort is turned into value sorts: a least-significant-digit radix
    sort whose two digits are as wide as a ``uint64`` allows once the
    row index rides in the low ``index_bits`` bits.  The index makes every packed word unique,
    which makes the unstable SIMD sort stable by construction, and is
    the permutation once the digit is masked off.  Everything after the
    key is built in place: at most three 8-byte-per-update arrays are
    alive at once, the byte lexsort's own footprint.
    """
    itemsize = values.dtype.itemsize
    if (
        values.ndim != 1
        or values.dtype.kind not in "iuf"
        or itemsize not in (4, 8)
    ):
        return None
    count = len(values)
    index_bits = (count - 1).bit_length()
    digit_bits = 64 - index_bits
    # The sort key is the bit string dst:value-bytes, most significant
    # first: 64 value bits (4-byte values are left-aligned) plus the
    # destination bits must fit in two digits.
    if (
        int(dst_local.min()) < 0
        or int(dst_local.max()).bit_length() + index_bits > digit_bits
    ):
        return None
    shift = np.uint64(index_bits)
    index_mask = np.uint64((1 << index_bits) - 1)
    # Reading the value bytes as a big-endian integer makes integer
    # order the byte-lexicographic order of the definition.
    key = np.ascontiguousarray(values).view(f">u{itemsize}")
    key = key.astype(np.uint64)
    if itemsize == 4:
        key <<= np.uint64(32)
    # Pass 1: the low digit_bits bits of the value key (the shift drops
    # the rest), ties broken by row.
    packed = key << shift
    packed |= np.arange(count, dtype=np.uint32)
    packed.sort()
    packed &= index_mask
    first = packed.view(np.int64)  # rows in pass-1 order
    # Pass 2: the remaining high value bits under the destination, ties
    # broken by position in pass-1 order.
    key >>= np.uint64(digit_bits)
    high = dst_local.astype(np.uint64)
    high <<= shift
    key |= high
    del high
    packed = np.take(key, first)
    del key
    packed <<= shift
    packed |= np.arange(count, dtype=np.uint32)
    packed.sort()
    packed &= index_mask
    return np.take(first, packed.view(np.int64))


def canonical_update_order(
    dst_local: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """A schedule-independent total order over gather updates.

    **Definition.**  The permutation that sorts updates by destination
    vertex, breaking ties by the raw bytes of the update value compared
    lexicographically in memory order (``np.lexsort`` over one ``uint8``
    key per byte, destination last) — a total order over the update
    *multiset*, so any two runs that produce the same updates (in any
    arrival order) replay them identically.  The byte comparison is
    arbitrary but total (it distinguishes NaN payloads and -0.0/0.0,
    which compare equal numerically) and works for structured update
    dtypes too.  Updates equal in destination *and* bytes are
    interchangeable; which of them comes first is unspecified.

    **How.**  For one-dimensional scalar values of 4 or 8 bytes the
    order is computed by :func:`_packed_value_order` (two SIMD value
    sorts of packed ``digit << index_bits | row`` words) whenever
    ``2 * index_bits + dst_bits <= 64`` — e.g. up to 2**20 updates into
    partitions of up to 2**24 vertices.  Structured dtypes (MCST's
    24-byte records), other item sizes, negative destinations and
    inputs too large for two digits take the literal byte lexsort.
    The choice reads only the input's dtype and size.

    **Measured** (605,587 float64 updates into 2**14 destinations — the
    shape of partition 0 of the ``pr_kernel`` benchmark workload —
    numpy 2.4.6 with AVX-512, best of 9, peak temporaries in bytes per
    update):

    ==============================================  ======  ====
    9-key byte lexsort (the definition)             107 ms    24
    ``np.lexsort((byteswapped value, dst))``        145 ms    16
    two stable argsorts (value key, then dst)        90 ms    32
    quicksort argsort(key) + radix argsort(dst)      32 ms    32
    two packed value sorts (this function)           19 ms    24
    ==============================================  ======  ====

    The replayed ``(dst, value)`` sequences are bit-equal in every row.
    The fold that follows (``np.add.at``, 1.7 ms; ``np.bincount`` with
    weights, 1.8 ms and bit-equal) is not the cost.
    """
    count = len(values)
    if count < 2:
        return np.arange(count)
    dst_local = np.asarray(dst_local)
    values = np.asarray(values)
    order = _packed_value_order(dst_local, values)
    return order if order is not None else _byte_lexsort(dst_local, values)


class Workload:
    """Interface between the computation engine and the data plane."""

    algorithm: GasAlgorithm
    layout: PartitionLayout

    def vertex_set_bytes(self, partition: int) -> int:
        raise NotImplementedError

    def accum_bytes(self, partition: int) -> int:
        raise NotImplementedError

    def begin_iteration(self, iteration: int) -> None:
        """Hook called by the runtime before each iteration's scatter."""

    def scatter_chunk(
        self, partition: int, chunk: Chunk, iteration: int
    ) -> List[UpdateBatch]:
        raise NotImplementedError

    def begin_gather(self, partition: int):
        """Create a fresh (identity) accumulator handle for ``partition``."""
        raise NotImplementedError

    def gather_chunk(self, partition: int, accum, chunk: Chunk) -> None:
        raise NotImplementedError

    def merge_accumulators(self, partition: int, master_accum, other) -> None:
        raise NotImplementedError

    def apply_partition(self, partition: int, accum, iteration: int) -> int:
        """Fold ``accum`` into the vertex values; return #changed."""
        raise NotImplementedError

    def finished(self, iteration: int, stats) -> bool:
        raise NotImplementedError

    def final_values(self) -> Optional[State]:
        return None


class DataWorkload(Workload):
    """Functional execution over real numpy payloads."""

    def __init__(
        self,
        algorithm: GasAlgorithm,
        layout: PartitionLayout,
        ctx: GraphContext,
        initial_values: Optional[State] = None,
    ):
        self.algorithm = algorithm
        self.layout = layout
        self.ctx = ctx
        self.values: State = algorithm.init_values(ctx)
        # partition -> its views of ``values`` (:meth:`_partition_state`).
        self._states: Dict[int, State] = {}
        for name, array in self.values.items():
            if len(array) != ctx.num_vertices:
                raise ValueError(
                    f"state array {name!r} has length {len(array)}, "
                    f"expected {ctx.num_vertices}"
                )
        if initial_values is not None:
            # Resume from a checkpoint: overwrite the freshly initialized
            # state with the restored vertex values (Section 6.6 — all
            # computation state lives in the vertex values).
            for name, array in self.values.items():
                if name not in initial_values:
                    raise ValueError(f"checkpoint missing state array {name!r}")
                restored = np.asarray(initial_values[name])
                if restored.shape != array.shape:
                    raise ValueError(
                        f"checkpoint array {name!r} has shape "
                        f"{restored.shape}, expected {array.shape}"
                    )
                array[:] = restored

    # -- sizes ----------------------------------------------------------

    def vertex_set_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.vertex_bytes

    def accum_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.accum_bytes

    # -- scatter ----------------------------------------------------------

    def _partition_state(self, partition: int) -> State:
        """The partition's views of ``values``, built once: every write
        to the state (restore, reset, apply) is in place, so the views
        stay the state."""
        state = self._states.get(partition)
        if state is None:
            start = self.layout.start(partition)
            stop = start + self.layout.vertex_count(partition)
            state = self._states[partition] = state_slice(
                self.values, start, stop
            )
        return state

    def scatter_chunk(
        self, partition: int, chunk: Chunk, iteration: int
    ) -> List[UpdateBatch]:
        payload = chunk.payload
        if payload is None:
            raise ValueError("DataWorkload requires chunk payloads")
        src = payload["src"]
        dst = payload["dst"]
        weight = payload.get("weight")
        src_local = self.layout.to_local(partition, src)
        state = self._partition_state(partition)
        result = self.algorithm.scatter(state, src_local, dst, weight, iteration)
        if result is None:
            return []
        out_dst, out_values = result
        if len(out_dst) == 0:
            return []
        order, cut_points = self.layout.route(out_dst)
        # One permutation of the whole output, then one contiguous slice
        # per partition.  Each batch copies its slice, so it owns its
        # columns and does not keep the chunk's permuted output alive.
        out_dst = out_dst.take(order)
        out_values = out_values.take(order, axis=0)
        cuts = cut_points.tolist()
        update_bytes = self.algorithm.update_bytes
        return [
            UpdateBatch(
                p, hi - lo, (hi - lo) * update_bytes,
                {"dst": out_dst[lo:hi].copy(),
                 "value": out_values[lo:hi].copy()},
            )
            for p, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
            if lo != hi
        ]

    # -- gather / apply ------------------------------------------------------
    #
    # The accumulator handle workers pass around is a GatherBuffer of
    # raw updates, not the algorithm's numeric accumulator: the numeric
    # reduction happens exactly once per partition per iteration, at
    # apply time, with a fold that is exact in any order (see
    # GatherBuffer).  The simulated costs are unchanged — chunk CPU is
    # charged on receipt, the shipped "accumulator" keeps its accum_bytes
    # wire size, and merge/apply CPU is charged by the master as before.

    def begin_gather(self, partition: int):
        return GatherBuffer()

    def gather_chunk(self, partition: int, accum, chunk: Chunk) -> None:
        payload = chunk.payload
        if payload is None:
            raise ValueError("DataWorkload requires chunk payloads")
        dst_local = self.layout.to_local(partition, payload["dst"])
        accum.append(dst_local, payload["value"])

    def merge_accumulators(self, partition: int, master_accum, other) -> None:
        master_accum.extend(other)

    def apply_partition(self, partition: int, accum, iteration: int) -> int:
        state = self._partition_state(partition)
        numeric = self.algorithm.make_accumulator(
            self.layout.vertex_count(partition)
        )
        updates = accum.drain() if accum is not None else None
        if updates is not None:
            self.algorithm.gather(numeric, *updates, state)
        return int(self.algorithm.apply(state, numeric, iteration))

    def finished(self, iteration: int, stats) -> bool:
        return self.algorithm.finished(iteration, stats)

    def final_values(self) -> Optional[State]:
        return self.values

    # -- checkpoint snapshots (fault tolerance) --------------------------

    def snapshot_partition(self, partition: int) -> State:
        """Deep copy of one partition's vertex state (checkpoint payload)."""
        return {
            name: np.copy(array)
            for name, array in self._partition_state(partition).items()
        }

    def restore_partition(self, partition: int, snapshot: State) -> None:
        """Overwrite one partition's vertex state from a checkpoint."""
        state = self._partition_state(partition)
        for name, array in state.items():
            if name not in snapshot:
                raise ValueError(f"checkpoint missing state array {name!r}")
            array[:] = snapshot[name]

    def reset_to_initial(self) -> None:
        """Roll all vertex state back to the algorithm's initial values.

        Used when a failure strikes before the first checkpoint becomes
        durable: recovery restarts the computation from scratch.
        """
        fresh = self.algorithm.init_values(self.ctx)
        for name, array in self.values.items():
            array[:] = fresh[name]


class ModelWorkload(Workload):
    """Phantom execution driven by an activity profile.

    ``profile`` supplies the iteration count and, per iteration, the
    updates one pass over the ``pass_edges`` edges produces (the whole
    edge set is streamed every scatter — the X-Stream/Chaos design).
    Each chunk emits its share of the pass's total, in proportion to the
    edges streamed so far, with the remainder carried to the next chunk,
    so a pass emits exactly the total.  Updates are routed to partitions
    proportionally to their vertex counts (uniform mixing, split by
    largest remainder), which matches random-destination skew well
    enough for capacity projections.
    """

    def __init__(
        self,
        algorithm: GasAlgorithm,
        layout: PartitionLayout,
        profile,
        pass_edges: int,
    ):
        self.algorithm = algorithm
        self.layout = layout
        self.profile = profile
        self.pass_edges = pass_edges
        self._weights = [
            layout.vertex_count(p) for p in range(layout.num_partitions)
        ]
        self._vertices = sum(self._weights)
        #: (iteration, its total, edges streamed, updates emitted so far)
        self._pass = (-1, 0, 0, 0)

    def vertex_set_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.vertex_bytes

    def accum_bytes(self, partition: int) -> int:
        return self.layout.vertex_count(partition) * self.algorithm.accum_bytes

    def scatter_chunk(
        self, partition: int, chunk: Chunk, iteration: int
    ) -> List[UpdateBatch]:
        pass_iteration, total, streamed, emitted = self._pass
        if pass_iteration != iteration:
            total = self.profile.updates(iteration, self.pass_edges)
            streamed = emitted = 0
        streamed += chunk.records
        due = total * streamed // self.pass_edges
        self._pass = (iteration, total, streamed, due)
        produced = due - emitted
        if produced <= 0:
            return []
        quotas = [produced * weight for weight in self._weights]
        counts = [quota // self._vertices for quota in quotas]
        short = produced - sum(counts)
        by_remainder = sorted(
            range(len(quotas)), key=lambda p: (-(quotas[p] % self._vertices), p)
        )
        for p in by_remainder[:short]:
            counts[p] += 1
        update_bytes = self.algorithm.update_bytes
        return [
            UpdateBatch(
                partition=p, count=count, nbytes=count * update_bytes,
                payload=None,
            )
            for p, count in enumerate(counts)
            if count > 0
        ]

    def begin_gather(self, partition: int):
        return None  # phantom accumulator

    def gather_chunk(self, partition: int, accum, chunk: Chunk) -> None:
        pass

    def merge_accumulators(self, partition: int, master_accum, other) -> None:
        pass

    def apply_partition(self, partition: int, accum, iteration: int) -> int:
        return 0

    def finished(self, iteration: int, stats) -> bool:
        return iteration + 1 >= self.profile.iterations
