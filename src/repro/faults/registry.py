"""Cluster-wide checkpoint generation tracking (Section 6.6).

Chaos checkpoints are two-phase: every machine writes its partitions'
vertex sets to a *new* generation, and only once all partitions of the
round are durable does the cluster retire the previous generation.  The
:class:`CheckpointRegistry` is the (zero-cost metadata) bookkeeping of
that protocol: it assigns each checkpoint round a storage *slot* — never
the slot holding the currently durable generation, so a crash halfway
through a round can always fall back to the previous complete one — and
records when a round becomes durable cluster-wide.

Slots map to vertex-chunk index bases far above the working vertex-set
indices (:data:`repro.store.placement.SLOT_BASES`), so checkpoint chunks
coexist with the live vertex chunks in the same chunk stores and are
read back through the same storage protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple


@dataclass
class CheckpointGeneration:
    """One durable checkpoint round."""

    #: (epoch, iteration, phase) of the round that wrote it.
    key: Tuple[int, int, int]
    #: Iteration to resume from when restoring this generation.
    resume_iteration: int
    #: Which double-buffer slot holds it.
    slot: int
    #: Simulated time the last partition's writes became durable.
    durable_at: float


class CheckpointRegistry:
    """Tracks checkpoint rounds and the latest durable generation."""

    def __init__(self, num_partitions: int, causal=None):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions
        #: Causal DAG recorder (``tracer.causal``) or None: checkpoint
        #: replication chains — each partition's durability, parented to
        #: the replica-write acks, joined by a round-completion mark —
        #: become part of the run's causal trace.  Pure annotation; the
        #: protocol never reads it.
        self._causal = causal if causal is not None and causal.enabled else None
        self._durable: Optional[CheckpointGeneration] = None
        # key -> [slot, resume_iteration, partitions_done]
        self._rounds: Dict[Tuple[int, int, int], list] = {}
        # key -> causal ids of the per-partition durability marks.
        self._round_marks: Dict[Tuple[int, int, int], list] = {}
        #: Rounds that completed (telemetry).
        self.rounds_completed = 0
        #: Replica locations (machine, partition, store_index) whose
        #: stored chunk failed integrity verification during a restore.
        #: Quarantined replicas are skipped until re-replication
        #: overwrites them with a verified copy.
        self._quarantined: Set[Tuple[int, int, int]] = set()
        self.replicas_quarantined = 0
        self.replicas_repaired = 0

    def round_slot(self, key: Tuple[int, int, int], resume_iteration: int) -> int:
        """The slot for round ``key`` (first caller opens the round).

        Every machine of a round calls this with the same key; the round
        is assigned the slot *not* holding the durable generation, so an
        in-progress round can never clobber the restore point.
        """
        entry = self._rounds.get(key)
        if entry is None:
            durable_slot = self._durable.slot if self._durable is not None else 1
            entry = [1 - durable_slot, resume_iteration, 0]
            self._rounds[key] = entry
        return entry[0]

    def note_durable(
        self,
        key: Tuple[int, int, int],
        partition: int,
        now: float,
        machine: Optional[int] = None,
        parent=None,
    ) -> None:
        """One partition's replica writes for round ``key`` are all acked.

        When every partition has reported, the round becomes the durable
        generation (retiring the previous one — its slot will be reused
        by the next round).  ``machine``/``parent`` annotate the causal
        trace with the replication chain that made the round durable.
        """
        entry = self._rounds.get(key)
        if entry is None:
            raise KeyError(f"checkpoint round {key} was never opened")
        entry[2] += 1
        if self._causal is not None:
            mark = self._causal.mark(
                "ckpt_durable",
                machine=machine,
                parent=parent,
                args={"ckpt": list(key), "partition": partition},
            )
            if mark is not None:
                self._round_marks.setdefault(key, []).append(mark["id"])
        if entry[2] == self.num_partitions:
            self._durable = CheckpointGeneration(
                key=key,
                resume_iteration=entry[1],
                slot=entry[0],
                durable_at=now,
            )
            self.rounds_completed += 1
            if self._causal is not None:
                self._causal.mark(
                    "ckpt_round",
                    parents=self._round_marks.pop(key, []),
                    args={"ckpt": list(key), "slot": entry[0]},
                )

    def latest_durable(self) -> Optional[CheckpointGeneration]:
        return self._durable

    # -- corrupt-replica quarantine -----------------------------------

    def quarantine_replica(
        self, machine: int, partition: int, store_index: int
    ) -> bool:
        """Mark one replica location as corrupt; True if newly marked."""
        key = (machine, partition, store_index)
        if key in self._quarantined:
            return False
        self._quarantined.add(key)
        self.replicas_quarantined += 1
        return True

    def is_quarantined(
        self, machine: int, partition: int, store_index: int
    ) -> bool:
        return (machine, partition, store_index) in self._quarantined

    def clear_quarantine(
        self, machine: int, partition: int, store_index: int
    ) -> None:
        """Re-replication rewrote the replica with a verified copy."""
        key = (machine, partition, store_index)
        if key in self._quarantined:
            self._quarantined.discard(key)
            self.replicas_repaired += 1
