"""Chunk placement policies.

Chaos' default (Section 6.3): to store a chunk of edges or updates, pick
a storage engine uniformly at random; to retrieve one, again pick a
storage engine uniformly at random and ask it for *any* unprocessed
chunk of the partition.  Vertex chunks instead map to engines by hashing
(partition, chunk index) so they can be found without a directory
(Section 6.4).

The :class:`CentralizedDirectory` is the Figure 15 baseline: a single
meta-data server through which every read and write must be routed,
"which increasingly becomes a bottleneck".
"""

from __future__ import annotations

import random
from typing import Optional, Set

from repro.net.transport import (
    DIRECTORY_SERVICE,
    MESSAGE_KINDS,
    Network,
    undeclared_kind,
)
from repro.sim.engine import Simulator
from repro.sim.resources import FifoServer


class RandomPlacement:
    """Uniform random selection of a storage engine (the Chaos default)."""

    def __init__(self, machines: int, seed: int = 0):
        if machines < 1:
            raise ValueError("machines must be >= 1")
        self.machines = machines
        self._rng = random.Random(seed)

    def choose_write(self) -> int:
        """Storage engine for a new edge/update chunk."""
        return self._rng.randrange(self.machines)

    def choose_read(self, excluded: Set[int]) -> Optional[int]:
        """Storage engine to ask for a chunk, avoiding exhausted engines.

        Returns ``None`` when every engine is exhausted (the signal that
        the partition's input is empty, Section 6.3).
        """
        candidates = [m for m in range(self.machines) if m not in excluded]
        if not candidates:
            return None
        return self._rng.choice(candidates)


class HashedVertexPlacement:
    """Deterministic engine for each vertex chunk (Section 6.4).

    Every machine computes the same mapping, so vertex chunks are found
    without any directory.  A fixed odd multiplier gives a uniform spread
    across engines regardless of partition/index regularities.
    """

    _MIX = 2654435761  # Knuth's multiplicative-hash constant

    def __init__(self, machines: int):
        if machines < 1:
            raise ValueError("machines must be >= 1")
        self.machines = machines

    def machine_for(self, partition: int, index: int) -> int:
        mixed = ((partition + 1) * self._MIX + (index + 1) * 40503) & 0xFFFFFFFF
        return mixed % self.machines

    def machines_for(self, partition: int, index: int, replicas: int) -> list:
        """Primary plus ``replicas - 1`` distinct successor machines.

        Used by the vertex-set replication extension (Section 6.6 notes
        storage-failure tolerance "could easily be added by replicating
        the vertex sets").
        """
        if not 1 <= replicas <= self.machines:
            raise ValueError(
                f"replicas must be in [1, {self.machines}], got {replicas}"
            )
        primary = self.machine_for(partition, index)
        return [(primary + offset) % self.machines for offset in range(replicas)]


class CentralizedDirectory:
    """Figure 15 baseline: a central chunk-location server.

    Every chunk read and write first consults the directory on machine
    ``home``; the directory serializes lookups on a single queue (it is
    one server process), which is precisely what makes it a scaling
    bottleneck.  The directory assigns write locations round-robin and
    remembers where chunks live.

    The directory is modelled as a :class:`FifoServer` whose "bandwidth"
    is requests/second; each lookup costs one request.
    """

    LOOKUP_MESSAGE_BYTES = 48

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        home: int = 0,
        lookups_per_second: float = 200_000.0,
        seed: int = 0,
    ):
        self.sim = sim
        self.network = network
        self.home = home
        self._rng = random.Random(seed)
        # One lookup == one unit of "size" through a FIFO server whose
        # bandwidth is lookups/second.
        self._server = FifoServer(
            sim, bandwidth=lookups_per_second, latency=0.0, name="directory"
        )
        self._mailbox = network.register(home, DIRECTORY_SERVICE)
        self._next_request = 0
        self.lookups = 0
        sim.process(self._serve(), name="directory")

    def _serve(self):
        accepted = MESSAGE_KINDS[DIRECTORY_SERVICE]
        while True:
            message = yield self._mailbox.get()
            if message.kind not in accepted:
                raise undeclared_kind(self.home, message)
            request_id, reply_machine, reply_service = message.payload
            self.lookups += 1
            self._server.service(
                1.0, then=self._reply,
                args=(request_id, reply_machine, reply_service),
            )

    def _reply(self, request_id: int, reply_machine: int, reply_service: str):
        location = self._rng.randrange(self.network.machines)
        self.network.send(
            src=self.home,
            dst=reply_machine,
            service=reply_service,
            kind="directory_reply",
            size=self.LOOKUP_MESSAGE_BYTES,
            payload=(request_id, location),
        )

    def lookup_from(
        self, machine: int, reply_service: str, request_id: int
    ) -> None:
        """Send a lookup request on behalf of ``machine``."""
        self.network.send(
            src=machine,
            dst=self.home,
            service=DIRECTORY_SERVICE,
            kind="directory_lookup",
            size=self.LOOKUP_MESSAGE_BYTES,
            payload=(request_id, machine, reply_service),
        )
