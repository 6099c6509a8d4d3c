"""Deterministic bounded retry with seeded exponential backoff + jitter.

Every retried RPC in the engine (chunk reads, steal proposals, restore
reads, integrity re-requests) draws its wait schedule from here.  Two
properties matter:

* **Determinism** — the jitter RNG is seeded from ``(config.seed,
  machine, request_id)``, so a retried schedule is a pure function of
  the run's identity and the byte-identical recovery invariant holds.
* **Boundedness** — the schedule is geometric with a cap; after
  ``attempts`` waits it repeats the capped delay forever, so a caller
  polling a slow-but-alive peer keeps making progress without the
  unbounded blow-up a naive ``2**n`` gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "RetryPolicy",
    "backoff_delays",
    "jittered_delay",
    "retry_rng_seed",
]

#: Protocol transition annotations consumed by the state-machine
#: extractor (:mod:`repro.analysis.protocol.extract`).  Labels starting
#: with ``timeout`` mark these as liveness escapes for the send sites of
#: a function that draws its schedule from one of them: the request is
#: retried or abandoned (the model checker's steal timeout).  They do
#: not time a wait — rule CHX021 judges each ``yield`` on its own, and
#: only racing the event against a timer (``any_of``) bounds it.
PROTOCOL_TRANSITIONS = {
    "jittered_delay": "timeout.backoff",
    "backoff_delays": "timeout.backoff",
    "delay": "timeout.backoff",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Geometric backoff schedule: ``base * factor**n``, capped."""

    base: float
    factor: float = 2.0
    cap: float = float("inf")
    #: Waits that grow; past this the capped delay repeats.
    attempts: int = 6
    #: Jitter fraction: each delay is scaled by ``1 - jitter*u`` with
    #: ``u`` uniform in [0, 1), i.e. jitter only ever *shortens* a wait
    #: so the policy's cap stays a true upper bound.
    jitter: float = 0.25

    def __post_init__(self):
        if self.base <= 0:
            raise ValueError(f"base must be positive, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """The ``attempt``-th wait (0-based), with seeded jitter."""
        exponent = min(attempt, self.attempts - 1)
        raw = min(self.base * (self.factor ** exponent), self.cap)
        return raw * (1.0 - self.jitter * rng.random())


def retry_rng_seed(config_seed: int, machine: int, request_id: int) -> int:
    """Stable per-request jitter seed (same scheme as the engine RNGs)."""
    return config_seed * 1_000_003 + machine * 7919 + request_id * 31 + 17


def jittered_delay(
    policy: RetryPolicy,
    attempt: int,
    config_seed: int,
    machine: int,
    request_id: int,
) -> float:
    """One seeded jittered delay for the ``attempt``-th retry of an RPC.

    This is the single call every retry site in the engine and the
    recovery supervisor uses (chunk re-reads, corrupt-write resends,
    steal liveness probes, restore replica cycling), so the causal trace
    of a retry chain always reflects the exact same schedule the
    protocol executed.  The jitter RNG is freshly seeded per call from
    ``(config_seed, machine, request_id)`` — a pure function of the
    run's identity, independent of call order.
    """
    rng = random.Random(retry_rng_seed(config_seed, machine, request_id))
    return policy.delay(attempt, rng)


def backoff_delays(
    policy: RetryPolicy, config_seed: int, machine: int, request_id: int
) -> Iterator[float]:
    """Endless deterministic delay sequence for one logical RPC."""
    rng = random.Random(retry_rng_seed(config_seed, machine, request_id))
    attempt = 0
    while True:
        yield policy.delay(attempt, rng)
        attempt += 1
