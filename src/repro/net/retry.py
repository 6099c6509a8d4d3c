"""Deterministic bounded retry with seeded exponential backoff + jitter.

Every retried RPC draws its wait from :func:`jittered_delay`, on the
policy :class:`~repro.core.config.ClusterConfig` derives from its
heartbeat (``integrity_policy()``): the wait before a re-send of a
corrupt frame, and before a restore read past the first.  Two
properties matter:

* **Determinism** — the jitter RNG is seeded from ``(config.seed,
  machine, request_id)``, so a retried schedule is a pure function of
  the run's identity and the byte-identical recovery invariant holds.
* **Boundedness** — the schedule is geometric with a cap; after
  ``attempts`` waits it repeats the capped delay, so a long run of
  retries never waits longer than the cap, without the unbounded
  blow-up a naive ``2**n`` gives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = [
    "RetryPolicy",
    "jittered_delay",
    "retry_rng_seed",
]


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


_RNG = random.Random(0)  # reseeded before each jittered_delay draw


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

    The engine's integrity backoff and the restore step's replica
    cycling each call it once per retry.  The jitter RNG is reseeded per
    call from ``(config_seed, machine, request_id)`` — a pure function
    of the run's identity, independent of call order.
    """
    _RNG.seed(retry_rng_seed(config_seed, machine, request_id))
    return policy.delay(attempt, _RNG)
