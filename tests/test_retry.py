"""Direct unit coverage for :mod:`repro.net.retry`.

The two contracts every retry site in the engine leans on: delays are
*bounded* (geometric growth to a cap, jitter only ever shortens) and
*deterministic* (a pure function of ``(config.seed, machine,
request_id, attempt)``, independent of call order).
"""

from __future__ import annotations

import inspect
import random

import pytest

from repro.algorithms import PageRank
from repro.core import compute
from repro.core.compute import INTEGRITY_ATTEMPTS
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.graph import rmat_graph
from repro.net.retry import RetryPolicy, jittered_delay, retry_rng_seed
from repro.net.transport import Network
from repro.store import engine as store_engine
from repro.store.chunk import ChunkKind


POLICY = RetryPolicy(base=0.01, factor=2.0, cap=0.5, attempts=5,
                     jitter=0.25)


def _raw(policy, attempt):
    exponent = min(attempt, policy.attempts - 1)
    return min(policy.base * policy.factor ** exponent, policy.cap)


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(base=0.0),
        dict(base=-1.0),
        dict(base=0.1, factor=0.5),
        dict(base=0.1, attempts=0),
        dict(base=0.1, jitter=1.0),
        dict(base=0.1, jitter=-0.1),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBounds:
    def test_delay_never_exceeds_raw_schedule_or_cap(self):
        for attempt in range(12):
            for request_id in range(8):
                delay = jittered_delay(POLICY, attempt, 7, 1, request_id)
                raw = _raw(POLICY, attempt)
                assert 0.0 < delay <= raw <= POLICY.cap

    def test_jitter_only_shortens_within_its_fraction(self):
        for attempt in range(12):
            delay = jittered_delay(POLICY, attempt, 7, 1, attempt)
            raw = _raw(POLICY, attempt)
            assert delay >= raw * (1.0 - POLICY.jitter)

    def test_schedule_caps_after_attempts(self):
        flat = RetryPolicy(base=0.01, factor=2.0, cap=10.0, attempts=3,
                           jitter=0.0)
        rng = random.Random(0)
        delays = [flat.delay(a, rng) for a in range(8)]
        assert delays[0] < delays[1] < delays[2]
        assert delays[2:] == [delays[2]] * 6  # repeats, never grows

    def test_cap_binds_before_attempts_run_out(self):
        capped = RetryPolicy(base=1.0, factor=10.0, cap=5.0, attempts=6,
                             jitter=0.0)
        rng = random.Random(0)
        assert capped.delay(4, rng) == 5.0


class TestDeterminism:
    def test_same_identity_same_delay(self):
        first = jittered_delay(POLICY, 3, 7, 2, 41)
        second = jittered_delay(POLICY, 3, 7, 2, 41)
        assert first == second

    def test_each_identity_component_perturbs_the_delay(self):
        base = jittered_delay(POLICY, 3, 7, 2, 41)
        assert jittered_delay(POLICY, 3, 8, 2, 41) != base
        assert jittered_delay(POLICY, 3, 7, 3, 41) != base
        assert jittered_delay(POLICY, 3, 7, 2, 42) != base

    def test_seed_mix_is_injective_on_small_grid(self):
        seeds = {
            retry_rng_seed(cs, m, rid)
            for cs in range(4) for m in range(4) for rid in range(16)
        }
        assert len(seeds) == 4 * 4 * 16


class TestIntegrityGiveUp:
    """A link that damages every frame of one kind fails the job loudly
    after exactly ``INTEGRITY_ATTEMPTS`` sends of one request, on each of
    the three resend paths, instead of retrying forever."""

    @pytest.mark.parametrize("path, module, damaged, kinds", [
        ("write", store_engine, ChunkKind.UPDATES, ("write",)),
        ("read", compute, ChunkKind.EDGES, ("read", "read_retry")),
        ("vread", compute, ChunkKind.VERTICES, ("vread",)),
    ], ids=["write", "read", "vread"])
    def test_persistent_corruption_fails_after_the_bound(
        self, monkeypatch, path, module, damaged, kinds
    ):
        monkeypatch.setattr(
            module, "verify_chunk", lambda chunk: chunk.kind is not damaged
        )
        attempts = []
        send = Network.send
        signature = inspect.signature(send)

        def recording_send(network, *args, **kwargs):
            # Call sites pass the arguments by position or by keyword.
            call = signature.bind(network, *args, **kwargs).arguments
            if call["kind"] in kinds:
                attempts.append(call.get("attempt", 0))
            return send(network, *args, **kwargs)

        monkeypatch.setattr(Network, "send", recording_send)
        cluster = ChaosCluster(ClusterConfig(machines=2, chunk_bytes=4096))
        with pytest.raises(RuntimeError, match=rf"{path} \d+ corrupt on all"):
            cluster.run(PageRank(iterations=1), rmat_graph(8, seed=1))
        assert max(attempts) == INTEGRITY_ATTEMPTS - 1
