"""Byzantine fault families and end-to-end integrity hardening.

The byzantine kinds corrupt *data* rather than killing machines:
message corruption/duplication/reordering in the transport, bit-flips,
torn writes and stale reads in the storage engines, and persistent rot
of stored checkpoint replicas.  With ``integrity_checks=True`` (the
default) the hardened stack — CRC-sealed chunks, verify-on-read,
per-stream sequence numbers, bounded seeded retry, quarantine and
re-replication — keeps the keystone invariant: final vertex values are
byte-identical to the undisturbed run's for the same ``(config, seed)``.
With ``integrity_checks=False`` the same faults silently diverge or
crash; those pre-hardening behaviours are pinned here so the hardened
assertions stay honest.
"""

from __future__ import annotations

import pytest

from repro.algorithms import PageRank
from repro.core.runtime import ChaosCluster
from repro.faults import (
    BYZANTINE_KINDS,
    FaultKind,
    FaultPlan,
    UnrecoverableJobError,
    parse_fault_spec,
)
from repro.sim.engine import DeadlineExceeded

from tests.conftest import fast_config


def _fault_config(**overrides):
    defaults = dict(checkpointing=True, seed=7)
    defaults.update(overrides)
    return fast_config(4, **defaults)


def _run(small_graph, specs=None, iterations=3, backend=None, **overrides):
    cluster = ChaosCluster(_fault_config(**overrides), backend_factory=backend)
    plan = (
        FaultPlan([parse_fault_spec(s) for s in specs]) if specs else None
    )
    result = cluster.run(
        PageRank(iterations=iterations), small_graph, fault_plan=plan
    )
    return result, cluster


def _assert_byte_identical(faulted, baseline):
    assert set(faulted.values) == set(baseline.values)
    for name in baseline.values:
        a, b = faulted.values[name], baseline.values[name]
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def pr_baseline(small_graph):
    cluster = ChaosCluster(_fault_config())
    return cluster.run(PageRank(iterations=3), small_graph)


# ---------------------------------------------------------------------------
# Spec grammar: the byzantine kinds round-trip through parse/describe
# ---------------------------------------------------------------------------


class TestByzantineSpecs:
    @pytest.mark.parametrize(
        "text",
        [
            "msg-corrupt:1@iter=1,count=2",
            "msg-dup:0@t=0.01",
            "msg-reorder:1@iter=0,count=3,delay=0.004",
            "chunk-bitflip:2@iter=1",
            "torn-write:1@t=0.02,count=2",
            "stale-read:0@iter=2",
            "ckpt-corrupt:1@iter=1,count=2",
        ],
    )
    def test_round_trip(self, text):
        spec = parse_fault_spec(text)
        assert spec.kind in BYZANTINE_KINDS
        assert spec.describe() == text
        assert parse_fault_spec(spec.describe()).describe() == text

    def test_byzantine_kinds_cover_the_seven(self):
        assert {k.value for k in BYZANTINE_KINDS} == {
            "msg-corrupt",
            "msg-dup",
            "msg-reorder",
            "chunk-bitflip",
            "torn-write",
            "stale-read",
            "ckpt-corrupt",
        }

    @pytest.mark.parametrize(
        "text, match",
        [
            ("msg-corrupt:1@iter=1,for=0.1", "for="),
            ("chunk-bitflip:1@iter=1,factor=2", "factor="),
            ("crash:1@iter=1,count=2", "count="),
            ("msg-corrupt:1@iter=1,count=0", "count="),
            ("msg-dup:1@iter=1,delay=0.01", "delay="),
            ("msg-reorder:1@iter=1,delay=0", "delay="),
            ("crash:1@iter=1,bogus=3", "expected down=, for=, factor=, "
                                       "count=, or delay="),
        ],
    )
    def test_invalid_options_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            spec = parse_fault_spec(text)
            spec.validate(_fault_config())

    def test_ckpt_corrupt_requires_checkpointing(self):
        spec = parse_fault_spec("ckpt-corrupt:0@iter=1")
        with pytest.raises(ValueError, match="checkpoint"):
            spec.validate(_fault_config(checkpointing=False))

    def test_plan_file_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "plan.faults"
        path.write_text(
            "# reproducer for episode 3\n"
            "\n"
            "torn-write:1@iter=1,count=2\n"
            "  # indented comment\n"
            "crash:0@iter=2\n"
        )
        plan = FaultPlan.load(str(path))
        assert [s.describe() for s in plan.specs] == [
            "torn-write:1@iter=1,count=2",
            "crash:0@iter=2",
        ]
        out = tmp_path / "copy.faults"
        plan.dump(str(out), header=("written by the test",))
        text = out.read_text()
        assert text.startswith("# written by the test")
        again = FaultPlan.load(str(out))
        assert [s.describe() for s in again.specs] == [
            s.describe() for s in plan.specs
        ]


# ---------------------------------------------------------------------------
# Keystone invariant under every fault kind (hardened stack)
# ---------------------------------------------------------------------------

#: Store-side detection counters of ``JobResult.integrity``; the compute
#: engines' ``integrity_retries`` makes the fifth column below.
DETECTIONS = (
    "integrity_rereads", "write_rejects", "torn_writes_repaired", "retransmits"
)
#: One plan per fault kind (and one more msg-corrupt that lands on
#: writes) -> what the stack detected on the commit *before* CRC verdicts
#: were remembered per chunk object (PR 21).  Skipping a walk must never
#: skip a detection: a count that moves means a copy inherited a verdict.
PARENT_DETECTIONS = {
    "crash:0@iter=2": (0, 0, 0, 0, 0),
    "crash-restart:1@iter=1,down=0.01": (0, 0, 0, 0, 0),
    "partition:1@iter=1,for=0.01": (0, 0, 0, 0, 0),
    "slow-device:1@iter=1,factor=4,for=0.01": (0, 0, 0, 0, 0),
    "msg-corrupt:1@iter=1,count=2": (0, 0, 0, 2, 2),
    "msg-corrupt:2@iter=0,count=6": (0, 3, 0, 3, 3),
    "msg-dup:1@iter=1,count=2": (0, 0, 0, 0, 0),
    "msg-reorder:1@iter=1,count=2,delay=0.002": (0, 0, 0, 0, 0),
    "chunk-bitflip:1@iter=1,count=2": (2, 0, 0, 0, 0),
    "torn-write:1@iter=1,count=2": (0, 0, 2, 0, 0),
    "stale-read:1@iter=1,count=2": (0, 0, 0, 0, 0),
    "ckpt-corrupt:1@iter=1,count=4": (0, 0, 0, 0, 0),
}


class TestHardenedByteIdentity:
    """Crossed with the chunk-store provider: hardening covers both."""

    @pytest.fixture(scope="class")
    def memory_counters(self, small_graph):
        """``JobResult.integrity`` of the memory-provider run, per spec."""
        cache = {}

        def counters(spec):
            if spec not in cache:
                cache[spec] = _run(small_graph, [spec])[0].integrity
            return cache[spec]

        return counters

    @pytest.mark.parametrize("spec", list(PARENT_DETECTIONS))
    def test_each_kind_is_byte_identical(
        self, small_graph, pr_baseline, spec, backend, memory_counters,
        integrity_retries,
    ):
        result, _ = _run(small_graph, [spec], backend=backend)
        detections = tuple(result.integrity[name] for name in DETECTIONS)
        assert detections + (integrity_retries(),) == PARENT_DETECTIONS[spec]
        _assert_byte_identical(result, pr_baseline)
        assert result.integrity == memory_counters(spec)

    def test_byzantine_mixed_with_crash(self, small_graph, pr_baseline, backend):
        result, cluster = _run(
            small_graph,
            ["torn-write:1@iter=0,count=2", "crash:0@iter=2"],
            backend=backend,
        )
        _assert_byte_identical(result, pr_baseline)
        assert cluster.last_fault_timeline.rounds

    def test_corruption_counters_move(self, small_graph, pr_baseline, backend):
        result, cluster = _run(
            small_graph, ["msg-corrupt:1@iter=1,count=2"], backend=backend
        )
        _assert_byte_identical(result, pr_baseline)
        assert cluster.last_network.messages_corrupted > 0
        assert result.integrity["retransmits"] > 0

    def test_torn_write_repaired_at_the_store(
        self, small_graph, pr_baseline, backend
    ):
        result, cluster = _run(
            small_graph, ["torn-write:1@iter=1,count=2"], backend=backend
        )
        _assert_byte_identical(result, pr_baseline)
        assert sum(s.torn_writes_repaired for s in cluster.last_stores) > 0


# ---------------------------------------------------------------------------
# Edge case: duplicate delivery (satellite)
# ---------------------------------------------------------------------------


class TestDuplicateDelivery:
    def test_hardened_duplicates_are_suppressed(self, small_graph, pr_baseline):
        result, cluster = _run(small_graph, ["msg-dup:1@iter=1,count=2"])
        _assert_byte_identical(result, pr_baseline)
        assert cluster.last_network.messages_duplicated > 0
        assert cluster.last_network.duplicates_suppressed > 0

    def test_unhardened_duplicate_crashes_the_engine(self, small_graph):
        """Pre-hardening pin: without sequence numbers a duplicated
        reply reaches an engine that no longer expects it."""
        with pytest.raises(RuntimeError, match="unexpected reply"):
            _run(
                small_graph,
                ["msg-dup:1@iter=1,count=2"],
                integrity_checks=False,
            )


# ---------------------------------------------------------------------------
# Edge case: reordering across a partition heal (satellite)
# ---------------------------------------------------------------------------


class TestPartitionHealReordering:
    SPECS = [
        "partition:1@iter=1,for=0.01",
        "msg-reorder:1@iter=1,count=2,delay=0.002",
    ]

    def test_hardened_reordering_is_byte_identical(
        self, small_graph, pr_baseline
    ):
        result, cluster = _run(small_graph, self.SPECS)
        _assert_byte_identical(result, pr_baseline)
        assert cluster.last_network.messages_reordered > 0

    def test_unhardened_reordering_pinned(self, small_graph, pr_baseline):
        """Pre-hardening pin: reordering alone stays byte-identical even
        without integrity checks, because every request/reply pair is
        matched by request id rather than arrival order.  (Duplication
        is the kind that breaks the unhardened stack — see
        TestDuplicateDelivery.)"""
        result, cluster = _run(
            small_graph, self.SPECS, integrity_checks=False
        )
        _assert_byte_identical(result, pr_baseline)
        assert cluster.last_network.messages_reordered > 0


# ---------------------------------------------------------------------------
# Checkpoint-replica rot: quarantine, re-replication, graceful refusal
# ---------------------------------------------------------------------------


class TestCheckpointQuarantine:
    def test_rot_on_one_replica_is_repaired(self, small_graph):
        config_kw = dict(vertex_replicas=2)
        baseline = ChaosCluster(_fault_config(**config_kw)).run(
            PageRank(iterations=3), small_graph
        )
        result, cluster = _run(
            small_graph,
            ["ckpt-corrupt:1@iter=1,count=64", "crash:0@iter=1"],
            **config_kw,
        )
        _assert_byte_identical(result, baseline)
        registry = cluster.last_registry
        assert registry.replicas_quarantined > 0
        assert registry.replicas_repaired == registry.replicas_quarantined

    def test_rot_on_every_replica_is_diagnosed(self, small_graph):
        cluster = ChaosCluster(_fault_config(vertex_replicas=2))
        specs = [
            f"ckpt-corrupt:{m}@iter=1,count=64" for m in range(4)
        ] + ["crash:0@iter=1"]
        plan = FaultPlan([parse_fault_spec(s) for s in specs])
        with pytest.raises(UnrecoverableJobError) as excinfo:
            cluster.run(PageRank(iterations=3), small_graph, fault_plan=plan)
        diagnosis = excinfo.value.diagnosis
        assert diagnosis.cause == "checkpoint-unreadable"
        assert diagnosis.quarantined
        assert "unrecoverable job" in diagnosis.render()
        # The registry stays inspectable after the refusal.
        assert cluster.last_registry.replicas_quarantined > 0


# ---------------------------------------------------------------------------
# Trace-report recovery decomposition: retry_wait / integrity categories
# ---------------------------------------------------------------------------


class TestRecoveryCategories:
    @pytest.fixture(scope="class")
    def traced_quarantine_run(self, small_graph):
        from repro.obs import Tracer, chrome_trace_dict, trace_report

        tracer = Tracer(sample_interval=None)
        cluster = ChaosCluster(
            _fault_config(vertex_replicas=2), tracer=tracer
        )
        specs = ["ckpt-corrupt:1@iter=1,count=64", "crash:0@iter=1"]
        cluster.run(
            PageRank(iterations=3),
            small_graph,
            fault_plan=FaultPlan([parse_fault_spec(s) for s in specs]),
        )
        return trace_report(chrome_trace_dict(tracer))

    def test_new_categories_are_ingested(self, traced_quarantine_run):
        summary = traced_quarantine_run["summary"]
        assert summary["category_seconds"].get("retry_wait", 0.0) > 0
        assert summary["category_seconds"].get("integrity", 0.0) > 0
        assert summary["instants"].get("integrity.ckpt_quarantine", 0) > 0

    def test_report_shows_overlapping_detail_rows(self, traced_quarantine_run):
        from repro.obs import format_trace_report

        report = format_trace_report(traced_quarantine_run)
        assert "recovery decomposition" in report
        assert "retry_wait" in report
        assert "integrity" in report
        assert "(overlapping)" in report

    def test_useful_subtracts_only_wall_categories(self, traced_quarantine_run):
        """retry_wait/integrity spans overlap the lost/restore windows;
        subtracting them too would double-count."""
        import re

        from repro.obs import (
            RECOVERY_WALL_CATEGORIES,
            format_trace_report,
        )

        summary = traced_quarantine_run["summary"]
        assert RECOVERY_WALL_CATEGORIES == ("lost", "restore")
        report = format_trace_report(traced_quarantine_run)
        match = re.search(r"useful\s+([0-9.]+)s", report)
        assert match is not None
        useful = float(match.group(1))
        wall = sum(
            summary["category_seconds"].get(cat, 0.0)
            for cat in RECOVERY_WALL_CATEGORIES
        )
        assert useful == pytest.approx(
            summary["duration"] - wall, abs=1e-6
        )


# ---------------------------------------------------------------------------
# Deadline watchdog
# ---------------------------------------------------------------------------


class TestDeadlineWatchdog:
    def test_impossible_deadline_raises(self, small_graph):
        cluster = ChaosCluster(_fault_config())
        with pytest.raises(DeadlineExceeded, match="deadline"):
            cluster.run(
                PageRank(iterations=3),
                small_graph,
                deadline_seconds=1e-6,
            )

    def test_generous_deadline_is_invisible(self, small_graph, pr_baseline):
        cluster = ChaosCluster(_fault_config())
        result = cluster.run(
            PageRank(iterations=3), small_graph, deadline_seconds=1e6
        )
        _assert_byte_identical(result, pr_baseline)


# ---------------------------------------------------------------------------
# Pre-hardening divergence pins (integrity_checks=False)
# ---------------------------------------------------------------------------


class TestUnhardenedDivergence:
    @pytest.mark.parametrize(
        "spec",
        [
            "msg-corrupt:1@iter=1,count=2",
            "chunk-bitflip:1@iter=1,count=2",
            "torn-write:1@iter=1,count=2",
        ],
    )
    def test_corruption_silently_diverges(self, small_graph, pr_baseline, spec):
        result, _ = _run(small_graph, [spec], integrity_checks=False)
        assert set(result.values) == set(pr_baseline.values)
        diverged = any(
            result.values[name].tobytes() != pr_baseline.values[name].tobytes()
            for name in pr_baseline.values
        )
        assert diverged, f"{spec} should corrupt the result when unhardened"

    def test_kind_enum_matches_grammar(self):
        for kind in BYZANTINE_KINDS:
            assert isinstance(kind, FaultKind)
