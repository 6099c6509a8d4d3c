"""Unit tests for cluster configuration and metrics containers."""

import math

import pytest

from repro.core import ClusterConfig
from repro.core.metrics import BREAKDOWN_CATEGORIES, Breakdown, JobResult
from repro.net.topology import GIGE_1
from repro.store.device import HDD_RAID0


class TestClusterConfig:
    def test_defaults_match_paper_cluster(self):
        config = ClusterConfig()
        assert config.cores == 16
        assert config.memory_bytes == 32 * 2**30
        assert config.device.name == "SSD"
        assert config.network.name == "40GigE"
        assert config.chunk_bytes == 4 * 1024 * 1024
        assert config.batch_factor == 5

    def test_default_window_is_ten(self):
        """SSD latency == 40 GigE RTT -> phi = 2, window = phi*k = 10."""
        assert ClusterConfig().effective_request_window() == 10

    def test_window_override(self):
        config = ClusterConfig(request_window_override=3)
        assert config.effective_request_window() == 3

    def test_with_creates_modified_copy(self):
        base = ClusterConfig()
        modified = base.with_(machines=8, device=HDD_RAID0)
        assert modified.machines == 8
        assert modified.device is HDD_RAID0
        assert base.machines == 1  # original untouched

    def test_stealing_enabled_property(self):
        assert ClusterConfig(steal_alpha=1.0).stealing_enabled
        assert not ClusterConfig(steal_alpha=0.0).stealing_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(machines=0)
        with pytest.raises(ValueError):
            ClusterConfig(cores=0)
        with pytest.raises(ValueError):
            ClusterConfig(chunk_bytes=0)
        with pytest.raises(ValueError):
            ClusterConfig(batch_factor=0)
        with pytest.raises(ValueError):
            ClusterConfig(placement="magic")
        with pytest.raises(ValueError):
            ClusterConfig(steal_alpha=-1)
        with pytest.raises(ValueError):
            ClusterConfig(request_window_override=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steal_alpha", math.nan),
            ("memory_bytes", 0),
            ("directory_lookups_per_second", 0),
            ("directory_lookups_per_second", math.nan),
            ("partitions_per_machine", 0),
            ("partitions_per_machine", -1),
            ("cpu_seconds_per_edge", -1),
            ("cpu_seconds_per_update", math.nan),
            ("cpu_seconds_per_vertex", math.inf),
        ],
    )
    def test_rejects_nan_zero_and_negative(self, field, value):
        # Plain ``<`` checks let NaN through: stealing silently off at
        # alpha = NaN, a ZeroDivisionError deep in partitioning at zero
        # partitions per machine.
        with pytest.raises(ValueError, match=field.split("_per_")[0]):
            ClusterConfig(**{field: value})

    def test_slow_network_raises_phi(self):
        config = ClusterConfig(network=GIGE_1)
        # 1 GigE RTT (200 us) against 100 us SSD latency: phi = 3.
        assert config.effective_request_window() == 15


class TestBreakdown:
    def test_add_and_total(self):
        breakdown = Breakdown()
        breakdown.add("gp_master", 2.0)
        breakdown.add("barrier", 1.0)
        assert breakdown.total() == pytest.approx(3.0)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            Breakdown().add("coffee", 1.0)

    def test_fractions_sum_to_one(self):
        breakdown = Breakdown()
        for category in BREAKDOWN_CATEGORIES:
            breakdown.add(category, 1.0)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_fractions_are_zero(self):
        assert all(v == 0.0 for v in Breakdown().fractions().values())

    def test_merged_with(self):
        a = Breakdown()
        a.add("merge", 1.0)
        b = Breakdown()
        b.add("merge", 2.0)
        b.add("copy", 1.0)
        merged = a.merged_with(b)
        assert merged.merge == pytest.approx(3.0)
        assert merged.copy == pytest.approx(1.0)
        assert a.merge == pytest.approx(1.0)  # inputs untouched


class TestJobResult:
    def test_aggregate_bandwidth(self):
        result = JobResult(
            algorithm="x",
            machines=2,
            runtime=2.0,
            preprocessing_seconds=0.5,
            iterations=1,
            storage_bytes=800,
        )
        assert result.aggregate_bandwidth == pytest.approx(400.0)

    def test_zero_runtime_bandwidth(self):
        result = JobResult(
            algorithm="x",
            machines=1,
            runtime=0.0,
            preprocessing_seconds=0.0,
            iterations=0,
        )
        assert result.aggregate_bandwidth == 0.0

    def test_summary_mentions_algorithm(self):
        result = JobResult(
            algorithm="PR",
            machines=4,
            runtime=1.0,
            preprocessing_seconds=0.1,
            iterations=5,
        )
        assert "PR" in result.summary()
