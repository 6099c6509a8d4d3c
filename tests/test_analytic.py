"""The closed-form runtime model, and the simulator validated against it.

These are the strongest end-to-end checks in the suite: the paper's
design argument — storage devices saturated, load balanced — implies a
closed-form runtime; the discrete-event simulation of the full protocol
must land near it in the streaming-dominated regime.
"""

import pytest

from repro.algorithms import PageRank
from repro.core import ClusterConfig
from repro.core.runtime import run_algorithm
from repro.graph import rmat_graph
from repro.net.topology import GIGE_40_BENCH
from repro.perf.analytic import (
    aggregate_effective_bandwidth,
    predict_runtime,
    volumes_for_pagerank,
    volumes_from_result,
)
from repro.store.device import SSD_BENCH


class TestVolumes:
    def test_pagerank_traffic_formula(self):
        volumes = volumes_for_pagerank(
            num_vertices=100, num_edges=1000, iterations=2
        )
        traffic = volumes.storage_traffic()
        expected = (
            2 * 8000  # preprocessing read + write
            + 2 * 8000  # two edge passes
            + 2 * 2 * 8000  # updates written + read, per iteration
            + 2 * 3 * 800  # vertex set: 2 loads + 1 store per iteration
        )
        assert traffic == expected

    def test_checkpointing_adds_vertex_images(self):
        volumes = volumes_for_pagerank(100, 1000, iterations=2)
        delta = volumes.storage_traffic(True) - volumes.storage_traffic(False)
        assert delta == 2 * 2 * 800  # two extra images per iteration


class TestAggregateBandwidth:
    def test_scales_with_machines(self):
        from repro.core.batching import utilization

        one = aggregate_effective_bandwidth(ClusterConfig(machines=1))
        many = aggregate_effective_bandwidth(ClusterConfig(machines=8))
        assert many > 7 * one
        assert many == pytest.approx(8 * one * utilization(8, 5))

    def test_bounded_by_line_rate(self):
        config = ClusterConfig(machines=4)
        assert aggregate_effective_bandwidth(config) <= 4 * config.device.bandwidth

    def test_latency_degrades_small_chunks(self):
        big = aggregate_effective_bandwidth(ClusterConfig(chunk_bytes=1 << 22))
        small = aggregate_effective_bandwidth(ClusterConfig(chunk_bytes=1 << 12))
        assert small < big


class TestSimulatorAgainstClosedForm:
    """The headline validation: protocol simulation ≈ design math."""

    @pytest.mark.parametrize("machines", [1, 4, 16])
    def test_pagerank_within_tolerance(self, machines):
        scale = 13
        graph = rmat_graph(scale, seed=2)
        config = ClusterConfig(
            machines=machines,
            chunk_bytes=4096,
            partitions_per_machine=1,
            device=SSD_BENCH,
            network=GIGE_40_BENCH,
        )
        iterations = 4
        result = run_algorithm(PageRank(iterations=iterations), graph, config)

        volumes = volumes_from_result(
            result,
            input_bytes=graph.storage_bytes(),
            vertex_set_bytes=graph.num_vertices * PageRank.vertex_bytes,
        )
        predicted = predict_runtime(volumes, config)
        # The simulator carries real overheads (barriers, tails, steal
        # traffic) the closed form ignores, so it runs somewhat slower —
        # but in the streaming regime it must be close, and never faster
        # than physics minus a small accounting slack.
        ratio = result.runtime / predicted
        assert 0.95 < ratio < 1.8, f"sim/model ratio {ratio:.2f} at m={machines}"

    def test_prediction_matches_measured_traffic(self):
        graph = rmat_graph(12, seed=3)
        config = ClusterConfig(
            machines=2,
            chunk_bytes=4096,
            partitions_per_machine=1,
            device=SSD_BENCH,
            network=GIGE_40_BENCH,
        )
        result = run_algorithm(PageRank(iterations=3), graph, config)
        volumes = volumes_from_result(
            result,
            input_bytes=graph.storage_bytes(),
            vertex_set_bytes=graph.num_vertices * PageRank.vertex_bytes,
        )
        # The simulator's actual storage traffic is close to the model's
        # (steal-time vertex re-reads add a little).
        assert result.storage_bytes == pytest.approx(
            volumes.storage_traffic(), rel=0.15
        )

    def test_hdd_prediction_doubles(self):
        from repro.store.device import HDD_BENCH

        graph = rmat_graph(12, seed=3)
        base = dict(
            machines=2,
            chunk_bytes=4096,
            partitions_per_machine=1,
            network=GIGE_40_BENCH,
        )
        volumes = volumes_for_pagerank(
            graph.num_vertices, graph.num_edges, iterations=3
        )
        ssd = predict_runtime(volumes, ClusterConfig(device=SSD_BENCH, **base))
        hdd = predict_runtime(volumes, ClusterConfig(device=HDD_BENCH, **base))
        assert hdd / ssd == pytest.approx(2.0, rel=0.05)
