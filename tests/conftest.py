"""Shared fixtures: small graphs and fast cluster configurations.

Functional tests run on small RMAT graphs with small chunks so that the
simulated cluster still exercises multi-chunk streaming, multi-partition
layouts and work stealing, while each test stays sub-second.
"""

from __future__ import annotations

import pytest
from hypothesis import settings as hypothesis_settings

from repro.core import ClusterConfig

# Property tests run real cluster simulations; wall-clock deadlines make
# them flaky under load (e.g. while the benchmark suite runs next door).
hypothesis_settings.register_profile("repro", deadline=None)
hypothesis_settings.load_profile("repro")
from repro.graph import rmat_graph, to_undirected
from repro.net.topology import GIGE_40_SCALED
from repro.store import FileChunkStore, MemoryChunkStore
from repro.store.device import SSD_SCALED

#: The chunk-store providers every store / fault test is crossed with.
PROVIDERS = ("memory", "file")


def make_store(provider: str, root):
    """One chunk store of the named provider (files under ``root``)."""
    if provider == "memory":
        return MemoryChunkStore()
    return FileChunkStore(str(root))


@pytest.fixture(scope="session")
def small_graph():
    """Directed RMAT-8: 256 vertices, 4096 edges."""
    return rmat_graph(8, seed=5)


@pytest.fixture(scope="session")
def small_weighted_graph():
    return rmat_graph(8, seed=5, weighted=True)


@pytest.fixture(scope="session")
def small_undirected_graph(small_weighted_graph):
    return to_undirected(small_weighted_graph)


@pytest.fixture(scope="session")
def medium_graph():
    """Directed RMAT-11: 2048 vertices, 32768 edges."""
    return rmat_graph(11, seed=9)


def fast_config(machines: int = 4, **overrides) -> ClusterConfig:
    """A cluster config tuned for fast functional tests."""
    defaults = dict(
        machines=machines,
        chunk_bytes=2048,
        partitions_per_machine=2,
        device=SSD_SCALED,
        network=GIGE_40_SCALED,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def assert_usage_error(capsys, argv, message):
    """``repro argv`` exits 2 with ``message`` on stderr and nothing on
    stdout (for ``run``: no ``graph:``/``cluster:`` line, so no work)."""
    from repro.cli import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.fixture(params=PROVIDERS)
def backend(request, tmp_path):
    """A ``ChaosCluster(backend_factory=...)``, once per provider."""
    return lambda machine: make_store(request.param, tmp_path / f"m{machine}")


@pytest.fixture
def integrity_retries(monkeypatch):
    """Corrupt replies re-requested by the compute engines of every job
    run in this test (the one detection counter ``JobResult.integrity``
    does not carry)."""
    from repro.core.compute import ComputationEngine

    engines, init = [], ComputationEngine.__init__

    def recording_init(engine, *args, **kwargs):
        engines.append(engine)
        init(engine, *args, **kwargs)

    monkeypatch.setattr(ComputationEngine, "__init__", recording_init)
    return lambda: sum(engine.integrity_retries for engine in engines)


@pytest.fixture
def config4():
    return fast_config(4)


@pytest.fixture
def config1():
    return fast_config(1)
