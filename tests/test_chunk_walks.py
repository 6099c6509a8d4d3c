"""A chunk's bytes are walked once per materialisation, and not again.

``store.integrity`` remembers a CRC verdict on the chunk object that
earned it, so a job walks a chunk when it is produced (``seal_chunk``),
when it is decoded from a file and when an injector clones it — never
because the same object crossed another hop.  These tests count the
``codec.checksum`` calls of whole jobs, by call site, and pin what the
hardened stack detected on the commit before the verdict was remembered.
"""

from __future__ import annotations

import collections
import hashlib
import sys

import pytest

from repro.algorithms import WCC, PageRank
from repro.core.config import ClusterConfig
from repro.core.runtime import ChaosCluster
from repro.faults import FaultPlan
from repro.graph import rmat_graph
from repro.net.topology import GIGE_40_BENCH
from repro.store import codec
from repro.store.device import SSD_BENCH

from tests.conftest import fast_config, make_store
from tests.test_byzantine import DETECTIONS


@pytest.fixture
def walks(monkeypatch):
    """Calls by (entry point, the function that called it):
    ``codec.checksum`` under ``seal_chunk`` | ``verify_chunk``, and
    ``codec.decode`` under ``"decode"``."""
    counts = collections.Counter()
    checksum, decode = codec.checksum, codec.decode

    def counted_checksum(chunk):
        entry, site = sys._getframe(1), sys._getframe(2)
        counts[entry.f_code.co_name, site.f_code.co_name] += 1
        return checksum(chunk)

    def counted_decode(layout, extent):
        counts["decode", sys._getframe(1).f_code.co_name] += 1
        return decode(layout, extent)

    monkeypatch.setattr(codec, "checksum", counted_checksum)
    monkeypatch.setattr(codec, "decode", counted_decode)
    return counts


def _by_entry(walks, entry: str) -> dict:
    return {site: n for (name, site), n in walks.items() if name == entry}


@pytest.fixture(params=["pagerank", "wcc"])
def job(request, small_graph, small_undirected_graph):
    if request.param == "pagerank":
        return PageRank(iterations=3), small_graph
    return WCC(), small_undirected_graph


def _run_counted(walks, job, backend=None) -> collections.Counter:
    """The job's own walk counts (``walks`` is cleared first)."""
    algorithm, graph = job
    walks.clear()
    ChaosCluster(fast_config(4), backend_factory=backend).run(algorithm, graph)
    return collections.Counter(walks)


class TestWalkIdentity:
    def test_memory_provider_walks_each_chunk_once(self, job, walks):
        counts = _run_counted(walks, job)
        # walks == chunks sealed: a fault-free job verifies by identity.
        assert set(counts) == {
            ("seal_chunk", "preload_chunk"), ("seal_chunk", "_update_chunk")
        }

    def test_file_provider_walks_what_it_decodes(self, job, walks, tmp_path):
        memory = _run_counted(walks, job)
        files = _run_counted(
            walks, job, lambda m: make_store("file", tmp_path / f"m{m}")
        )
        # Same seals; every chunk decoded for a reply is new bytes and is
        # walked by its reader — and by nobody else.
        assert _by_entry(files, "seal_chunk") == _by_entry(memory, "seal_chunk")
        decoded = sum(_by_entry(files, "decode").values())
        assert decoded > 0 and not _by_entry(memory, "decode")
        assert _by_entry(files, "verify_chunk") == {"_on_chunk_reply": decoded}


# plan -> (integrity_rereads, write_rejects, torn_writes_repaired,
#          retransmits, integrity_retries), and one digest of the final
# values for all seven: the fault plans of ``tests/test_event_stream.py``
# on its job, measured on the commit before PR 21.
# The values digest moved once since, when float sums became exact
# folds (``exact_add_at``) instead of sorted ones: 82ce708ba29f8409 before.
PARENT_VALUES = "5a4f946ba36114d0"
PARENT_DETECTIONS = {
    None: (0, 0, 0, 0, 0),
    "crash:1@iter=1": (0, 0, 0, 0, 0),
    "partition:2@iter=1": (0, 0, 0, 0, 0),
    "msg-reorder:1@iter=1": (0, 0, 0, 0, 0),
    "msg-dup:2@iter=1": (0, 0, 0, 0, 0),
    "msg-corrupt:0@iter=1": (0, 0, 0, 1, 1),
    "chunk-bitflip:1@iter=1": (1, 0, 0, 0, 0),
}


@pytest.fixture(scope="module")
def stream_graph():
    return rmat_graph(9, seed=5)


@pytest.mark.parametrize(
    "plan", list(PARENT_DETECTIONS), ids=lambda p: p or "none"
)
def test_detections_equal_the_parents(
    stream_graph, plan, walks, integrity_retries
):
    config = ClusterConfig(
        machines=3,
        chunk_bytes=4 * 1024,
        network=GIGE_40_BENCH,
        device=SSD_BENCH,
        seed=5,
        checkpointing=plan is not None,
    )
    result = ChaosCluster(config).run(
        PageRank(iterations=3),
        stream_graph,
        fault_plan=FaultPlan.parse([plan]) if plan else None,
    )
    detections = tuple(result.integrity[name] for name in DETECTIONS)
    assert detections + (integrity_retries(),) == PARENT_DETECTIONS[plan]
    digest = hashlib.sha256()
    for name in sorted(result.values):
        digest.update(name.encode())
        digest.update(result.values[name].tobytes())
    assert digest.hexdigest()[:16] == PARENT_VALUES
    # Memory provider: only an injector's clone is ever verify-walked,
    # once per detection, at the hop that caught it.
    detected = sum(detections[:3]) + integrity_retries()
    assert sum(_by_entry(walks, "verify_chunk").values()) == detected
