"""Every planted protocol defect is caught by the values it corrupts.

Each row plants one defect in the cross-machine protocol (the steal
proposal and the accumulator handoff of paper section 5.4, the phase
barriers, the write drain before a barrier, a mistyped message kind) in
a temporary copy of the whole ``repro`` package, then runs three small
jobs on the copy in a fresh interpreter: PageRank on two machines (a
float-sum fold), WCC on three (a min label) and SSSP on four (a min
distance), all stealing.

The oracle is the unmutated engine's result for the same job on one
machine with stealing off.  Final values are byte-identical across
machine counts and stealing (``tests/test_order_sensitive.py``), so a
difference is the defect's.  A job catches a defect when its values
differ from the oracle's or when the simulation fails: an engine
assertion, delivery rejecting a kind its service does not declare
(``repro.net.transport.MESSAGE_KINDS``), or the simulated deadline of a
livelocked run.  DESIGN.md section 6 records every row's verdict beside
the happens-before sanitizer's, which rows V1-V8 replaced, and beside
the lint rules that caught M5, M9 and M11 before the vocabulary was
declared.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Tuple

import pytest

import repro

SRC = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
COMPUTE = "core/compute.py"

#: (algorithm, machines, partitions per machine, steal alpha).
JOBS = (("PR", 2, 2, "inf"), ("WCC", 3, 1, "1.0"), ("SSSP", 4, 2, "inf"))

#: Simulated seconds a job may run: two and a half times the slowest clean
#: job (SSSP, 0.012 s), so a livelocked copy fails in a second or two.
DEADLINE = 0.03


def outcomes(oracle: bool = False) -> Dict[str, str]:
    """Each job's values digest, or ``raised:<exception name>``.

    With ``oracle`` every job runs on one machine with stealing off.
    """
    from repro.algorithms import SSSP, WCC, PageRank
    from repro.core.config import ClusterConfig
    from repro.core.runtime import run_algorithm
    from repro.graph import rmat_graph, to_undirected
    from repro.net.topology import GIGE_40_SCALED
    from repro.sim.engine import SimulationError
    from repro.store.device import SSD_SCALED

    algorithms = {
        "PR": lambda: PageRank(iterations=3),
        "WCC": WCC,
        "SSSP": lambda: SSSP(root=0),
    }
    result = {}
    for name, machines, per_machine, alpha in JOBS:
        graph = rmat_graph(10, seed=5, weighted=name == "SSSP")
        if name != "PR":
            graph = to_undirected(graph)
        config = ClusterConfig(
            machines=1 if oracle else machines,
            chunk_bytes=2048,
            partitions_per_machine=per_machine,
            device=SSD_SCALED,
            network=GIGE_40_SCALED,
            steal_alpha=0.0 if oracle else float(alpha),
        )
        try:
            values = run_algorithm(
                algorithms[name](), graph, config, deadline_seconds=DEADLINE
            ).values
        except SimulationError as error:  # the job's verdict, not a test error
            result[name] = f"raised:{type(error).__name__}"
            continue
        digest = hashlib.sha256()
        for key in sorted(values):
            digest.update(values[key].tobytes())
        result[name] = digest.hexdigest()
    return result


@dataclass(frozen=True)
class Defect:
    """One planted defect: edits to one file of the ``repro`` package."""

    file: str  # relative to the repro package
    edits: Tuple[Tuple[str, str], ...]  # (literal, replacement), each matching once
    caught_as: FrozenSet[str]  # "values" and/or "raised:<name>", over the jobs

    def apply(self, source: str) -> str:
        for old, new in self.edits:
            assert source.count(old) == 1, old
            source = source.replace(old, new)
        return source


VALUES = frozenset({"values"})
UNDECLARED = frozenset({"raised:SimulationError"})

DEFECTS = [
    pytest.param(Defect(
        COMPUTE,
        # The master merges and applies without waiting for the
        # accumulators its accepted stealers ship home.
        (("        yield state.accum_group.wait()\n", ""),), VALUES,
    ), id="V1-merge-before-handoff"),
    pytest.param(Defect(
        COMPUTE,
        # An accepted gather steal is not counted in the handoff group.
        (("                state.accum_group.add(1)\n",
          "                pass\n"),),
        frozenset({"raised:SimulationError"}),
    ), id="V2-uncounted-steal"),
    pytest.param(Defect(
        COMPUTE,
        # The master accepts steals of a partition it already closed.
        (("if state is None or state.kind is not kind or state.closed:",
          "if state is None or state.kind is not kind:"),), VALUES,
    ), id="V3-steal-closed-partition", marks=pytest.mark.xfail(
        strict=True,
        reason="a steal of a closed partition finds every chunk already "
               "read: it wastes a vertex load and changes no value",
    )),
    pytest.param(Defect(
        COMPUTE,
        # Gather starts while other machines still scatter.
        (('            yield from self._enter_barrier(str(self.job.iteration), "scatter")\n',
          ""),), VALUES,
    ), id="V4-no-scatter-barrier"),
    pytest.param(Defect(
        COMPUTE,
        # A stealer applies its partial accumulator to the vertex set.
        (("                yield from self._ship_accumulator(partition, accum)\n",
          "                self.workload.apply_partition(partition, accum, iteration)\n"
          "                yield from self._ship_accumulator(partition, accum)\n"),),
        VALUES,
    ), id="V5-stealer-applies"),
    pytest.param(Defect(
        COMPUTE,
        # The next scatter starts while other machines still gather.
        (('            yield from self._enter_barrier(str(self.job.iteration), "gather")\n',
          ""),),
        frozenset({"raised:DeadlineExceeded"}),
    ), id="V6-no-gather-barrier"),
    pytest.param(Defect(
        COMPUTE,
        # A machine enters the barrier before its chunk writes land.
        (("        yield self._write_group.wait()\n", ""),), VALUES,
    ), id="V7-no-write-drain"),
    pytest.param(Defect(
        COMPUTE,
        # A proposer works on a partition whose master rejected it.
        (("            if accepted:\n"
          "                yield from self._work_on_partition(",
          "            if True:\n"
          "                yield from self._work_on_partition("),),
        frozenset({"raised:SimulationError"}),
    ), id="V8-steal-ignores-reply"),
    pytest.param(Defect(
        COMPUTE,
        # The master answers a steal proposal with a mistyped kind.
        (('kind="steal_reply",', 'kind="steal_ack",'),), UNDECLARED,
    ), id="M5-mistyped-reply-kind"),
    pytest.param(Defect(
        "net/transport.py",
        # Every message leaves the transport with a kind nobody declares.
        (("src, dst, service, kind, size, payload,",
          'src, dst, service, "bogus", size, payload,'),), UNDECLARED,
    ), id="M9-ghost-message-kind"),
    pytest.param(Defect(
        "store/engine.py",
        # A storage engine acks a stored chunk with a mistyped kind; the
        # reply's service rides in the request payload.
        (('            "write_ack",\n            CONTROL_BYTES,\n'
          '            (request_id, None),',
          '            "write_akc",\n            CONTROL_BYTES,\n'
          '            (request_id, None),'),), UNDECLARED,
    ), id="M11-mistyped-store-reply"),
]


def _run_copy(root: Path, defect=None) -> Dict[str, str]:
    """Copy the package under ``root`` (planting ``defect``) and run the
    jobs on the copy in a fresh interpreter."""
    package = root / "repro"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    if defect is not None:
        target = package / defect.file
        target.write_text(defect.apply(target.read_text(encoding="utf-8")),
                          encoding="utf-8")
    code = (
        "import json, repro\n"
        "from tests.test_value_mutations import outcomes\n"
        "print(json.dumps([repro.__file__, outcomes()]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(root), str(ROOT)))},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    imported, result = json.loads(done.stdout.splitlines()[-1])
    assert Path(imported).parent == package
    return result


@pytest.fixture(scope="module")
def oracle():
    return outcomes(oracle=True)


def test_unmutated_copy_matches_the_oracle(tmp_path, oracle):
    assert _run_copy(tmp_path) == oracle


@pytest.mark.parametrize("defect", DEFECTS)
def test_planted_defect_is_caught_by_every_job(tmp_path, oracle, defect):
    result = _run_copy(tmp_path, defect)
    caught = {
        name: outcome if outcome.startswith("raised:") else "values"
        for name, outcome in result.items()
        if outcome != oracle[name]
    }
    assert set(caught) == set(oracle), f"missed by {set(oracle) - set(caught)}"
    assert frozenset(caught.values()) == defect.caught_as
