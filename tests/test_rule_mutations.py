"""Every lint rule earns its place by a planted defect.

Each row plants one realistic defect in a temporary copy of the real
source files it needs, runs the rules that could catch it and asserts
exactly which of them fire.  Each unmutated copy is clean under the
same rules, so every catch is the planted defect's.  DESIGN.md section 6
records the verdicts: rows M1-M4, M6-M8, M10, M12 and M13-M15, plus one
row for each rule no M-row exercises (CHX003, 005, 006, 007, 016).  Defects of
the protocol's *values* (a merge before the handoff, a stealer that
applies) no rule can see, and a mistyped message kind (M5, M9, M11) is
rejected by the receiving loop on first delivery; their rows are in
``tests/test_value_mutations.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Set, Tuple, Union

import pytest

import repro
from repro.analysis import LintEngine, default_rules

SRC = Path(repro.__file__).parent

Edit = Tuple[Union[str, "re.Pattern[str]"], str]


@dataclass(frozen=True)
class Mutation:
    """One planted defect: edits to one file of the ``repro`` package."""

    file: str  # relative to the repro package
    edits: Tuple[Edit, ...]  # (literal or regex, replacement), each matching once
    rules: Tuple[str, ...]  # the rules that could plausibly catch it
    caught_by: FrozenSet[str]
    context: Tuple[str, ...] = ()  # further modules the rules resolve through

    def apply(self, source: str) -> str:
        for old, new in self.edits:
            if isinstance(old, str):
                assert source.count(old) == 1, old
                source = source.replace(old, new)
            else:
                source, count = old.subn(lambda _m: new, source)
                assert count == 1, old.pattern
        return source


COMPUTE = "core/compute.py"
SUPERVISOR = "faults/supervisor.py"
SHUFFLE = "self._rng.shuffle(foreign)"
RNG_SEED = "self._rng = random.Random(config.seed * 1_000_003 + machine * 7919 + 1)"

MUTATIONS = [
    pytest.param(Mutation(
        COMPUTE,
        (("import random\n", "import random\nimport time\n"),
         ("        t0 = self.sim.now\n        if self._trace_on:\n"
          "            track.begin(\"vertex_load\"",
          "        t0 = time.time()\n        if self._trace_on:\n"
          "            track.begin(\"vertex_load\"")),
        ("CHX001",), frozenset({"CHX001"}),
        context=("core/metrics.py",),
    ), id="M1-wall-clock-into-breakdown"),
    pytest.param(Mutation(
        COMPUTE, ((SHUFFLE, "random.shuffle(foreign)"),),
        ("CHX018",), frozenset({"CHX018"}),
    ), id="M2-global-shuffle"),
    pytest.param(Mutation(
        COMPUTE,
        (("import random\n", "import random\nfrom random import shuffle\n"),
         (SHUFFLE, "shuffle(foreign)")),
        ("CHX018",), frozenset({"CHX018"}),
    ), id="M2b-imported-shuffle"),
    pytest.param(Mutation(
        COMPUTE,
        ((SHUFFLE, "foreign = list(np.random.permutation(foreign))"),),
        ("CHX018",), frozenset({"CHX018"}),
    ), id="M2c-numpy-permutation"),
    pytest.param(Mutation(
        # A driver reseeds every job from the host clock: caught in the
        # driver, where the clock is read, not in the cluster it seeds.
        "algorithms/mcst.py",
        (("from typing import Optional\n",
          "import time\nfrom typing import Optional\n"),
         ("        cluster = ChaosCluster(config, tracer=tracer)\n",
          "        cluster = ChaosCluster(config.with_(seed=time.time_ns()), "
          "tracer=tracer)\n")),
        ("CHX001", "CHX018"), frozenset({"CHX001"}),
    ), id="M13-clock-seeded-driver"),
    pytest.param(Mutation(
        COMPUTE,
        (("import random\n", "import os\nimport random\n"),
         (RNG_SEED, "self._rng = random.Random(os.urandom(8))")),
        ("CHX001", "CHX018"), frozenset({"CHX018"}),
    ), id="M14-entropy-seeded-rng"),
    pytest.param(Mutation(
        COMPUTE, ((RNG_SEED, "self._rng = random.Random(id(self))"),),
        ("CHX001", "CHX018"), frozenset({"CHX001"}),
    ), id="M15-identity-seeded-rng"),
    pytest.param(Mutation(
        COMPUTE,
        (("yield from self._preprocess()", "self._preprocess()"),),
        ("CHX011",), frozenset({"CHX011"}),
    ), id="M3-discarded-generator"),
    pytest.param(Mutation(
        COMPUTE,
        (("yield self._write_group.wait()", "self._write_group.wait()"),),
        ("CHX011",), frozenset({"CHX011"}),
    ), id="M4-discarded-wait"),
    pytest.param(Mutation(
        SUPERVISOR,
        (("            if message.epoch != self.epoch:\n"
          "                continue\n"
          "            callback = self._pending.pop(",
          "            callback = self._pending.pop("),),
        ("CHX020",), frozenset({"CHX020"}),
    ), id="M6-unfenced-restore-dispatch"),
    pytest.param(Mutation(
        SUPERVISOR,
        (("        winner, value = yield self.sim.any_of(\n"
          "            [reply, self.sim.timeout(config.effective_lease_timeout())]\n"
          "        )\n"
          "        if winner is not reply:\n"
          "            self._pending.pop(request_id, None)\n"
          "            return None\n",
          "        value = yield reply\n"),),
        ("CHX021",), frozenset({"CHX021"}),
    ), id="M7-untimed-restore-read"),
    pytest.param(Mutation(
        COMPUTE,
        ((re.compile(r"if self\.preprocess:  # chaos: ignore\[[A-Z0-9,]+\]"),
          "if self.preprocess:"),),
        ("CHX010",), frozenset({"CHX010"}),
    ), id="M8-unsuppressed-lopsided-barrier"),
    pytest.param(Mutation(
        # The steal RPC's fault-tolerant branch deleted, so the proposer
        # always waits on the reply with a bare yield.
        COMPUTE,
        ((re.compile(
            r"            if self\._liveness is None:\n"
            r"                message = yield reply.*?\n"
            r"                if message is None:\n"
            r"                    continue\n",
            re.DOTALL,
        ), "            message = yield reply\n"),),
        ("CHX021",), frozenset({"CHX021"}),
    ), id="M10-steal-without-liveness"),
    pytest.param(Mutation(
        COMPUTE,
        (("            if message.epoch != self.epoch:\n"
          "                # Traffic from another recovery epoch (a straggling\n"
          "                # reply, or a steal request from a zombie peer).\n"
          "                continue\n", ""),),
        ("CHX020",), frozenset({"CHX020"}),
    ), id="M12-unfenced-compute-dispatch"),
    pytest.param(Mutation(
        COMPUTE,
        (("yield self.local_store.local_input_read(size)",
          "yield self.local_store.device.service(size)"),),
        ("CHX003",), frozenset({"CHX003"}),
    ), id="CHX003-device-reach-through"),
    pytest.param(Mutation(
        COMPUTE,
        (("            for target in targets:\n",
          "            for target in {t for t in targets}:\n"),),
        ("CHX005",), frozenset({"CHX005"}),
    ), id="CHX005-set-comprehension-loop"),
    pytest.param(Mutation(
        SUPERVISOR,
        (("            if callback is not None:\n"
          "                callback(message)\n",
          "            if callback is not None:\n"
          "                try:\n"
          "                    callback(message)\n"
          "                except Exception:\n"
          "                    pass\n"),),
        ("CHX006",), frozenset({"CHX006"}),
    ), id="CHX006-swallowed-interrupt"),
    pytest.param(Mutation(
        "store/engine.py",
        (("            handler(message)\n",
          '            print(f"storage {self.machine}: {message.kind}")\n'
          "            handler(message)\n"),),
        ("CHX007",), frozenset({"CHX007"}),
    ), id="CHX007-print-in-store"),
    pytest.param(Mutation(
        "algorithms/pagerank.py",
        (("        exact_add_at(accum, dst_local, values)",
          "        np.add.at(accum, dst_local, values)"),),
        ("CHX016",), frozenset({"CHX016"}),
    ), id="CHX016-float-sum-in-arrival-order"),
]


def _copy(root: Path, files, mutation=None) -> Path:
    """Write ``files`` under ``root/repro`` behind empty package inits."""
    for rel in files:
        target = root / "repro" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        for package in (root / "repro", target.parent):
            (package / "__init__.py").touch()
        source = (SRC / rel).read_text(encoding="utf-8")
        if mutation is not None and rel == mutation.file:
            source = mutation.apply(source)
        target.write_text(source, encoding="utf-8")
    return root


def _catchers(root: Path, rule_ids) -> Set[str]:
    """Ids of the given rules with an unsuppressed finding under ``root``."""
    rules = [r for r in default_rules() if r.rule_id in rule_ids]
    result = LintEngine(rules).check_paths([str(root)])
    return {finding.rule_id for finding in result.findings}


def _files(mutation: Mutation) -> Tuple[str, ...]:
    return (mutation.file, *mutation.context)


def _rules_by_files():
    """Each copied file set with every rule some row runs on it."""
    table = {}
    for param in MUTATIONS:
        mutation = param.values[0]
        table.setdefault(_files(mutation), set()).update(mutation.rules)
    return [
        pytest.param(files, rules, id="+".join(files))
        for files, rules in sorted(table.items())
    ]


@pytest.mark.parametrize("files, rules", _rules_by_files())
def test_unmutated_copy_is_clean(tmp_path, files, rules):
    assert _catchers(_copy(tmp_path, files), rules) == set()


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_planted_defect_is_caught_by_its_rule(tmp_path, mutation):
    mutant = _copy(tmp_path, _files(mutation), mutation)
    assert _catchers(mutant, mutation.rules) == mutation.caught_by

