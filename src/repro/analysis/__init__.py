"""Static analysis for the reproduction.

Guards the invariant that every run is a deterministic function of
``(config, seed)``.  ``chaos-repro check`` runs one engine
(:mod:`repro.analysis.engine`) over one parse of the tree:

:mod:`repro.analysis.rules`
    The local rules (CHX001 … CHX007), one AST node at a time: host
    clock and host identity reads, compute code reaching past the
    :class:`~repro.store.engine.StorageEngine` mediation layer,
    nondeterministic iteration, broad excepts and ad-hoc telemetry.
    :func:`default_rules` lists every rule and :data:`RULE_TABLE` maps
    each id to its title.
:mod:`repro.analysis.flow`
    The whole-program rules (CHX010 … CHX020) over the project index
    and the call graph.

Whether cross-machine state is *right* is not judged here: a run's final
vertex values are checked against independent references, and planted
protocol defects are pinned by ``tests/test_value_mutations.py``.
"""

from repro.analysis.engine import LintEngine, LintResult
from repro.analysis.findings import (
    Finding,
    format_github,
    format_json,
    format_text,
)
from repro.analysis.lint import FileContext, Rule
from repro.analysis.rules import RULE_TABLE, default_rules

__all__ = [
    "RULE_TABLE",
    "default_rules",
    "FileContext",
    "Finding",
    "format_github",
    "format_json",
    "format_text",
    "LintEngine",
    "LintResult",
    "Rule",
]
