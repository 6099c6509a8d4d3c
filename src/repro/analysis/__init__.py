"""Static analysis for the reproduction.

Guards the invariant that every run is a deterministic function of
``(config, seed)``:

:mod:`repro.analysis.lint`
    An AST-based lint engine with codebase-specific rules (CHX001 …
    CHX007) that catch determinism hazards at rest: wall-clock calls in
    simulated-clock packages, compute code reaching past the
    :class:`~repro.store.engine.StorageEngine` mediation layer,
    nondeterministic iteration, broad excepts and ad-hoc telemetry.
    Exposed as ``chaos-repro check``; ``check --deep`` adds the
    whole-program rules of :mod:`repro.analysis.flow`.

Whether cross-machine state is *right* is not judged here: a run's final
vertex values are checked against independent references, and planted
protocol defects are pinned by ``tests/test_value_mutations.py``.
"""

from repro.analysis.findings import (
    Finding,
    format_github,
    format_json,
    format_text,
)
from repro.analysis.lint import FileContext, LintEngine, LintResult, Rule
from repro.analysis.rules import DEFAULT_RULES, default_rules, full_rule_table

__all__ = [
    "DEFAULT_RULES",
    "default_rules",
    "full_rule_table",
    "FileContext",
    "Finding",
    "format_github",
    "format_json",
    "format_text",
    "LintEngine",
    "LintResult",
    "Rule",
]
