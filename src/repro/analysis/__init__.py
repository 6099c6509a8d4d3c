"""Static analysis and dynamic sanitizers for the reproduction.

Two halves, both guarding the same invariant — every run is a
deterministic function of ``(config, seed)``:

:mod:`repro.analysis.lint`
    An AST-based lint engine with codebase-specific rules (CHX001 …
    CHX007) that catch determinism hazards at rest: wall-clock calls in
    simulated-clock packages, compute code reaching past the
    :class:`~repro.store.engine.StorageEngine` mediation layer,
    nondeterministic iteration, broad excepts and ad-hoc telemetry.
    Exposed as ``chaos-repro check``; ``check --deep`` adds the
    whole-program rules of :mod:`repro.analysis.flow`.

:mod:`repro.analysis.sanitizer`
    A TSan-style happens-before race detector for the emulated cluster:
    vector clocks advanced by messages, barriers and steal-protocol
    handoffs, attached to cross-machine shared state (vertex values,
    accumulators, steal queues, chunk stores).  Exposed as
    ``chaos-repro run --sanitize``.
"""

from repro.analysis.findings import (
    Finding,
    format_github,
    format_json,
    format_text,
)
from repro.analysis.lint import FileContext, LintEngine, LintResult, Rule
from repro.analysis.rules import DEFAULT_RULES, default_rules, full_rule_table
from repro.analysis.sanitizer import Race, RaceAccess, Sanitizer

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
    "Race",
    "RaceAccess",
    "Rule",
    "Sanitizer",
]
