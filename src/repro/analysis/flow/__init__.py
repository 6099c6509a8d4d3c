"""Whole-program (deep) analysis layer: ``check --deep``.

Structure:

* :mod:`project` — the project index: modules, functions, classes,
  imports, ``__init__`` re-exports.
* :mod:`callgraph` — call sites resolved to project targets, with
  explicit resolution kinds and reachability queries.
* :mod:`cfg` — per-function statement CFGs and path-shape helpers.
* :mod:`dataflow` — forward taint with interprocedural summaries.
* :mod:`rules` — CHX008–012, CHX016 and CHX018–023.
* :mod:`engine` — the cached ``check --deep`` driver.
"""

from repro.analysis.flow.callgraph import CallGraph, CallSite, build_call_graph
from repro.analysis.flow.cfg import CFG, definitely_terminates, yield_lines
from repro.analysis.flow.dataflow import FunctionSummary, SinkReport, TaintAnalysis
from repro.analysis.flow.engine import (
    DeepEngine,
    DeepResult,
    collect_focus_kinds,
    source_tree_hash,
)
from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    module_name_for,
)
from repro.analysis.flow.rules import (
    ANALYZER_VERSION,
    DEEP_RULE_TABLE,
    DeepContext,
    DeepRule,
    RaceCandidate,
    collect_race_candidates,
    default_deep_rules,
)

__all__ = [
    "ANALYZER_VERSION",
    "CFG",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "DEEP_RULE_TABLE",
    "DeepContext",
    "DeepEngine",
    "DeepResult",
    "DeepRule",
    "FunctionInfo",
    "FunctionSummary",
    "ModuleInfo",
    "ProjectIndex",
    "RaceCandidate",
    "SinkReport",
    "TaintAnalysis",
    "build_call_graph",
    "collect_focus_kinds",
    "collect_race_candidates",
    "default_deep_rules",
    "definitely_terminates",
    "module_name_for",
    "source_tree_hash",
    "yield_lines",
]
