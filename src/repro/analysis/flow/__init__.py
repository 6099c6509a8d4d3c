"""Whole-program (deep) analysis layer: ``check --deep``.

Structure:

* :mod:`project` — the project index: modules, functions, classes,
  imports, ``__init__`` re-exports.
* :mod:`callgraph` — call sites resolved to project targets, with
  explicit resolution kinds and reachability queries.
* :mod:`dataflow` — forward taint with interprocedural summaries.
* :mod:`rules` — CHX008, CHX010, CHX011, CHX016, CHX018–021 and CHX023.
* :mod:`engine` — the cached ``check --deep`` driver.
"""

from repro.analysis.flow.callgraph import CallGraph, CallSite, build_call_graph
from repro.analysis.flow.dataflow import FunctionSummary, SinkReport, TaintAnalysis
from repro.analysis.flow.engine import (
    DeepEngine,
    DeepResult,
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
    default_deep_rules,
    definitely_terminates,
)

__all__ = [
    "ANALYZER_VERSION",
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
    "SinkReport",
    "TaintAnalysis",
    "build_call_graph",
    "default_deep_rules",
    "definitely_terminates",
    "module_name_for",
    "source_tree_hash",
]
