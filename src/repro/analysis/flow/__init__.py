"""Whole-program layer of ``repro check``.

Structure:

* :mod:`project` — the project index: modules, functions, classes,
  imports, ``__init__`` re-exports.  It is the one parse every rule
  reads, local and whole-program alike.
* :mod:`callgraph` — call sites resolved to project targets, with
  explicit resolution kinds and reachability queries.
* :mod:`dataflow` — forward taint with interprocedural summaries.
* :mod:`rules` — CHX008, CHX010, CHX011, CHX016, CHX018, CHX020 and
  CHX021, over one :class:`DeepContext`.
"""

from repro.analysis.flow.callgraph import CallGraph, CallSite, build_call_graph
from repro.analysis.flow.dataflow import FunctionSummary, SinkReport, TaintAnalysis
from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    module_name_for,
)
from repro.analysis.flow.rules import DeepContext, definitely_terminates

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "DeepContext",
    "FunctionInfo",
    "FunctionSummary",
    "ModuleInfo",
    "ProjectIndex",
    "SinkReport",
    "TaintAnalysis",
    "build_call_graph",
    "definitely_terminates",
    "module_name_for",
]
