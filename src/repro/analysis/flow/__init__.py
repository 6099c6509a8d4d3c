"""Whole-program layer of ``repro check``.

Structure:

* :mod:`project` — the project index: modules, functions, classes,
  imports, ``__init__`` re-exports.  It is the one parse every rule
  reads, local and whole-program alike.
* :mod:`callgraph` — call sites resolved to project targets, with
  explicit resolution kinds and resolution statistics.
* :mod:`rules` — CHX010, CHX011, CHX016, CHX018 and CHX020, over one
  :class:`DeepContext`.
"""

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import ProjectIndex
from repro.analysis.flow.rules import DeepContext, definitely_terminates

__all__ = ["CallGraph", "DeepContext", "ProjectIndex", "definitely_terminates"]
