"""The one analyzer behind ``repro check``.

One walk of the given paths builds one
:class:`~repro.analysis.flow.project.ProjectIndex` (each resolved file
parsed once; a file that does not parse is a CHX000 finding whatever
rules are selected).  The local rules run by node-type dispatch over
each indexed module's tree, the whole-program rules over one
:class:`~repro.analysis.flow.rules.DeepContext`, and one suppression
pass covers both.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.analysis.findings import Finding
from repro.analysis.flow.project import ModuleInfo, ProjectIndex
from repro.analysis.flow.rules import DeepContext
from repro.analysis.lint import FileContext, Rule
from repro.analysis.rules import default_rules


@dataclass
class LintResult:
    """Outcome of a check: active findings plus suppressed ones."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Call-graph resolution statistics, when a selected rule built it.
    resolution: Optional[Dict[str, object]] = None

    @property
    def clean(self) -> bool:
        return not self.findings


class LintEngine:
    """Drives every rule over one parse of the analyzed files."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        self.rules: List[Rule] = list(rules) if rules is not None else default_rules()

    def check_paths(self, paths: Iterable[str]) -> LintResult:
        """Check every ``*.py`` under each path (files or directories)."""
        return self._check(ProjectIndex.build(paths))

    def check_source(self, source: str, path: str = "<string>") -> LintResult:
        """Check one source string (the path drives package scoping)."""
        index = ProjectIndex()
        index.add_source(source, path)
        index._link()
        return self._check(index)

    def _check(self, index: ProjectIndex) -> LintResult:
        result = LintResult(
            files_checked=len(index.modules) + len(index.syntax_errors)
        )
        result.findings = [
            Finding(path, error.lineno or 1, "CHX000", "error",
                    f"syntax error: {error.msg}")
            for path, error in index.syntax_errors
        ]
        raw: List[Finding] = []
        local = [rule for rule in self.rules if rule.node_types]
        for module in index.modules.values():
            raw += self._walk(local, module)
        ctx = DeepContext(index)
        for rule in self.rules:
            raw += rule.run(ctx)
        if "graph" in vars(ctx):  # a selected rule built the call graph
            result.resolution = ctx.graph.resolution_stats()

        modules = {module.file: module for module in index.modules.values()}
        tables: Dict[str, Dict[int, set]] = {}
        for finding in sorted(set(raw)):
            if finding.file not in tables:
                module = modules[finding.file]
                tables[finding.file] = FileContext(
                    module.file, module.source
                ).effective_suppressions(module.tree)
            if finding.rule_id in tables[finding.file].get(finding.line, ()):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
        result.findings.sort()
        return result

    @staticmethod
    def _walk(rules: List[Rule], module: ModuleInfo) -> Iterable[Finding]:
        """Every local finding in one module, from one walk of its tree."""
        ctx = FileContext(module.file, module.source)
        dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in rules:
            if rule.applies(ctx):
                for node_type in rule.node_types:
                    dispatch.setdefault(node_type, []).append(rule)
        if not dispatch:
            return
        for node in module.nodes:
            for rule in dispatch.get(type(node), ()):
                for line, message in rule.check(node, ctx):
                    yield rule._finding(module.file, line, message)
