"""The AST lint engine: rules, file contexts and suppression.

The engine parses each file once and walks the tree once; every
:class:`Rule` subscribes to the node types it cares about via
``node_types`` and yields ``(line, message)`` pairs from
:meth:`Rule.check`.  Package scoping (a rule that only applies inside
the simulated-clock packages, say) goes through
:meth:`Rule.applies`, which sees the :class:`FileContext`.

Suppression is inline and must name the rule::

    t0 = time.time()  # chaos: ignore[CHX001] host-side profiling only

Multiple ids separate with commas: ``# chaos: ignore[CHX001,CHX007]``.
Suppressed findings are counted (and reported in the summary) but do
not fail the check.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.findings import Finding

#: Packages whose code runs under the simulated clock: wall-clock reads
#: there silently corrupt timing results instead of failing tests.
SIM_PACKAGES = frozenset({"core", "sim", "store", "net", "obs", "faults"})

#: Packages holding compute/algorithm code, which must reach storage
#: only through the StorageEngine protocol (never Device/backend).
COMPUTE_PACKAGES = frozenset({"core", "algorithms"})

_SUPPRESS_RE = re.compile(r"#\s*chaos:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


class FileContext:
    """Everything a rule may need to know about the file being linted."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.parts: Tuple[str, ...] = PurePath(path).parts

    def in_packages(self, packages: frozenset) -> bool:
        """True if any path component names one of ``packages``.

        Matches both real tree paths (``src/repro/core/compute.py``)
        and test fixtures laid out under a bare package directory.
        """
        return any(part in packages for part in self.parts)

    def suppressions(self) -> Dict[int, Set[str]]:
        """Map of line number -> rule ids suppressed on that line."""
        table: Dict[int, Set[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                ids = {part.strip() for part in match.group(1).split(",")}
                table[number] = {i for i in ids if i}
        return table

    def effective_suppressions(self, tree: ast.Module) -> Dict[int, Set[str]]:
        """Suppressions widened to statement spans.

        Findings report at a statement's *first* line, but a multi-line
        call naturally carries its comment on the closing paren.  A
        suppression anywhere within a simple statement's line span also
        suppresses at the statement's first line.  Compound statements
        (if/for/try/def/…) only widen over their *header* lines — a
        comment buried in a function body must not silence findings on
        the ``def`` line.

        A multi-line loop header whose body starts on the header's own
        closing line (``for x in (\\n    xs\\n): f(x)  # chaos: …``)
        still counts that line as header: the trailing comment sits on
        the line the header ends on, so it must reach findings anchored
        at the ``for``.  Body lines *below* the header remain out of
        scope.
        """
        raw = self.suppressions()
        table: Dict[int, Set[str]] = {line: set(ids) for line, ids in raw.items()}
        if not raw:
            return table
        for node in ast.walk(tree):
            if not isinstance(node, ast.stmt):
                continue
            start = node.lineno
            end = getattr(node, "end_lineno", None) or start
            inner = [
                block[0]
                for name in ("body", "orelse", "finalbody")
                if (block := getattr(node, name, None))
                and isinstance(block, list)
                and block
            ] + list(getattr(node, "handlers", []))
            if inner:
                first = min(inner, key=lambda n: (n.lineno, n.col_offset))
                end = max(start, first.lineno - 1)
                if first.lineno > start and self._header_spills_onto(first):
                    # One-liner body sharing the header's closing line:
                    # that line is still (also) a header line.
                    end = first.lineno
            for line in range(start + 1, end + 1):
                if line in raw:
                    table.setdefault(start, set()).update(raw[line])
        return table

    def _header_spills_onto(self, first_inner: ast.AST) -> bool:
        """True when a compound statement's header text extends onto
        the line its first inner statement starts on (the inner
        statement is prefixed by the header's closing tokens)."""
        lineno = getattr(first_inner, "lineno", 0)
        col = getattr(first_inner, "col_offset", 0)
        if not 1 <= lineno <= len(self.lines):
            return False
        prefix = self.lines[lineno - 1][:col].strip()
        return prefix.endswith(":")


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``, ``severity``, ``title`` and
    ``node_types``, then implement :meth:`check` to yield
    ``(line, message)`` pairs for each offending node.
    """

    rule_id: str = "CHX000"
    severity: str = "error"
    title: str = ""
    #: AST node classes this rule wants to inspect.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        """Whether the rule runs on this file at all (package scoping)."""
        return True

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        """Yield ``(line, message)`` for each violation at ``node``."""
        return iter(())


@dataclass
class LintResult:
    """Outcome of a lint run: active findings plus suppressed ones."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked


class LintEngine:
    """Parses files and drives every rule over each AST once."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules: List[Rule] = list(rules)

    def rule_ids(self) -> List[str]:
        return [rule.rule_id for rule in self.rules]

    # -- single source unit -------------------------------------------

    def check_source(self, source: str, path: str = "<string>") -> LintResult:
        """Lint one source string (the path drives package scoping)."""
        result = LintResult(files_checked=1)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            result.findings.append(
                Finding(
                    file=path,
                    line=error.lineno or 1,
                    rule_id="CHX000",
                    severity="error",
                    message=f"syntax error: {error.msg}",
                )
            )
            return result

        ctx = FileContext(path, source)
        active = [rule for rule in self.rules if rule.applies(ctx)]
        if not active:
            return result

        dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in active:
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)

        raw: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                for line, message in rule.check(node, ctx):
                    key = (rule.rule_id, line, message)
                    if key in seen:
                        continue
                    seen.add(key)
                    raw.append(
                        Finding(
                            file=path,
                            line=line,
                            rule_id=rule.rule_id,
                            severity=rule.severity,
                            message=message,
                        )
                    )

        suppressions = ctx.effective_suppressions(tree)
        for finding in sorted(raw):
            if finding.rule_id in suppressions.get(finding.line, ()):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
        return result

    # -- trees of files -----------------------------------------------

    def check_file(self, path: str) -> LintResult:
        source = Path(path).read_text(encoding="utf-8")
        return self.check_source(source, path=str(path))

    def check_paths(self, paths: Iterable[str]) -> LintResult:
        """Lint every ``*.py`` under each path (files or directories)."""
        result = LintResult()
        for entry in paths:
            root = Path(entry)
            if root.is_dir():
                files = sorted(
                    p
                    for p in root.rglob("*.py")
                    if "__pycache__" not in p.parts
                )
            else:
                files = [root]
            for file_path in files:
                result.extend(self.check_file(str(file_path)))
        result.findings.sort()
        result.suppressed.sort()
        return result
