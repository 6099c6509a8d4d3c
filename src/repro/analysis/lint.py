"""Rules, file contexts and suppression.

A :class:`Rule` is one of two shapes.  A *local* rule subscribes to
the AST node types it cares about via ``node_types`` and yields
``(line, message)`` pairs from :meth:`Rule.check`; the engine walks
each file's tree once and dispatches every node to the rules that
asked for its type.  Package scoping (a rule that only applies inside
the simulated-clock packages, say) goes through :meth:`Rule.applies`,
which sees the :class:`FileContext`.  A *whole-program* rule leaves
``node_types`` empty and yields findings from :meth:`Rule.run` over
the :class:`~repro.analysis.flow.rules.DeepContext` (project index,
call graph).

Suppression is inline and must name the rule::

    t0 = time.time()  # chaos: ignore[CHX001] host-side profiling only

Multiple ids separate with commas: ``# chaos: ignore[CHX001,CHX007]``.
Suppressed findings are counted (and reported in the summary) but do
not fail the check.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath
from typing import Dict, Iterator, Set, Tuple, Type

from repro.analysis.findings import Finding

#: Packages whose code runs under the simulated clock: host reads
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

    Subclasses set ``rule_id``, ``severity`` and ``title``.  A local
    rule sets ``node_types`` and implements :meth:`check`; a
    whole-program rule implements :meth:`run`.
    """

    rule_id: str = "CHX000"
    severity: str = "error"
    title: str = ""
    #: AST node classes this rule wants to inspect (local rules only).
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        """Whether the rule runs on this file at all (package scoping)."""
        return True

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        """Yield ``(line, message)`` for each violation at ``node``."""
        return iter(())

    def run(self, ctx) -> Iterator[Finding]:
        """Yield findings over the whole project (whole-program rules)."""
        return iter(())

    def _finding(self, file: str, line: int, message: str) -> Finding:
        return Finding(
            file=file,
            line=line,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )
