"""Deep-check driver: build the flow layer once, run every deep rule.

``check --deep`` goes through :class:`DeepEngine`.  Building the
:class:`ProjectIndex` (a full parse of the tree) dominates the cost, so
the engine can cache the pickled index keyed on a hash of every
``(path, content)`` pair — CI keeps the cache directory between runs
and pays the parse only when sources change.  Suppression semantics are
identical to the local engine's (inline ``# chaos: ignore[CHX###]``,
statement-span aware).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.project import ProjectIndex
from repro.analysis.flow.rules import (
    ANALYZER_VERSION,
    DeepContext,
    DeepRule,
    default_deep_rules,
)
from repro.analysis.lint import FileContext, LintResult

#: Bump to invalidate stale pickles when the index layout changes.
_CACHE_VERSION = 1


@dataclass
class DeepResult:
    """Outcome of a deep check: findings plus the flow-layer byproducts."""

    result: LintResult = field(default_factory=LintResult)
    resolution: Dict[str, object] = field(default_factory=dict)
    cache_hit: bool = False

    @property
    def clean(self) -> bool:
        return self.result.clean


def _collect_files(paths: Iterable[str]) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            files.extend(
                p for p in sorted(root.rglob("*.py")) if "__pycache__" not in p.parts
            )
        else:
            files.append(root)
    return files


def source_tree_hash(paths: Iterable[str]) -> str:
    """Stable hash over every analyzed ``(path, content)`` pair.

    The key also carries the index-layout version *and* the deep
    analyzer's rule-logic version (:data:`ANALYZER_VERSION`): a rule
    change must invalidate cached results even when the analyzed
    sources are byte-identical, or ``.chaos-cache`` in CI would keep
    serving findings computed by the old rules.
    """
    digest = hashlib.sha256()
    digest.update(f"v{_CACHE_VERSION}.a{ANALYZER_VERSION}".encode())
    for path in _collect_files(paths):
        digest.update(str(path).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class DeepEngine:
    """Builds the flow layer and drives the deep rules over it."""

    def __init__(self, rules: Optional[Sequence[DeepRule]] = None):
        self.rules: List[DeepRule] = (
            list(rules) if rules is not None else default_deep_rules()
        )

    def rule_ids(self) -> List[str]:
        return [rule.rule_id for rule in self.rules]

    # -- index construction (cached) ------------------------------------

    def build_index(
        self, paths: Sequence[str], cache_dir: Optional[str] = None
    ) -> Tuple[ProjectIndex, bool]:
        """Return ``(index, cache_hit)``; caches the pickled index."""
        if cache_dir is None:
            return ProjectIndex.build(paths), False
        key = source_tree_hash(paths)
        cache_path = Path(cache_dir) / f"deepindex-{key}.pkl"
        if cache_path.exists():
            try:
                with cache_path.open("rb") as handle:
                    index = pickle.load(handle)
                if isinstance(index, ProjectIndex):
                    return index, True
            except Exception:
                pass  # corrupt/stale cache: fall through to a rebuild
        index = ProjectIndex.build(paths)
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = cache_path.with_suffix(".tmp")
            with tmp.open("wb") as handle:
                pickle.dump(index, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(cache_path)
        except Exception:
            pass  # caching is best-effort; the check itself proceeds
        return index, False

    # -- checking -------------------------------------------------------

    def check_paths(
        self, paths: Sequence[str], cache_dir: Optional[str] = None
    ) -> DeepResult:
        index, cache_hit = self.build_index(paths, cache_dir=cache_dir)
        graph = CallGraph.build(index)
        ctx = DeepContext(index, graph)

        raw: List[Finding] = []
        for rule in self.rules:
            raw.extend(rule.run(ctx))

        result = LintResult(files_checked=len(index.modules))
        suppressions = self._suppression_tables(index)
        seen = set()
        for finding in sorted(raw):
            key = (finding.file, finding.line, finding.rule_id, finding.message)
            if key in seen:
                continue
            seen.add(key)
            if finding.rule_id in suppressions.get(finding.file, {}).get(
                finding.line, ()
            ):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)

        return DeepResult(
            result=result,
            resolution=graph.resolution_stats(),
            cache_hit=cache_hit,
        )

    def _suppression_tables(self, index: ProjectIndex) -> Dict[str, Dict[int, set]]:
        tables: Dict[str, Dict[int, set]] = {}
        for module in index.modules.values():
            ctx = FileContext(module.file, module.source)
            tables[module.file] = ctx.effective_suppressions(module.tree)
        return tables


__all__ = [
    "DeepEngine",
    "DeepResult",
    "source_tree_hash",
]
