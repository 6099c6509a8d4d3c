"""Project call graph over a :class:`ProjectIndex`.

Every call expression inside an indexed function becomes a
:class:`CallSite` with a *resolution kind*:

``direct``
    The callee expression resolves through the module namespace (bare
    name, imported name, ``Class.method``, or a class constructor).
``self-method``
    ``self.meth(...)`` / ``cls.meth(...)`` resolved through the
    enclosing class (including project-resolvable base classes).
``by-name``
    The receiver's type is unknown (``self.workload.merge(...)``); the
    attribute name matches one or more project functions/methods, and
    the site over-approximates to *all* of them.  Imprecise by
    design.
``external``
    The head name binds to an import that is not part of the project
    (``time.monotonic`` when ``time`` is the stdlib module).
``builtin``
    A bare builtin (``len``, ``sorted`` …).
``dynamic``
    Anything the static model cannot name: calls of call results,
    subscripts, lambdas.

The resolution statistics split sites into *project domain* (the head
binds to project code, or ``self.``, or the attribute name exists in the
project) and everything else; the self-host smoke test asserts the
resolved fraction of the project domain stays >= 95%.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.flow.project import (
    BUILTIN_NAMES,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    attr_chain,
    enclosing_class_of,
)

#: Resolution kinds that point at project code.
PROJECT_KINDS = frozenset({"direct", "self-method", "by-name"})

#: Methods of builtin container/string types.  An attribute call with one
#: of these names on an unknown receiver is overwhelmingly a builtin op
#: (``chunks.append(...)``), so by-name matching against project methods
#: that happen to share the name would produce garbage edges.
COMMON_OBJECT_METHODS = frozenset(
    name
    for typ in (list, dict, set, frozenset, tuple, str, bytes)
    for name in dir(typ)
    if not name.startswith("_")
)


@dataclass
class CallSite:
    """One call expression inside an indexed function."""

    caller: str  # qualname of the enclosing function
    file: str
    line: int
    node: ast.Call
    #: dotted chain of the callee expression, or None for dynamic calls.
    chain: Optional[List[str]]
    kind: str  # direct | self-method | by-name | external | builtin | dynamic
    #: qualnames of project callees (possibly several for by-name).
    targets: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.chain[-1] if self.chain else "<dynamic>"


class CallGraph:
    """Call sites grouped by caller, with resolution statistics."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        #: caller qualname -> its call sites, in source order.
        self.sites: Dict[str, List[CallSite]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        graph = cls(index)
        for func in index.iter_functions():
            module = index.modules.get(func.module)
            if module is None:
                continue
            class_ctx = enclosing_class_of(module, func)
            sites: List[CallSite] = []
            for node in func.nodes:
                if isinstance(node, ast.Call):
                    sites.append(graph._resolve_site(func, module, class_ctx, node))
            sites.sort(key=lambda s: (s.line, s.node.col_offset))
            graph.sites[func.qualname] = sites
        return graph

    def _resolve_site(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        class_ctx: Optional[ClassInfo],
        node: ast.Call,
    ) -> CallSite:
        chain = attr_chain(node.func)
        site = CallSite(
            caller=func.qualname,
            file=func.file,
            line=node.lineno,
            node=node,
            chain=chain,
            kind="dynamic",
        )
        if chain is None:
            return site

        head = chain[0]
        if head in ("self", "cls") and class_ctx is not None and len(chain) == 2:
            target = self.index.resolve_method(class_ctx, chain[1])
            if target is not None:
                site.kind = "self-method"
                site.targets = [target.qualname]
                return site
            # self.something where the class has no such method: fall
            # through to by-name (it may be a stored callable/strategy).

        resolved = self.index.resolve_chain_in(module, chain, class_ctx=class_ctx)
        if isinstance(resolved, FunctionInfo):
            site.kind = "direct"
            site.targets = [resolved.qualname]
            return site
        if isinstance(resolved, ClassInfo):
            # Constructor call: edge into __init__ when the project
            # defines one.
            init = self.index.resolve_method(resolved, "__init__")
            site.kind = "direct"
            site.targets = [init.qualname] if init is not None else []
            return site

        if head in module.imports and not self._is_project_module(
            module.imports[head]
        ):
            site.kind = "external"
            return site
        if len(chain) == 1 and head in BUILTIN_NAMES:
            site.kind = "builtin"
            return site

        # By-name over-approximation on the terminal attribute.
        name = chain[-1]
        if len(chain) > 1 and name in COMMON_OBJECT_METHODS:
            site.kind = "builtin"
            return site
        candidates: List[FunctionInfo] = []
        if len(chain) > 1:
            candidates = self.index.methods_by_name.get(name, [])
        if not candidates and len(chain) == 1:
            candidates = self.index.functions_by_name.get(name, [])
        if candidates:
            site.kind = "by-name"
            site.targets = [c.qualname for c in candidates]
            return site
        if name in BUILTIN_NAMES:
            site.kind = "builtin"
            return site
        return site

    def _is_project_module(self, dotted: str) -> bool:
        top = dotted.split(".")[0]
        return any(
            name == top or name.startswith(top + ".") for name in self.index.modules
        )

    # -- queries --------------------------------------------------------

    def call_sites_in(self, qualname: str) -> List[CallSite]:
        return self.sites.get(qualname, [])

    # -- statistics -----------------------------------------------------

    def resolution_stats(self) -> Dict[str, object]:
        """Counts by kind, plus the project-domain resolution fraction."""
        by_kind: Dict[str, int] = {}
        for sites in self.sites.values():
            for site in sites:
                by_kind[site.kind] = by_kind.get(site.kind, 0) + 1
        project_sites = sum(by_kind.get(kind, 0) for kind in PROJECT_KINDS)
        project_domain = project_sites + self._unresolved_project_sites()
        fraction = project_sites / project_domain if project_domain else 1.0
        return {
            "by_kind": by_kind,
            "total_sites": sum(by_kind.values()),
            "project_sites_resolved": project_sites,
            "project_domain_sites": project_domain,
            "project_resolution_fraction": fraction,
        }

    def _unresolved_project_sites(self) -> int:
        """Dynamic/unresolved sites that still *look* like project calls:
        ``self.``-rooted chains, or heads bound to project symbols."""
        count = 0
        for sites in self.sites.values():
            for site in sites:
                if site.kind in PROJECT_KINDS or site.chain is None:
                    continue
                if site.kind in ("external", "builtin"):
                    continue
                head = site.chain[0]
                if head in ("self", "cls"):
                    count += 1
                    continue
                module = self.index.modules.get(
                    self.index.functions[site.caller].module
                )
                if module is not None and (
                    head in module.functions
                    or head in module.classes
                    or (
                        head in module.imports
                        and self._is_project_module(module.imports[head])
                    )
                ):
                    count += 1
        return count


__all__ = ["CallGraph", "CallSite", "PROJECT_KINDS"]
