"""Whole-program index: modules, functions, classes, imports, re-exports.

The :class:`ProjectIndex` is the substrate every interprocedural (deep)
rule stands on.  It parses each file once and records

* a module table keyed by dotted module name (derived from the package
  layout on disk: ancestors holding an ``__init__.py``),
* every function and method with a project-unique qualified name
  (``repro.sim.engine.Simulator.process``), its AST node, and whether
  it is a generator (a simulator process),
* every class with its method table and (project-resolvable) bases,
* per-module import bindings, including ``from pkg import name``
  re-exports through ``__init__`` modules, chased transitively so that
  ``repro.sim.Simulator`` resolves to ``repro.sim.engine.Simulator``.

Resolution is deliberately an *over-approximation*: a method call on a
receiver of unknown type resolves to every project method of that name
("by-name" resolution).  For call-graph reachability questions — "can
this function reach a barrier wait?" — over-approximating keeps the
deep rules sound (no missed protocol edge), at the price of extra
edges, which the rules tolerate by design.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Names that resolve to the Python builtin namespace (not project code).
BUILTIN_NAMES = frozenset(dir(builtins))


def _is_generator(func: ast.AST) -> bool:
    """Yield/YieldFrom in the function's own body (not nested defs)."""
    stack = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # separate scope
        stack.extend(ast.iter_child_nodes(node))
    return False


def attr_chain(node: ast.AST) -> Optional[List[str]]:
    """Dotted-name chain of an Attribute/Name expression, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # module-qualified: pkg.mod.Class.meth / pkg.mod.fn
    module: str
    name: str
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    file: str
    is_generator: bool
    class_name: Optional[str] = None  # enclosing class, if a method
    decorators: List[str] = field(default_factory=list)

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition: method table plus resolvable base names."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    file: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Base-class expressions as dotted chains (resolved lazily).
    base_chains: List[List[str]] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  # dotted module name
    file: str
    tree: ast.Module
    source: str
    #: local binding -> dotted target ("np" -> "numpy",
    #: "Simulator" -> "repro.sim.engine.Simulator").
    imports: Dict[str, str] = field(default_factory=dict)
    #: wildcard-import source modules (``from x import *``).
    star_imports: List[str] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


def module_name_for(path: Path) -> str:
    """Dotted module name from the package layout on disk.

    Climbs ancestors while they contain an ``__init__.py``; a file in a
    plain directory is a top-level module of its stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:  # an __init__.py directly in a non-package dir
        parts = [path.parent.name]
    return ".".join(parts)


class ProjectIndex:
    """Parsed view of every module under the analyzed paths."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: qualname -> FunctionInfo for every function and method.
        self.functions: Dict[str, FunctionInfo] = {}
        #: qualname -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> [FunctionInfo] (for by-name resolution).
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: plain function name -> [FunctionInfo].
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, paths: Iterable[str]) -> "ProjectIndex":
        """Index every ``*.py`` under each path (files or directories)."""
        index = cls()
        for entry in paths:
            root = Path(entry)
            if root.is_dir():
                files: Sequence[Path] = sorted(
                    p for p in root.rglob("*.py") if "__pycache__" not in p.parts
                )
            else:
                files = [root]
            for file_path in files:
                index.add_file(file_path)
        index._link()
        return index

    def add_file(self, path: Path) -> Optional[ModuleInfo]:
        source = Path(path).read_text(encoding="utf-8")
        return self.add_source(source, path=str(path))

    def add_source(self, source: str, path: str) -> Optional[ModuleInfo]:
        """Index one source unit; returns None on syntax errors (the
        plain lint engine already reports those as CHX000)."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
        name = module_name_for(Path(path)) if Path(path).exists() else (
            Path(path).stem
        )
        module = ModuleInfo(name=name, file=path, tree=tree, source=source)
        self._collect_imports(module)
        self._collect_defs(module)
        self.modules[name] = module
        return module

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative import
                    parts = module.name.split(".")
                    # level 1 = current package; an __init__ module's own
                    # name *is* the package.
                    if not module.file.endswith("__init__.py"):
                        parts = parts[:-1]
                    cut = node.level - 1
                    if cut:
                        parts = parts[:-cut] if cut < len(parts) else []
                    prefix = ".".join(parts)
                    base = f"{prefix}.{base}" if base else prefix
                for alias in node.names:
                    if alias.name == "*":
                        module.star_imports.append(base)
                        continue
                    bound = alias.asname or alias.name
                    module.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    def _collect_defs(self, module: ModuleInfo) -> None:
        def visit_function(node, class_info: Optional[ClassInfo]) -> None:
            if class_info is not None:
                qual = f"{class_info.qualname}.{node.name}"
            else:
                qual = f"{module.name}.{node.name}"
            info = FunctionInfo(
                qualname=qual,
                module=module.name,
                name=node.name,
                node=node,
                file=module.file,
                is_generator=_is_generator(node),
                class_name=class_info.name if class_info else None,
                decorators=[
                    ".".join(chain)
                    for d in node.decorator_list
                    if (chain := attr_chain(d.func if isinstance(d, ast.Call) else d))
                ],
            )
            if class_info is not None:
                class_info.methods[node.name] = info
            else:
                module.functions[node.name] = info

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit_function(node, None)
            elif isinstance(node, ast.ClassDef):
                cls_info = ClassInfo(
                    qualname=f"{module.name}.{node.name}",
                    module=module.name,
                    name=node.name,
                    node=node,
                    file=module.file,
                    base_chains=[
                        chain for b in node.bases if (chain := attr_chain(b))
                    ],
                )
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        visit_function(child, cls_info)
                module.classes[node.name] = cls_info

    def _link(self) -> None:
        """Populate the global tables once every module is parsed."""
        self.functions.clear()
        self.classes.clear()
        self.methods_by_name.clear()
        self.functions_by_name.clear()
        for module in self.modules.values():
            for fn in module.functions.values():
                self.functions[fn.qualname] = fn
                self.functions_by_name.setdefault(fn.name, []).append(fn)
            for cls_info in module.classes.values():
                self.classes[cls_info.qualname] = cls_info
                for meth in cls_info.methods.values():
                    self.functions[meth.qualname] = meth
                    self.methods_by_name.setdefault(meth.name, []).append(meth)

    # -- resolution -----------------------------------------------------

    def resolve_dotted(
        self, dotted: str, _seen: Optional[frozenset] = None
    ) -> Optional[object]:
        """Resolve a fully dotted path to a ModuleInfo / ClassInfo /
        FunctionInfo, chasing ``__init__`` re-exports."""
        if _seen is None:
            _seen = frozenset()
        if dotted in _seen:
            return None
        _seen = _seen | {dotted}
        if dotted in self.modules:
            return self.modules[dotted]
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            cls_info = self.classes[dotted]
            return cls_info
        # Split into (module prefix, remainder) at the longest known module.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.modules:
                continue
            module = self.modules[prefix]
            rest = parts[cut:]
            return self._resolve_in_module(module, rest, _seen)
        return None

    def _resolve_in_module(
        self, module: ModuleInfo, rest: List[str], _seen: frozenset
    ) -> Optional[object]:
        if not rest:
            return module
        head, tail = rest[0], rest[1:]
        if head in module.functions and not tail:
            return module.functions[head]
        if head in module.classes:
            cls_info = module.classes[head]
            if not tail:
                return cls_info
            if len(tail) == 1:
                return self.resolve_method(cls_info, tail[0])
            return None
        if head in module.imports:  # re-export (__init__ pattern)
            target = module.imports[head]
            return self.resolve_dotted(".".join([target] + tail), _seen)
        for star_source in module.star_imports:
            found = self.resolve_dotted(
                ".".join([star_source, head] + tail), _seen
            )
            if found is not None:
                return found
        return None

    def resolve_method(
        self, cls_info: ClassInfo, name: str, _seen: Optional[frozenset] = None
    ) -> Optional[FunctionInfo]:
        """Look ``name`` up on a class, then its project-resolvable MRO."""
        if _seen is None:
            _seen = frozenset()
        if cls_info.qualname in _seen:
            return None
        _seen = _seen | {cls_info.qualname}
        if name in cls_info.methods:
            return cls_info.methods[name]
        module = self.modules.get(cls_info.module)
        for chain in cls_info.base_chains:
            base = None
            if module is not None:
                base = self.resolve_chain_in(module, chain, class_ctx=None)
            if isinstance(base, ClassInfo):
                found = self.resolve_method(base, name, _seen)
                if found is not None:
                    return found
        return None

    def resolve_chain_in(
        self,
        module: ModuleInfo,
        chain: List[str],
        class_ctx: Optional[ClassInfo] = None,
    ) -> Optional[object]:
        """Resolve a dotted chain as written in ``module``'s namespace.

        ``class_ctx`` enables ``self.method`` / ``cls.method`` lookup.
        Returns ModuleInfo / ClassInfo / FunctionInfo, or None.
        """
        if not chain:
            return None
        head = chain[0]
        if head in ("self", "cls") and class_ctx is not None and len(chain) >= 2:
            if len(chain) == 2:
                return self.resolve_method(class_ctx, chain[1])
            return None  # self.attr.meth: receiver type unknown
        if head in module.functions and len(chain) == 1:
            return module.functions[head]
        if head in module.classes:
            cls_info = module.classes[head]
            if len(chain) == 1:
                return cls_info
            if len(chain) == 2:
                return self.resolve_method(cls_info, chain[1])
            return None
        if head in module.imports:
            dotted = ".".join([module.imports[head]] + chain[1:])
            return self.resolve_dotted(dotted)
        for star_source in module.star_imports:
            found = self.resolve_dotted(".".join([star_source] + chain))
            if found is not None:
                return found
        return None

    # -- convenience ----------------------------------------------------

    def iter_functions(self) -> Iterable[FunctionInfo]:
        return self.functions.values()


def enclosing_class_of(
    module: ModuleInfo, func: FunctionInfo
) -> Optional[ClassInfo]:
    if func.class_name is None:
        return None
    return module.classes.get(func.class_name)


def dump_expr(node: ast.AST, limit: int = 60) -> str:
    """Compact source-ish rendering of an expression for messages."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - very old ASTs only
        text = ast.dump(node)
    return text if len(text) <= limit else text[: limit - 3] + "..."


__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "attr_chain",
    "dump_expr",
    "enclosing_class_of",
    "module_name_for",
]
