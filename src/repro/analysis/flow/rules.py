"""Interprocedural rules CHX008-CHX023 over the flow layer.

Unlike the local rules (which see one AST at a time), a deep rule sees
the whole project: the :class:`DeepContext` bundles the project index,
the call graph and the taint analysis.  Each rule's ``run`` returns
plain :class:`~repro.analysis.findings.Finding` objects; the deep
engine applies inline suppressions afterwards, exactly like the local
engine does.

CHX008 and CHX010–012 guard the determinism invariant of the runtime;
CHX016 guards the one order-sensitive step left in it (float sums must
fold through ``exact_add_at``).  CHX018 guards replay: every RNG draw in
the project must come from a seeded generator, or reruns and shrunk
reproducer plans stop reproducing.  CHX019–021 and CHX023 stand on the
extracted protocol model (:mod:`repro.analysis.protocol`): unhandled
sends, unfenced receive loops, untimed remote waits and message kinds
outside the modeled vocabulary.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph, CallSite
from repro.analysis.flow.dataflow import TaintAnalysis
from repro.analysis.flow.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    attr_chain,
    dump_expr,
    parse_constant_int,
)
from repro.analysis.lint import SIM_PACKAGES

#: Sim packages plus the analysis package itself (the sanitizer's own
#: state is simulated-run state).
DEEP_SIM_PACKAGES: FrozenSet[str] = SIM_PACKAGES | frozenset({"analysis"})

#: Packages whose gather kernels CHX016 inspects (the simulated engine
#: packages plus the user algorithms they drive).
HOT_PACKAGES: FrozenSet[str] = SIM_PACKAGES | frozenset({"algorithms"})

#: Version of the deep analyzer's *rule logic*.  Mixed into the
#: ``check --deep`` pickled-index cache key alongside the index-layout
#: version, so a rule change invalidates cached results even when the
#: analyzed sources are unchanged.  Bump on any behavioural change to
#: the deep rules or the analyses they stand on.
#:
#: 1 — CHX008–012 (PR 5).
#: 2 — CHX013–017 (of which CHX016 survives revision 5).
#: 3 — CHX018: unseeded RNG in fault-injection/fuzzing code.
#: 4 — CHX019–023: protocol model extraction (unhandled sends,
#:     unfenced receives, untimed waits, lopsided barrier arrives,
#:     ghost message kinds).
#: 5 — CHX013/014/015/017 and the loop/escape analyses removed.
#: 6 — CHX016 exempts a fold that calls ``exact_add_at`` (it used to
#:     exempt a kernel whose caller sorted with ``canonical_update_order``).
#: 7 — CHX009 and CHX022 removed; CHX011 also flags same-module discards
#:     and bare ``.wait()`` calls; CHX018 covers every module; CHX021
#:     judges each wait by its own yield, not by its function.
ANALYZER_VERSION = 7


class DeepContext:
    """Everything a deep rule needs, built once per ``check --deep``."""

    def __init__(self, index: ProjectIndex, graph: Optional[CallGraph] = None):
        self.index = index
        self.graph = graph if graph is not None else CallGraph.build(index)
        self.taint = TaintAnalysis(self.index, self.graph, DEEP_SIM_PACKAGES)
        self._protocol = None

    def module_is_sim(self, module_name: str) -> bool:
        return any(part in SIM_PACKAGES for part in module_name.split("."))

    def protocol(self):
        """The extracted protocol model, built lazily and shared by the
        protocol rules (and ``check --protocol``)."""
        if self._protocol is None:
            from repro.analysis.protocol.extract import extract_model

            self._protocol = extract_model(self.index, self.graph)
        return self._protocol


class DeepRule:
    """Base for whole-program rules."""

    rule_id: str = "CHX0xx"
    severity: str = "error"
    title: str = ""

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        return iter(())

    def _finding(self, file: str, line: int, message: str) -> Finding:
        return Finding(
            file=file,
            line=line,
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
        )


# ---------------------------------------------------------------------------
# CHX008: host-nondeterminism taint reaching simulated state
# ---------------------------------------------------------------------------


class InterproceduralTaintRule(DeepRule):
    """Wall-clock / host-RNG / host-id values flowing, through any call
    chain, into a sim-package call or sim-class attribute.

    Closes the CHX001 laundering hole: that rule sees only the source
    *expression* inside a sim package; a helper in ``graph/`` or
    ``perf/`` that returns ``time.time()`` and hands it to
    ``Simulator``-side code slipped through.
    """

    rule_id = "CHX008"
    severity = "error"
    title = "host-nondeterministic value flows into simulated state"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for report in ctx.taint.run():
            yield self._finding(report.file, report.line, report.message())


# ---------------------------------------------------------------------------
# CHX010: barrier pairing across branches
# ---------------------------------------------------------------------------


def definitely_terminates(statements: Sequence[ast.stmt]) -> bool:
    """True when every path through ``statements`` leaves the enclosing
    function or loop (return/raise/break/continue), so code after the
    list is unreachable on this branch."""
    for stmt in statements:
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
            return True
        if isinstance(stmt, ast.If) and stmt.orelse:
            if definitely_terminates(stmt.body) and definitely_terminates(
                stmt.orelse
            ):
                return True
        if isinstance(stmt, ast.Try):
            tails = [stmt.body + stmt.orelse] + [h.body for h in stmt.handlers]
            if stmt.finalbody and definitely_terminates(stmt.finalbody):
                return True
            if all(definitely_terminates(t) for t in tails):
                return True
    return False


class BarrierPairingRule(DeepRule):
    """Every code path through an engine function must reach the same
    barrier sequence.  A branch that waits on a barrier the other branch
    skips deadlocks the cluster (the barrier waits forever for the
    skipping machine) — unless the skipping branch leaves the function
    entirely.  Barrier reachability is transitive over the call graph.
    """

    rule_id = "CHX010"
    severity = "error"
    title = "code paths diverge in barrier sequence"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        self._ctx = ctx
        self._memo: Dict[str, Tuple] = {}
        for func in ctx.index.iter_functions():
            if not ctx.module_is_sim(func.module):
                continue
            site_of = {
                id(site.node): site
                for site in ctx.graph.call_sites_in(func.qualname)
            }
            yield from self._check_stmts(func, func.node.body, site_of)

    # -- signatures -----------------------------------------------------

    def _sig_of_function(self, qualname: str, seen: FrozenSet[str]) -> Tuple:
        if qualname in self._memo:
            return self._memo[qualname]
        if qualname in seen:
            return ()  # recursion: bound the signature
        func = self._ctx.index.functions.get(qualname)
        if func is None:
            return ()
        site_of = {
            id(site.node): site
            for site in self._ctx.graph.call_sites_in(qualname)
        }
        sig = self._sig_of_stmts(
            func.node.body, site_of, seen | {qualname}
        )
        self._memo[qualname] = sig
        return sig

    def _sig_of_stmts(
        self,
        stmts: Sequence[ast.stmt],
        site_of: Dict[int, CallSite],
        seen: FrozenSet[str],
    ) -> Tuple:
        parts: List[object] = []
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                then_sig = self._sig_of_stmts(stmt.body, site_of, seen)
                else_sig = self._sig_of_stmts(stmt.orelse, site_of, seen)
                if then_sig == else_sig:
                    parts.extend(then_sig)
                elif definitely_terminates(stmt.body):
                    parts.extend(else_sig)
                elif stmt.orelse and definitely_terminates(stmt.orelse):
                    parts.extend(then_sig)
                else:
                    parts.append("?")  # divergence; reported at the If itself
            elif isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
                body_sig = self._sig_of_stmts(
                    stmt.body + stmt.orelse, site_of, seen
                )
                if body_sig:
                    parts.append(("loop",) + body_sig)
            elif isinstance(stmt, ast.Try):
                parts.extend(self._sig_of_stmts(stmt.body, site_of, seen))
                parts.extend(self._sig_of_stmts(stmt.finalbody, site_of, seen))
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                parts.extend(self._sig_of_stmts(stmt.body, site_of, seen))
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            else:
                parts.extend(self._sig_of_simple(stmt, site_of, seen))
        return tuple(parts)

    def _sig_of_simple(
        self,
        stmt: ast.stmt,
        site_of: Dict[int, CallSite],
        seen: FrozenSet[str],
    ) -> Tuple:
        parts: List[object] = []
        stack: List[ast.AST] = [stmt]
        calls: List[ast.Call] = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                calls.append(node)
            stack.extend(ast.iter_child_nodes(node))
        for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
            if _is_barrier_wait(call):
                parts.append("wait")
                continue
            site = site_of.get(id(call))
            if site is not None and site.kind in ("direct", "self-method"):
                for target in site.targets:
                    parts.extend(self._sig_of_function(target, seen))
        return tuple(parts)

    # -- divergence reporting -------------------------------------------

    def _check_stmts(
        self,
        func: FunctionInfo,
        stmts: Sequence[ast.stmt],
        site_of: Dict[int, CallSite],
    ) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                then_sig = self._sig_of_stmts(stmt.body, site_of, frozenset())
                else_sig = self._sig_of_stmts(stmt.orelse, site_of, frozenset())
                if (
                    then_sig != else_sig
                    and not definitely_terminates(stmt.body)
                    and not (stmt.orelse and definitely_terminates(stmt.orelse))
                ):
                    yield self._finding(
                        func.file,
                        stmt.lineno,
                        f"branches of this if reach different barrier "
                        f"sequences in {func.name}: "
                        f"{_render_sig(then_sig)} vs {_render_sig(else_sig)}; "
                        f"a machine taking the short path deadlocks the others",
                    )
                yield from self._check_stmts(func, stmt.body, site_of)
                yield from self._check_stmts(func, stmt.orelse, site_of)
            elif isinstance(stmt, (ast.For, ast.While, ast.AsyncFor, ast.Try)):
                for block in (
                    getattr(stmt, "body", []),
                    getattr(stmt, "orelse", []),
                    getattr(stmt, "finalbody", []),
                ):
                    yield from self._check_stmts(func, block, site_of)
                for handler in getattr(stmt, "handlers", []):
                    yield from self._check_stmts(func, handler.body, site_of)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._check_stmts(func, stmt.body, site_of)


def _is_barrier_wait(call: ast.Call) -> bool:
    chain = attr_chain(call.func)
    if chain is None or len(chain) < 2 or chain[-1] != "wait":
        return False
    return any("barrier" in part.lower() for part in chain[:-1])


def _render_sig(sig: Tuple) -> str:
    if not sig:
        return "[]"
    return "[" + ", ".join(
        part if isinstance(part, str) else "loop(...)" for part in sig
    ) + "]"


# ---------------------------------------------------------------------------
# CHX011: generator-process hygiene, whole-program
# ---------------------------------------------------------------------------


class DiscardedProcessRule(DeepRule):
    """A call used as a bare expression statement that drops a simulator
    process or event on the floor:

    * a generator function (resolved through imports, re-exports and
      ``self``, in any module) only *creates* its process body — without
      ``sim.process(...)`` or ``yield from`` nothing ever runs;
    * ``<x>.wait()`` returns the release event — a process that does not
      yield it never observes the release.
    """

    rule_id = "CHX011"
    severity = "error"
    title = "generator process or wait event discarded by a bare call"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for func in ctx.index.iter_functions():
            bare_calls = _bare_expression_calls(func.node)
            if not bare_calls:
                continue
            for call in bare_calls.values():
                if isinstance(call.func, ast.Attribute) and call.func.attr == "wait":
                    yield self._finding(
                        func.file,
                        call.lineno,
                        f"event returned by {dump_expr(call.func)}() is "
                        f"discarded; a process must yield it (or subscribe "
                        f"to it) or the release is silently lost",
                    )
            for site in ctx.graph.call_sites_in(func.qualname):
                if id(site.node) not in bare_calls:
                    continue
                if site.kind not in ("direct", "self-method"):
                    continue
                for target in site.targets:
                    callee = ctx.index.functions.get(target)
                    if callee is None or not callee.is_generator:
                        continue
                    yield self._finding(
                        func.file,
                        site.line,
                        f"call to generator '{target}' discards the process "
                        f"body; schedule it with sim.process(...) or iterate "
                        f"it with 'yield from'",
                    )


def _bare_expression_calls(func_node: ast.AST) -> Dict[int, ast.Call]:
    """Call nodes that are a whole expression statement, by id."""
    out: Dict[int, ast.Call] = {}
    stack = list(getattr(func_node, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            out[id(node.value)] = node.value
        stack.extend(ast.iter_child_nodes(node))
    return out


# ---------------------------------------------------------------------------
# CHX012: static race candidates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RaceCandidate:
    """One sanitizer access site seen statically."""

    file: str
    line: int
    function: str  # enclosing def chain, best-effort
    kind: Optional[str]  # key tuple's first element when literal
    index: Optional[int]  # key tuple's second element when a literal int
    machine_literal: Optional[int]  # literal machine attribution, if any
    write: Optional[bool]  # literal write flag, if any
    label: Optional[str]

    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "kind": self.kind,
            "index": self.index,
            "machine_literal": self.machine_literal,
            "write": self.write,
            "label": self.label,
        }


_SAN_RECEIVERS = frozenset({"_san", "san", "sanitizer", "_sanitizer"})


def collect_race_candidates(index: ProjectIndex) -> List[RaceCandidate]:
    """Every ``<sanitizer>.access(...)`` call site in the project.

    Scans full module trees (including nested defs, which the function
    index skips) so monkeypatch-style plants in tests are visible too.
    """
    candidates: List[RaceCandidate] = []
    for module in sorted(index.modules.values(), key=lambda m: m.file):
        stack: List[Tuple[ast.AST, str]] = [(module.tree, "<module>")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
            if isinstance(node, ast.Call):
                candidate = _candidate_from_call(node, module, scope)
                if candidate is not None:
                    candidates.append(candidate)
            for child in ast.iter_child_nodes(node):
                stack.append((child, scope))
    candidates.sort(key=lambda c: (c.file, c.line))
    return candidates


def _candidate_from_call(
    call: ast.Call, module: ModuleInfo, scope: str
) -> Optional[RaceCandidate]:
    chain = attr_chain(call.func)
    if chain is None or len(chain) < 2 or chain[-1] != "access":
        return None
    receiver_terminal = chain[-2]
    if receiver_terminal not in _SAN_RECEIVERS and not any(
        part in _SAN_RECEIVERS for part in chain[:-1]
    ):
        return None

    def arg(position: int, keyword: str) -> Optional[ast.expr]:
        if len(call.args) > position:
            node = call.args[position]
            return None if isinstance(node, ast.Starred) else node
        for kw in call.keywords:
            if kw.arg == keyword:
                return kw.value
        return None

    key_node = arg(0, "key")
    kind: Optional[str] = None
    index_literal: Optional[int] = None
    if isinstance(key_node, ast.Tuple) and key_node.elts:
        first = key_node.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            kind = first.value
        if len(key_node.elts) > 1:
            index_literal = parse_constant_int(key_node.elts[1])
    elif isinstance(key_node, ast.Constant) and isinstance(key_node.value, str):
        kind = key_node.value

    machine_node = arg(1, "machine")
    machine_literal = (
        parse_constant_int(machine_node) if machine_node is not None else None
    )
    write_node = arg(2, "write")
    write: Optional[bool] = None
    if isinstance(write_node, ast.Constant) and isinstance(write_node.value, bool):
        write = write_node.value
    label_node = arg(3, "label")
    label = (
        label_node.value
        if isinstance(label_node, ast.Constant)
        and isinstance(label_node.value, str)
        else None
    )
    return RaceCandidate(
        file=module.file,
        line=call.lineno,
        function=scope,
        kind=kind,
        index=index_literal,
        machine_literal=machine_literal,
        write=write,
        label=label,
    )


class StaticRaceCandidateRule(DeepRule):
    """Lockset-style static pass over sanitizer access sites.

    The full candidate list seeds ``run --sanitize --focus-from-check``
    (dynamic instrumentation focuses on statically flagged state kinds).
    *Findings* are reserved for statically-pinned suspects: a write
    whose machine attribution is a hard-coded literal cannot be the
    accessing engine's own identity (every legitimate engine access
    passes ``self.machine``), so it is either a planted race or a
    mis-attributed report that would corrupt the happens-before
    analysis.
    """

    rule_id = "CHX012"
    severity = "error"
    title = "statically attributed cross-machine write candidate"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for candidate in collect_race_candidates(ctx.index):
            if candidate.write is True and candidate.machine_literal is not None:
                where = (
                    f"key kind '{candidate.kind}'"
                    if candidate.kind is not None
                    else "an opaque key"
                )
                yield self._finding(
                    candidate.file,
                    candidate.line,
                    f"sanitizer write on {where} hard-codes machine "
                    f"{candidate.machine_literal} (in {candidate.function}); "
                    f"engine accesses must attribute to self.machine — "
                    f"literal attribution marks a race candidate",
                )


# ---------------------------------------------------------------------------
# CHX016: float accumulation that does not go through the exact fold
# ---------------------------------------------------------------------------

#: The gather-side kernels that fold updates (scatter produces, these
#: fold), in whatever order the schedule delivered them.
_GATHER_FAMILY = frozenset(
    {"gather", "gather_chunk", "merge", "merge_accumulators"}
)

_EXACT_FOLD_CALL = "exact_add_at"


class UnorderedReductionRule(DeepRule):
    """Float ``+=`` accumulation is order-sensitive (every ``+``
    rounds), and the runtime folds updates in arrival order, which
    stealing and recovery change.  A float sum must go through
    ``exact_add_at``, whose result is the same in any order.  Flags
    additive folds in gather-family kernels that do not call it; an
    integer sum is exact in any order and says so with an inline
    suppression.
    """

    rule_id = "CHX016"
    severity = "warning"
    title = "order-sensitive float accumulation not routed through exact_add_at"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for func in ctx.index.iter_functions():
            if func.name not in _GATHER_FAMILY:
                continue
            if not any(
                part in HOT_PACKAGES for part in func.module.split(".")
            ):
                continue
            if self._folds_exactly(ctx, func):
                continue
            yield from self._additive_folds(func)

    @staticmethod
    def _folds_exactly(ctx: DeepContext, func: FunctionInfo) -> bool:
        """The function's fold goes through ``exact_add_at``."""
        return any(
            site.name == _EXACT_FOLD_CALL
            for site in ctx.graph.call_sites_in(func.qualname)
        )

    def _additive_folds(self, func: FunctionInfo) -> Iterator[Finding]:
        for node in ast.walk(func.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node is not func.node
            ):
                continue
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                target = dump_expr(node.target)
                yield self._finding(
                    func.file,
                    node.lineno,
                    f"additive fold '{target} += …' in {func.name} depends "
                    f"on the order updates arrive in; float addition is "
                    f"not associative — fold float sums with exact_add_at, "
                    f"or switch to an order-insensitive combine",
                )
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain is not None and len(chain) >= 2 and (
                    chain[-2:] == ["add", "at"]
                ):
                    yield self._finding(
                        func.file,
                        node.lineno,
                        f"'{'.'.join(chain)}(…)' in {func.name} folds "
                        f"updates in arrival order; float addition is not "
                        f"associative — use exact_add_at, which gives the "
                        f"same bits in any order",
                    )


# ---------------------------------------------------------------------------
# CHX018: unseeded or global-state randomness
# ---------------------------------------------------------------------------

#: Zero-argument constructions of these canonical targets seed from the
#: OS entropy pool — the schedule they drive can never be replayed.
_RNG_CONSTRUCTORS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: Stdlib ``random`` attributes that are *types*, not the global-RNG
#: convenience functions (calling these is not a global-state draw).
_RANDOM_TYPES = frozenset({"Random", "SystemRandom"})

#: ``numpy.random`` attributes that build owned generator state rather
#: than draw from the legacy global RNG.
_NUMPY_RANDOM_TYPES = frozenset(
    {"Generator", "SeedSequence", "default_rng", "BitGenerator", "PCG64",
     "Philox", "RandomState"}
)


class UnseededRandomRule(DeepRule):
    """A run is a function of ``(config, seed)``, and the chaos fuzzer's
    contract is that a ``(seed, episode)`` pair — or a shrunk reproducer
    plan — replays the exact same schedule.  One draw from an unseeded
    or interpreter-global RNG anywhere silently breaks both.

    Flags, in every module: zero-argument RNG construction
    (``random.Random()``, ``np.random.default_rng()``) and draws on the
    interpreter-global RNGs (``random.shuffle(...)``,
    ``np.random.permutation(...)``…), resolved through import aliases
    (``import random as rnd``, ``from random import shuffle``).
    """

    rule_id = "CHX018"
    severity = "error"
    title = "unseeded or global-state RNG breaks replay"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for module in sorted(ctx.index.modules.values(), key=lambda m: m.file):
            yield from self._scan_module(module)

    def _scan_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = self._resolve(module, node.func)
            if dotted is None:
                continue
            if dotted in _RNG_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self._finding(
                        module.file,
                        node.lineno,
                        f"{dotted.rsplit('.', 1)[-1]}() constructed without "
                        f"a seed in {module.name}; runs and fault schedules "
                        f"must replay byte-for-byte — derive the seed from "
                        f"the config/campaign seed",
                    )
                continue
            head, _, leaf = dotted.rpartition(".")
            if head == "random" and leaf not in _RANDOM_TYPES:
                yield self._finding(
                    module.file,
                    node.lineno,
                    f"random.{leaf}() draws from the interpreter-global "
                    f"RNG in {module.name}; runs and fault schedules must "
                    f"replay — thread a seeded random.Random through instead",
                )
            elif head == "numpy.random" and leaf not in _NUMPY_RANDOM_TYPES:
                yield self._finding(
                    module.file,
                    node.lineno,
                    f"np.random.{leaf}() uses the legacy global NumPy RNG "
                    f"in {module.name}; runs and fault schedules must "
                    f"replay — pass a seeded np.random.default_rng(seed) "
                    f"through instead",
                )

    @staticmethod
    def _resolve(module: ModuleInfo, func: ast.expr) -> Optional[str]:
        """Canonical dotted target of a call, through import aliases."""
        chain = attr_chain(func)
        if chain is None or not chain:
            return None
        root = module.imports.get(chain[0], chain[0])
        return ".".join([root] + chain[1:])


# ---------------------------------------------------------------------------
# CHX019–021, CHX023: protocol-model rules (extracted state machines)
# ---------------------------------------------------------------------------


class UnhandledSendRule(DeepRule):
    """A send whose destination service has no receive loop dispatching
    that message kind: the message is delivered into a mailbox nobody
    drains for it, and the sender's reply wait hangs (or the receiver's
    dispatch raises on the unknown kind).  Only send sites whose service
    and kind both resolve to literals are judged — an opaque expression
    is never proof of absence.
    """

    rule_id = "CHX019"
    severity = "error"
    title = "send with no matching receive handler"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        model = ctx.protocol()
        for op in model.all_sends():
            if op.service is None or not op.kinds_complete or not op.kinds:
                continue
            if not model.handlers_for(op.service):
                # No receive loop registered for the service at all —
                # covered per kind below, but name the service once.
                yield self._finding(
                    op.file,
                    op.line,
                    f"{op.qualname} sends to service {op.service!r} "
                    f"but no receive loop drains that mailbox",
                )
                continue
            for kind in op.kinds:
                if not model.handles(op.service, kind):
                    yield self._finding(
                        op.file,
                        op.line,
                        f"{op.qualname} sends kind {kind!r} to service "
                        f"{op.service!r} but no receive loop on that "
                        f"service dispatches it; the message is dropped "
                        f"on the floor (or kills the dispatcher)",
                    )


class UnfencedReceiveRule(DeepRule):
    """An epoch-aware role's receive loop without an epoch fence: a
    straggling message from before a rollback (a stale reply, a zombie
    peer's steal request) is executed against post-recovery state and
    silently corrupts it.  Roles that never track a recovery epoch
    (e.g. the failure detector) are exempt — they have nothing to fence.
    """

    rule_id = "CHX020"
    severity = "error"
    title = "receive loop missing epoch guard"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for loop in ctx.protocol().all_receives():
            if loop.epoch_aware and not loop.epoch_guard:
                service = (
                    f"service {loop.service!r}"
                    if loop.service is not None
                    else "its mailbox"
                )
                yield self._finding(
                    loop.file,
                    loop.line,
                    f"{loop.qualname} drains {service} without comparing "
                    f"message.epoch, but {loop.role} tracks a recovery "
                    f"epoch; a stale-epoch straggler would be executed "
                    f"against post-rollback state",
                )


class UntimedWaitRule(DeepRule):
    """A process blocks on a remote delivery (or a reply event armed by
    a remote request) with a bare ``yield``: if the peer fail-stops, the
    message is lost and the process hangs forever — under the
    real-process backend that is a cluster deadlock, not a simulation
    artifact.  Each wait is judged by its own yield: racing the event
    against a timer (``any_of`` + ``timeout``) is the escape, and a
    timeout or backoff elsewhere in the function does not bound it.
    """

    rule_id = "CHX021"
    severity = "warning"
    title = "blocking wait with no timeout/liveness path"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for wait in ctx.protocol().all_waits():
            if wait.remote and not wait.has_timeout:
                yield self._finding(
                    wait.file,
                    wait.line,
                    f"{wait.qualname} yields on {wait.target!r} (a remote "
                    f"delivery) with no any_of+timeout race of its own; a "
                    f"fail-stopped peer hangs this process forever",
                )


class GhostKindRule(DeepRule):
    """A transport :class:`Message` constructed with a kind the
    extracted protocol model has never heard of: no send site emits it
    and no receive loop dispatches it, so it is either dead vocabulary
    or a hand-rolled message that bypasses the modeled protocol (and
    every invariant the model checker proves about it).
    """

    rule_id = "CHX023"
    severity = "warning"
    title = "message kind constructed but absent from the extracted model"

    #: kind's position among Message's constructor fields
    #: (src, dst, service, kind, ...).
    _KIND_POSITION = 3

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        model = ctx.protocol()
        alphabet = model.alphabet()
        for func in ctx.index.iter_functions():
            module = ctx.index.modules.get(func.module)
            if module is None:
                continue
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                if not self._is_message_construction(ctx, module, node):
                    continue
                kind = self._literal_kind(node)
                if kind is None or kind in alphabet:
                    continue
                yield self._finding(
                    func.file,
                    node.lineno,
                    f"{func.qualname} constructs a Message of kind "
                    f"{kind!r}, which no modeled send or receive loop "
                    f"mentions; it bypasses the extracted protocol",
                )

    def _is_message_construction(
        self, ctx: DeepContext, module: ModuleInfo, call: ast.Call
    ) -> bool:
        chain = attr_chain(call.func)
        if chain is None or chain[-1] != "Message":
            return False
        target = ctx.index.resolve_chain_in(module, chain)
        name = getattr(target, "qualname", "")
        return name.endswith(".Message") or chain == ["Message"]

    def _literal_kind(self, call: ast.Call) -> Optional[str]:
        expr: Optional[ast.expr] = None
        for kw in call.keywords:
            if kw.arg == "kind":
                expr = kw.value
        if expr is None and len(call.args) > self._KIND_POSITION:
            expr = call.args[self._KIND_POSITION]
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        return None


def default_deep_rules() -> List[DeepRule]:
    return [
        InterproceduralTaintRule(),
        BarrierPairingRule(),
        DiscardedProcessRule(),
        StaticRaceCandidateRule(),
        UnorderedReductionRule(),
        UnseededRandomRule(),
        UnhandledSendRule(),
        UnfencedReceiveRule(),
        UntimedWaitRule(),
        GhostKindRule(),
    ]


#: rule id -> title, for docs/tests (mirrors rules.RULE_TABLE).
DEEP_RULE_TABLE: Dict[str, str] = {
    rule.rule_id: rule.title for rule in default_deep_rules()
}


__all__ = [
    "ANALYZER_VERSION",
    "DEEP_RULE_TABLE",
    "DEEP_SIM_PACKAGES",
    "BarrierPairingRule",
    "DeepContext",
    "DeepRule",
    "DiscardedProcessRule",
    "GhostKindRule",
    "InterproceduralTaintRule",
    "RaceCandidate",
    "StaticRaceCandidateRule",
    "UnfencedReceiveRule",
    "UnhandledSendRule",
    "UnorderedReductionRule",
    "UnseededRandomRule",
    "UntimedWaitRule",
    "collect_race_candidates",
    "default_deep_rules",
    "definitely_terminates",
]
