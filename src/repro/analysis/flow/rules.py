"""Whole-program rules CHX010-CHX020 over the flow layer.

Unlike the local rules (which see one AST node at a time), a
whole-program rule sees the whole project: the :class:`DeepContext`
bundles the project index and the call graph.  Each rule's ``run``
yields plain :class:`~repro.analysis.findings.Finding` objects; the
engine applies inline suppressions afterwards, the same pass as for the
local rules.

CHX010 and CHX011 guard the determinism invariant of the runtime;
CHX016 guards the one order-sensitive step left in it (float sums must
fold through ``exact_add_at``).  CHX018 guards replay: every random
draw in the project must come from a seeded generator and never from
host entropy, or reruns and shrunk reproducer plans stop reproducing.
CHX020 stands on the registrations found by
:mod:`repro.analysis.protocol`: unfenced service registrations.  The
message vocabulary is not judged here: it
is declared in :data:`repro.net.transport.MESSAGE_KINDS`, and delivery
rejects an undeclared kind on first arrival.
"""

from __future__ import annotations

import ast
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.callgraph import CallGraph, CallSite
from repro.analysis.flow.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    attr_chain,
    dump_expr,
    enclosing_class_of,
)
from repro.analysis.lint import SIM_PACKAGES, Rule
from repro.analysis.protocol.extract import unfenced_receives

#: Packages whose gather kernels CHX016 inspects (the simulated engine
#: packages plus the user algorithms they drive).
HOT_PACKAGES: FrozenSet[str] = SIM_PACKAGES | frozenset({"algorithms"})


class DeepContext:
    """Everything a whole-program rule needs, built once per check.

    The call graph is built on first use, so a ``--rules`` subset that
    does not read it does not pay for it.
    """

    def __init__(self, index: ProjectIndex):
        self.index = index

    @cached_property
    def graph(self) -> CallGraph:
        return CallGraph.build(self.index)

    def module_is_sim(self, module_name: str) -> bool:
        return any(part in SIM_PACKAGES for part in module_name.split("."))


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


class BarrierPairingRule(Rule):
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


class DiscardedProcessRule(Rule):
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
# CHX016: float accumulation that does not go through the exact fold
# ---------------------------------------------------------------------------

#: The gather-side kernels that fold updates (scatter produces, these
#: fold), in whatever order the schedule delivered them.
_GATHER_FAMILY = frozenset(
    {"gather", "gather_chunk", "merge", "merge_accumulators"}
)

_EXACT_FOLD_CALL = "exact_add_at"


class UnorderedReductionRule(Rule):
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
        for node in func.nodes:
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

#: Every call of these reads the host's entropy pool: no seed makes
#: them replay (``secrets.*`` is matched by its module).
_HOST_ENTROPY = frozenset(
    {"os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom"}
)

#: ``numpy.random`` attributes that build owned generator state rather
#: than draw from the legacy global RNG.
_NUMPY_RANDOM_TYPES = frozenset(
    {"Generator", "SeedSequence", "default_rng", "BitGenerator", "PCG64",
     "Philox", "RandomState"}
)


class UnseededRandomRule(Rule):
    """A run is a function of ``(config, seed)``, and the chaos fuzzer's
    contract is that a ``(seed, episode)`` pair — or a shrunk reproducer
    plan — replays the exact same schedule.  One draw from host entropy
    or from an unseeded or interpreter-global RNG anywhere silently
    breaks both.

    Flags, in every module: reads of host entropy (``os.urandom``,
    ``uuid.uuid4``, ``secrets.*``, ``random.SystemRandom``), zero-argument
    RNG construction (``random.Random()``, ``np.random.default_rng()``)
    and draws on the interpreter-global RNGs (``random.shuffle(...)``,
    ``np.random.permutation(...)``…), resolved through import aliases
    (``import random as rnd``, ``from random import shuffle``).
    """

    rule_id = "CHX018"
    severity = "error"
    title = "host entropy or unseeded / global-state RNG breaks replay"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for module in sorted(ctx.index.modules.values(), key=lambda m: m.file):
            yield from self._scan_module(module)

    def _scan_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = self._resolve(module, node.func)
            if dotted is None:
                continue
            head, _, leaf = dotted.rpartition(".")
            if dotted in _HOST_ENTROPY or head == "secrets":
                yield self._finding(
                    module.file,
                    node.lineno,
                    f"{dotted}() reads host entropy in {module.name}; runs "
                    f"and fault schedules must replay byte-for-byte — "
                    f"derive every random value from the config/campaign seed",
                )
            elif dotted in _RNG_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self._finding(
                        module.file,
                        node.lineno,
                        f"{leaf}() constructed without "
                        f"a seed in {module.name}; runs and fault schedules "
                        f"must replay byte-for-byte — derive the seed from "
                        f"the config/campaign seed",
                    )
            elif head == "random":
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
# CHX020: protocol rule (extracted registrations)
# ---------------------------------------------------------------------------


class UnfencedReceiveRule(Rule):
    """An epoch-aware role registers its service without an epoch
    fence: a straggling message from before a rollback (a stale reply, a
    zombie peer's steal request) is executed against post-recovery state
    and silently corrupts it.  Roles that never track a recovery epoch
    (e.g. the failure detector) are exempt — they have nothing to fence.
    """

    rule_id = "CHX020"
    severity = "error"
    title = "service registered without an epoch fence"

    def run(self, ctx: DeepContext) -> Iterator[Finding]:
        for func in ctx.index.iter_functions():
            class_ctx = enclosing_class_of(ctx.index.modules[func.module], func)
            for line in unfenced_receives(func, class_ctx):
                yield self._finding(
                    func.file,
                    line,
                    f"{func.qualname} registers a service with no fence on "
                    f"message.epoch, but {func.class_name} tracks a recovery "
                    f"epoch; a stale-epoch straggler would be executed "
                    f"against post-rollback state",
                )


__all__ = [
    "BarrierPairingRule",
    "DeepContext",
    "DiscardedProcessRule",
    "UnfencedReceiveRule",
    "UnorderedReductionRule",
    "UnseededRandomRule",
    "definitely_terminates",
]
