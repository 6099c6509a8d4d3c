"""Codebase-specific determinism rules (CHX001 … CHX007).

Each rule targets one way a change can silently break the invariant
that a run is a deterministic function of ``(config, seed)``:

=======  ==========================================================
CHX001   wall-clock calls inside simulated-clock packages
CHX002   unseeded global-state randomness (``random.*``,
         ``np.random.<fn>``) instead of a passed-in generator
CHX003   compute/algorithm code reaching past the StorageEngine into
         ``Device``/backend chunk internals
CHX004   simulator-process hygiene: unscheduled generator processes,
         discarded ``wait()`` events
CHX005   iteration over sets feeding the simulated schedule; mutable
         default arguments in engine code
CHX006   broad exception handlers (bare ``except:`` /
         ``except Exception:``) in engine packages that can swallow
         the simulator's process-kill ``Interrupt``
CHX007   ad-hoc ``print``/``logging`` telemetry in engine packages
         instead of Tracer spans / CounterRegistry series
=======  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint import (
    COMPUTE_PACKAGES,
    SIM_PACKAGES,
    FileContext,
    Rule,
)


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """Dotted-name chain of an Attribute/Name expression, or None.

    ``time.perf_counter`` -> ["time", "perf_counter"];  chains broken by
    calls or subscripts return None (handled conservatively).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _base_terminal(node: ast.AST) -> Optional[str]:
    """The attribute name (or bare name) the chain hangs off.

    ``self.config.device`` -> "config";  ``store.device`` -> "store".
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class WallClockRule(Rule):
    """CHX001: wall-clock time in packages ordered by the simulated clock."""

    rule_id = "CHX001"
    severity = "error"
    title = "wall-clock call in simulated-clock package"
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    _TIME_FNS = frozenset(
        {"time", "time_ns", "sleep", "perf_counter", "perf_counter_ns",
         "monotonic", "monotonic_ns", "process_time", "process_time_ns",
         "clock"}
    )
    _DATETIME_FNS = frozenset({"now", "utcnow", "today"})

    def applies(self, ctx: FileContext) -> bool:
        # repro.obs.hostclock is the single sanctioned host-clock entry
        # point (host profiling); tests/test_host.py pins the exemption
        # to exactly this one module.
        if ctx.parts and ctx.parts[-1] == "hostclock.py":
            return False
        return ctx.in_packages(SIM_PACKAGES)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        if isinstance(node, ast.Import):
            # A bare ``import time`` would let wall-clock calls in via
            # the module object, sidestepping the call check below.
            for alias in node.names:
                if alias.name == "time" or alias.name.startswith("time."):
                    yield (
                        node.lineno,
                        "importing 'time' in a simulated-clock package; "
                        "host-side timing must go through "
                        "repro.obs.hostclock, sim timing through "
                        "Simulator.now",
                    )
            return
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                bad = sorted(
                    alias.name for alias in node.names
                    if alias.name in self._TIME_FNS
                )
                if bad:
                    yield (
                        node.lineno,
                        f"importing wall-clock function(s) {', '.join(bad)} "
                        f"from 'time' in a simulated-clock package; use "
                        f"Simulator.now / timeout events",
                    )
            return
        chain = _attr_chain(node.func)
        if not chain or len(chain) < 2:
            return
        module, fn = chain[-2], chain[-1]
        if module == "time" and fn in self._TIME_FNS:
            yield (
                node.lineno,
                f"wall-clock call time.{fn}() in a simulated-clock package; "
                f"all timing must come from the simulated clock "
                f"(Simulator.now)",
            )
        elif module in ("datetime", "date") and fn in self._DATETIME_FNS:
            yield (
                node.lineno,
                f"wall-clock call {module}.{fn}() in a simulated-clock "
                f"package; all timing must come from the simulated clock",
            )


class GlobalRandomRule(Rule):
    """CHX002: global-state randomness instead of a passed-in generator."""

    rule_id = "CHX002"
    severity = "error"
    title = "unseeded global-state randomness"
    node_types = (ast.Call, ast.ImportFrom)

    #: Constructors / types that create *owned* seeded state are fine.
    _STDLIB_OK = frozenset({"Random", "SystemRandom"})
    _NUMPY_OK = frozenset({"Generator", "SeedSequence", "default_rng",
                           "BitGenerator", "PCG64", "Philox"})

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                bad = sorted(
                    alias.name for alias in node.names
                    if alias.name not in self._STDLIB_OK
                )
                if bad:
                    yield (
                        node.lineno,
                        f"importing global-state function(s) "
                        f"{', '.join(bad)} from 'random'; construct a "
                        f"seeded random.Random(seed) instead",
                    )
            elif node.module == "numpy.random":
                bad = sorted(
                    alias.name for alias in node.names
                    if alias.name not in self._NUMPY_OK
                )
                if bad:
                    yield (
                        node.lineno,
                        f"importing global-state function(s) "
                        f"{', '.join(bad)} from 'numpy.random'; use "
                        f"np.random.default_rng(seed)",
                    )
            return

        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        # random.<fn>(...) on the stdlib module object.
        if isinstance(base, ast.Name) and base.id == "random":
            if func.attr not in self._STDLIB_OK:
                yield (
                    node.lineno,
                    f"random.{func.attr}() mutates interpreter-global RNG "
                    f"state; thread a seeded random.Random through instead",
                )
        # np.random.<fn>(...) / numpy.random.<fn>(...) legacy global API.
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
        ):
            if func.attr not in self._NUMPY_OK:
                yield (
                    node.lineno,
                    f"np.random.{func.attr}() uses the legacy global "
                    f"NumPy RNG; pass an np.random.Generator "
                    f"(default_rng(seed)) through instead",
                )


class StorageMediationRule(Rule):
    """CHX003: compute code must reach storage via StorageEngine only."""

    rule_id = "CHX003"
    severity = "error"
    title = "compute code bypasses StorageEngine mediation"
    node_types = (ast.Attribute, ast.Assign)

    #: Reading static spec fields off a DeviceSpec is configuration, not
    #: data-plane access.
    _SPEC_ATTRS = frozenset(
        {"name", "bandwidth", "latency", "capacity", "chunk_time",
         "track_label"}
    )
    #: Bases that hold a DeviceSpec (configuration), not a live device.
    _CONFIG_BASES = frozenset({"config", "cfg", "device_spec", "spec"})

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages(COMPUTE_PACKAGES)

    def _reach_through(self, node: ast.Attribute) -> Optional[Tuple[int, str]]:
        """Flag ``X.device.Y`` / ``X.backend.Y`` reach-through chains."""
        inner = node.value
        if not isinstance(inner, ast.Attribute):
            return None
        if inner.attr not in ("device", "backend"):
            return None
        if _base_terminal(inner.value) in self._CONFIG_BASES:
            return None
        if inner.attr == "device" and node.attr in self._SPEC_ATTRS:
            return None
        return (
            node.lineno,
            f"reaching through .{inner.attr}.{node.attr} bypasses the "
            f"StorageEngine protocol; add or use a StorageEngine method "
            f"instead (read-once mediation, Section 6.2)",
        )

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        if isinstance(node, ast.Attribute):
            found = self._reach_through(node)
            if found:
                yield found
            return
        # Aliasing a live device/backend defeats the chain check above,
        # so flag the alias itself: ``dev = store.device``.
        targets = [node.value]
        if isinstance(node.value, ast.Tuple):
            targets = list(node.value.elts)
        for value in targets:
            if (
                isinstance(value, ast.Attribute)
                and value.attr in ("device", "backend")
                and _base_terminal(value.value) not in self._CONFIG_BASES
            ):
                yield (
                    node.lineno,
                    f"aliasing a live .{value.attr} handle in compute code; "
                    f"go through StorageEngine accessors instead",
                )


class ProcessHygieneRule(Rule):
    """CHX004: simulator processes and wait events must not be dropped."""

    rule_id = "CHX004"
    severity = "error"
    title = "simulator-process hygiene"
    node_types = (ast.Expr,)

    _WAIT_METHODS = frozenset({"wait"})

    def __init__(self):
        self._generators: Set[str] = set()

    def begin_file(self, ctx: FileContext, tree: ast.Module) -> None:
        """Collect names of generator functions defined in this file."""
        self._generators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._is_generator(node):
                    self._generators.add(node.name)

    @staticmethod
    def _is_generator(func: ast.AST) -> bool:
        """Yield/YieldFrom in the function's own body (not nested defs)."""
        body = list(getattr(func, "body", []))
        stack = body[:]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # separate scope
            stack.extend(ast.iter_child_nodes(node))
        return False

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        value = node.value  # type: ignore[attr-defined]
        if not isinstance(value, ast.Call):
            return
        func = value.func
        # (a) A discarded wait(): the caller never observes the release.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in self._WAIT_METHODS
        ):
            yield (
                value.lineno,
                f"event returned by {func.attr}() is discarded; a process "
                f"must yield it (or subscribe to it) or the release is "
                f"silently lost",
            )
            return
        # (b) A generator process called but never scheduled: calling a
        # generator function only *creates* the generator — without
        # sim.process(...) or ``yield from`` it never runs.
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in self._generators:
            yield (
                value.lineno,
                f"generator process {name}() is called but its result is "
                f"discarded; wrap it in sim.process(...) or drive it with "
                f"'yield from'",
            )


class NondetOrderRule(Rule):
    """CHX005: set-order iteration and mutable defaults in engine code."""

    rule_id = "CHX005"
    severity = "error"
    title = "nondeterministic ordering hazard in engine code"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.For,
                  ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages(SIM_PACKAGES)

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        return False

    def _check_defaults(self, node) -> Iterator[Tuple[int, str]]:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            ):
                mutable = True
            if mutable:
                yield (
                    default.lineno,
                    f"mutable default argument in engine code "
                    f"(def {node.name}): state leaks across simulations "
                    f"and breaks (config, seed) determinism",
                )

    def _check_set_assign_iteration(self, node) -> Iterator[Tuple[int, str]]:
        """Names assigned a set in this scope, then iterated directly."""
        set_names: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and self._is_set_expr(child.value):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
        if not set_names:
            return
        for child in ast.walk(node):
            if (
                isinstance(child, ast.For)
                and isinstance(child.iter, ast.Name)
                and child.iter.id in set_names
            ):
                yield (
                    child.lineno,
                    f"iterating over set {child.iter.id!r}: set order is "
                    f"hash-dependent and can reorder the simulated "
                    f"schedule; iterate a list or sorted(...) instead",
                )

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_defaults(node)
            yield from self._check_set_assign_iteration(node)
            return
        if isinstance(node, ast.For):
            iters = [node.iter]
        else:  # comprehension
            iters = [gen.iter for gen in node.generators]
        for expr in iters:
            if self._is_set_expr(expr):
                yield (
                    expr.lineno,
                    "iterating directly over a set: set order is "
                    "hash-dependent and can reorder the simulated "
                    "schedule; iterate a list or sorted(...) instead",
                )


class BroadExceptRule(Rule):
    """CHX006: broad exception handlers that can swallow ``Interrupt``.

    The simulator kills a process by throwing
    :class:`repro.sim.engine.Interrupt` (an ``Exception`` subclass) into
    it.  A bare ``except:`` or ``except Exception:`` in engine code
    catches that kill, so a fenced process keeps running as a zombie —
    exactly the bug the fault injector's machine crashes would expose
    nondeterministically.  A handler is fine if it re-raises (bare
    ``raise``) so the kill still propagates.
    """

    rule_id = "CHX006"
    severity = "error"
    title = "broad except can swallow simulator Interrupt"
    node_types = (ast.ExceptHandler,)

    _BROAD = frozenset({"Exception", "BaseException"})

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages(SIM_PACKAGES)

    @classmethod
    def _broad_names(cls, node: ast.AST) -> List[str]:
        exprs = node.elts if isinstance(node, ast.Tuple) else [node]
        names = []
        for expr in exprs:
            chain = _attr_chain(expr)
            if chain and chain[-1] in cls._BROAD:
                names.append(chain[-1])
        return names

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        """True if the handler body contains a bare ``raise``."""
        for child in ast.walk(handler):
            if isinstance(child, ast.Raise) and child.exc is None:
                return True
        return False

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        if self._reraises(node):
            return
        if node.type is None:
            yield (
                node.lineno,
                "bare 'except:' in an engine package catches the "
                "simulator's process-kill Interrupt; catch specific "
                "exceptions or re-raise with a bare 'raise'",
            )
            return
        for name in self._broad_names(node.type):
            yield (
                node.lineno,
                f"'except {name}:' in an engine package swallows the "
                f"simulator's process-kill Interrupt (an Exception "
                f"subclass); catch specific exceptions or re-raise "
                f"with a bare 'raise'",
            )


class AdHocTelemetryRule(Rule):
    """CHX007: ad-hoc ``print``/``logging`` telemetry in engine packages.

    Engine code must emit observations through the structured channels —
    :class:`repro.obs.Tracer` spans/instants and
    :class:`repro.obs.CounterRegistry` time series — so every signal is
    timestamped on the simulated clock, lands in the exported trace, and
    stays byte-deterministic.  A stray ``print`` (or ``logging`` call,
    or direct ``sys.stdout``/``sys.stderr`` write) bypasses all of that:
    it interleaves wall-clock-ordered text with the CLI's own output and
    is invisible to ``trace-report`` and the bench snapshots.
    """

    rule_id = "CHX007"
    severity = "error"
    title = "ad-hoc telemetry bypasses Tracer/CounterRegistry"
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    _STREAMS = frozenset({"stdout", "stderr"})

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_packages(SIM_PACKAGES)

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        if isinstance(node, ast.Import):
            bad = sorted(
                alias.name for alias in node.names
                if alias.name == "logging" or alias.name.startswith("logging.")
            )
            if bad:
                yield (
                    node.lineno,
                    "importing 'logging' in an engine package; emit "
                    "telemetry through Tracer spans/instants or "
                    "CounterRegistry series instead",
                )
            return
        if isinstance(node, ast.ImportFrom):
            if node.module == "logging" or (
                node.module or ""
            ).startswith("logging."):
                yield (
                    node.lineno,
                    "importing from 'logging' in an engine package; emit "
                    "telemetry through Tracer spans/instants or "
                    "CounterRegistry series instead",
                )
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield (
                node.lineno,
                "print() in an engine package; record the observation as "
                "a Tracer span/instant or a CounterRegistry sample so it "
                "is simulated-clock-stamped and lands in the trace",
            )
            return
        chain = _attr_chain(func)
        if not chain or len(chain) < 2:
            return
        if chain[0] == "logging":
            yield (
                node.lineno,
                f"logging call {'.'.join(chain)}() in an engine package; "
                f"emit telemetry through Tracer/CounterRegistry instead",
            )
        elif (
            chain[-1] in ("write", "writelines")
            and len(chain) >= 2
            and chain[-2] in self._STREAMS
        ):
            yield (
                node.lineno,
                f"direct {chain[-2]}.{chain[-1]}() in an engine package; "
                f"emit telemetry through Tracer/CounterRegistry instead",
            )


def default_rules() -> List[Rule]:
    """Fresh instances of every CHX rule (rules hold per-file state)."""
    return [
        WallClockRule(),
        GlobalRandomRule(),
        StorageMediationRule(),
        ProcessHygieneRule(),
        NondetOrderRule(),
        BroadExceptRule(),
        AdHocTelemetryRule(),
    ]


#: Rule classes, for introspection / docs.
DEFAULT_RULES = (
    WallClockRule,
    GlobalRandomRule,
    StorageMediationRule,
    ProcessHygieneRule,
    NondetOrderRule,
    BroadExceptRule,
    AdHocTelemetryRule,
)

#: Mapping rule id -> one-line description (the README rule table).
RULE_TABLE: Dict[str, str] = {
    cls.rule_id: cls.title for cls in DEFAULT_RULES
}


def full_rule_table() -> Dict[str, str]:
    """Every rule id -> title, local (CHX001–007) and deep (CHX008–023).

    Imports the deep registry lazily so the local lint path keeps its
    zero-cost import footprint.
    """
    from repro.analysis.flow.rules import DEEP_RULE_TABLE

    table = dict(RULE_TABLE)
    table.update(DEEP_RULE_TABLE)
    return table
