"""Codebase-specific determinism rules and the one rule registry.

Each rule targets one way a change can silently break the invariant
that a run is a deterministic function of ``(config, seed)``.  The
local rules, defined here, see one AST node at a time:

=======  ==========================================================
CHX001   host clock reads anywhere but ``repro.obs.hostclock``; host
         identity (``id()``, ``os.getpid()``) in simulated-clock packages
CHX003   compute/algorithm code reaching past the StorageEngine into
         ``Device``/backend chunk internals
CHX005   iteration over sets feeding the simulated schedule; mutable
         default arguments in engine code
CHX006   broad exception handlers (bare ``except:`` /
         ``except Exception:``) in engine packages that can swallow
         the simulator's process-kill ``Interrupt``
CHX007   ad-hoc ``print``/``logging`` telemetry in engine packages
         instead of Tracer spans / CounterRegistry series
=======  ==========================================================

Host entropy and global-state randomness, and discarded processes or
wait events, are whole-program rules (CHX018, CHX011): resolving import
aliases and callees needs the project index.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.rules import (
    BarrierPairingRule,
    DiscardedProcessRule,
    UnfencedReceiveRule,
    UnorderedReductionRule,
    UnseededRandomRule,
    UntimedWaitRule,
)
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
    """CHX001: host clock reads anywhere, host identity in sim packages.

    Catches host state where it is read: a wall-clock value computed in
    a helper and handed to simulated code is flagged in the helper,
    whatever call chain carries it afterwards.
    """

    rule_id = "CHX001"
    severity = "error"
    title = "host clock read outside repro.obs.hostclock, or host identity in a sim package"
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    _TIME_FNS = frozenset(
        {"time", "time_ns", "sleep", "perf_counter", "perf_counter_ns",
         "monotonic", "monotonic_ns", "process_time", "process_time_ns",
         "clock"}
    )
    _DATETIME_FNS = frozenset({"now", "utcnow", "today"})
    #: Host process identity; ``id()`` (an object address) is checked
    #: as a bare builtin call.
    _IDENTITY_FNS = frozenset({"getpid", "getppid"})

    def applies(self, ctx: FileContext) -> bool:
        # repro.obs.hostclock is the single sanctioned host-clock entry
        # point (host profiling); tests/test_host.py pins the exemption
        # to exactly this one module.
        return not (ctx.parts and ctx.parts[-1] == "hostclock.py")

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Tuple[int, str]]:
        # Host identity is judged in the sim packages only: host-side
        # tooling (the analyzer itself) keys in-process dicts by id().
        in_sim = ctx.in_packages(SIM_PACKAGES)
        if isinstance(node, ast.Import):
            # A bare ``import time`` would let wall-clock calls in via
            # the module object, sidestepping the call check below.
            for alias in node.names:
                if alias.name == "time" or alias.name.startswith("time."):
                    yield (
                        node.lineno,
                        "importing 'time' outside repro.obs.hostclock; "
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
                        f"from 'time' outside repro.obs.hostclock; use "
                        f"Simulator.now / timeout events",
                    )
            elif node.module == "os" and in_sim:
                bad = sorted(
                    alias.name for alias in node.names
                    if alias.name in self._IDENTITY_FNS
                )
                if bad:
                    yield (
                        node.lineno,
                        f"importing host identity function(s) "
                        f"{', '.join(bad)} from 'os' in a simulated-clock "
                        f"package; key by simulated identity (machine, "
                        f"partition) instead",
                    )
            return
        if isinstance(node.func, ast.Name):
            if node.func.id == "id" and in_sim:
                yield (
                    node.lineno,
                    "host identity id() in a simulated-clock package: "
                    "object addresses differ from run to run; key by "
                    "simulated identity (machine, partition) instead",
                )
            return
        chain = _attr_chain(node.func)
        if not chain or len(chain) < 2:
            return
        module, fn = chain[-2], chain[-1]
        if module == "time" and fn in self._TIME_FNS:
            yield (
                node.lineno,
                f"wall-clock call time.{fn}() outside repro.obs.hostclock; "
                f"sim timing must come from the simulated clock "
                f"(Simulator.now), host timing from repro.obs.hostclock",
            )
        elif module in ("datetime", "date") and fn in self._DATETIME_FNS:
            yield (
                node.lineno,
                f"wall-clock call {module}.{fn}() outside "
                f"repro.obs.hostclock; sim timing must come from the "
                f"simulated clock",
            )
        elif module == "os" and fn in self._IDENTITY_FNS and in_sim:
            yield (
                node.lineno,
                f"host identity os.{fn}() in a simulated-clock package: "
                f"process ids differ from run to run; key by simulated "
                f"identity (machine, partition) instead",
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
    """Fresh instances of every CHX rule, local and whole-program."""
    return [
        WallClockRule(),
        StorageMediationRule(),
        NondetOrderRule(),
        BroadExceptRule(),
        AdHocTelemetryRule(),
        BarrierPairingRule(),
        DiscardedProcessRule(),
        UnorderedReductionRule(),
        UnseededRandomRule(),
        UnfencedReceiveRule(),
        UntimedWaitRule(),
    ]


#: Mapping rule id -> one-line description (the README rule table).
RULE_TABLE: Dict[str, str] = {rule.rule_id: rule.title for rule in default_rules()}
