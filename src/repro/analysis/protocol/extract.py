"""Lift communicating state machines out of the code.

The extractor walks the :class:`~repro.analysis.flow.project.ProjectIndex`
and recognizes the repo's protocol idioms:

* ``self._mailbox = network.register(machine, SERVICE)`` binds a role's
  mailbox attribute to a service name (constants resolve through import
  aliases and class attributes);
* ``message = yield self._mailbox.get()`` opens a receive loop; the
  kinds it dispatches come from literal ``message.kind`` comparisons or
  a dynamic ``getattr(self, f"_handle_{message.kind}")`` table, and a
  ``message.epoch`` comparison marks the loop epoch-fenced;
* ``network.send(..., service=..., kind=..., epoch=...)`` is a send
  transition — kind/service expressions resolve through local literals,
  conditional expressions, module/class constants and (one level deep)
  literal arguments at the call sites of the enclosing helper;
* ``barrier_arrive`` / ``barrier.wait`` / ``barrier_release`` calls are
  synchronization transitions;
* a bare ``yield delivered`` on a send result or a registered reply
  :class:`Event` is a blocking wait.  It has no timeout of its own: a
  wait that races the event against a timer (``any_of`` + ``timeout``)
  is not a blocking wait, and a timer elsewhere in the function does not
  bound this one.

Modules may also publish a ``PROTOCOL_TRANSITIONS`` dict (name ->
transition label); entries whose label starts with ``timeout`` mark
functions (e.g. ``jittered_delay`` in :mod:`repro.net.retry`) whose use
gives a function's send sites a liveness escape — the request is
retried or abandoned, which is what the model checker's steal-timeout
transition stands for.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectIndex,
    attr_chain,
    dump_expr,
    enclosing_class_of,
)

from .model import (
    BarrierOp,
    ProtocolModel,
    ReceiveLoop,
    RoleModel,
    SendOp,
    WaitOp,
)

__all__ = ["extract_model"]

#: Name of the per-module transition annotation table.
ANNOTATION_NAME = "PROTOCOL_TRANSITIONS"


def _str_constants_of(body: List[ast.stmt]) -> Dict[str, str]:
    """``NAME = "literal"`` assignments in a statement list."""
    table: Dict[str, str] = {}
    for stmt in body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            table[stmt.targets[0].id] = stmt.value.value
    return table


def _annotation_table(module: ModuleInfo) -> Optional[Dict[str, str]]:
    """The module's ``PROTOCOL_TRANSITIONS`` dict, if it declares one."""
    for stmt in module.tree.body:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == ANNOTATION_NAME
            and isinstance(stmt.value, ast.Dict)
        ):
            continue
        table: Dict[str, str] = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                table[key.value] = value.value
        return table
    return None


class _Resolver:
    """Resolve expressions to sets of possible string literals."""

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.module_constants: Dict[str, Dict[str, str]] = {}
        self.class_constants: Dict[str, Dict[str, str]] = {}
        for module in index.modules.values():
            self.module_constants[module.name] = _str_constants_of(
                module.tree.body
            )
            for cls_info in module.classes.values():
                self.class_constants[cls_info.qualname] = _str_constants_of(
                    cls_info.node.body
                )

    def module_constant(self, dotted: str) -> Optional[str]:
        """A fully dotted ``pkg.mod.NAME`` constant, or None."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.module_constants and len(parts) == cut + 1:
                return self.module_constants[prefix].get(parts[cut])
        return None

    def resolve(
        self,
        expr: ast.AST,
        module: ModuleInfo,
        func: Optional[FunctionInfo],
        class_ctx: Optional[ClassInfo],
    ) -> Tuple[Set[str], bool]:
        """Possible string values of ``expr`` and whether the set is
        complete (covers every runtime value)."""
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, str):
                return {expr.value}, True
            return set(), False
        if isinstance(expr, ast.IfExp):
            then_v, then_c = self.resolve(expr.body, module, func, class_ctx)
            else_v, else_c = self.resolve(expr.orelse, module, func, class_ctx)
            return then_v | else_v, then_c and else_c
        if isinstance(expr, ast.JoinedStr):
            return set(), False
        chain = attr_chain(expr)
        if chain is None:
            return set(), False
        if len(chain) == 1:
            return self._resolve_name(chain[0], module, func, class_ctx)
        if chain[0] in ("self", "cls") and class_ctx is not None:
            value = self._class_constant(class_ctx, chain[1])
            if value is not None and len(chain) == 2:
                return {value}, True
            return set(), False
        # A dotted constant through an import alias: walk the chain
        # through the alias table and look the terminal name up in the
        # target module's constant table.
        if chain[0] in module.imports:
            dotted = ".".join([module.imports[chain[0]]] + chain[1:])
            value = self.module_constant(dotted)
            if value is not None:
                return {value}, True
        return set(), False

    def _class_constant(
        self, cls_info: ClassInfo, name: str
    ) -> Optional[str]:
        value = self.class_constants.get(cls_info.qualname, {}).get(name)
        if value is not None:
            return value
        module = self.index.modules.get(cls_info.module)
        for base_chain in cls_info.base_chains:
            base = (
                self.index.resolve_chain_in(module, base_chain)
                if module is not None
                else None
            )
            if isinstance(base, ClassInfo):
                found = self._class_constant(base, name)
                if found is not None:
                    return found
        return None

    def _resolve_name(
        self,
        name: str,
        module: ModuleInfo,
        func: Optional[FunctionInfo],
        class_ctx: Optional[ClassInfo],
    ) -> Tuple[Set[str], bool]:
        # 1. A single literal assignment inside the enclosing function.
        if func is not None:
            values, complete, bindings = set(), True, 0
            for node in ast.walk(func.node):
                if not (
                    isinstance(node, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == name
                        for t in node.targets
                    )
                ):
                    continue
                bindings += 1
                sub_v, sub_c = self.resolve(
                    node.value, module, None, class_ctx
                )
                values |= sub_v
                complete = complete and sub_c
            if bindings:
                return values, complete and bool(values)
            # 2. A function parameter: gather literal arguments at the
            #    helper's direct call sites (one level deep).
            params = [a.arg for a in func.node.args.args]
            if name in params:
                return self._param_values(func, params.index(name), module)
        # 3. A module-level constant or imported constant.
        if name in self.module_constants.get(module.name, {}):
            return {self.module_constants[module.name][name]}, True
        if name in module.imports:
            value = self.module_constant(module.imports[name])
            if value is not None:
                return {value}, True
        return set(), False

    def _param_values(
        self, func: FunctionInfo, position: int, module: ModuleInfo
    ) -> Tuple[Set[str], bool]:
        """Literal values passed for parameter ``position`` at every
        project call site of ``func`` (by name, one level only)."""
        values: Set[str] = set()
        complete = True
        sites = 0
        skip_self = 1 if func.class_name is not None else 0
        param_name = func.node.args.args[position].arg
        for caller in self.index.iter_functions():
            caller_module = self.index.modules.get(caller.module)
            if caller_module is None:
                continue
            for node in ast.walk(caller.node):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                if chain is None or chain[-1] != func.name:
                    continue
                sites += 1
                arg: Optional[ast.AST] = None
                index_in_call = position - skip_self
                if 0 <= index_in_call < len(node.args):
                    arg = node.args[index_in_call]
                else:
                    for kw in node.keywords:
                        if kw.arg == param_name:
                            arg = kw.value
                if arg is None:
                    complete = False
                    continue
                caller_class = enclosing_class_of(caller_module, caller)
                sub_v, sub_c = self.resolve(
                    arg, caller_module, caller, caller_class
                )
                values |= sub_v
                complete = complete and sub_c
        if sites == 0:
            return set(), False
        return values, complete and bool(values)


def _call_chain(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, ast.Call):
        return attr_chain(node.func)
    return None


def _yielded_expr(stmt: ast.stmt) -> Optional[ast.AST]:
    """The expression of a bare ``yield <expr>`` statement, or None."""
    value = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    if isinstance(value, ast.Yield) and value.value is not None:
        return value.value
    return None


def _is_any_of_with_timeout(call: ast.Call) -> bool:
    chain = attr_chain(call.func)
    if chain is None or chain[-1] != "any_of":
        return False
    for arg in ast.walk(call):
        sub = _call_chain(arg)
        if sub is not None and sub[-1] == "timeout":
            return True
    return False


class _Extractor:
    def __init__(self, index: ProjectIndex):
        self.index = index
        self.resolver = _Resolver(index)
        self.model = ProtocolModel()
        #: (class qualname, attribute) -> service name for mailboxes
        #: bound via ``network.register``.
        self.mailboxes: Dict[Tuple[str, str], str] = {}
        #: functions that give a function's send sites a liveness
        #: escape, from PROTOCOL_TRANSITIONS entries labeled ``timeout...``.
        self.timeout_functions: Set[str] = {"timeout"}

    # -- passes ----------------------------------------------------------

    def run(self) -> ProtocolModel:
        self._collect_annotations()
        self._collect_mailboxes()
        for func in self.index.iter_functions():
            module = self.index.modules.get(func.module)
            if module is None:
                continue
            class_ctx = enclosing_class_of(module, func)
            self._scan_function(func, module, class_ctx)
        self._bind_services()
        # Drop roles with no protocol ops at all (every scanned class
        # gets a provisional role; most never touch the transport).
        self.model.roles = {
            name: role
            for name, role in self.model.roles.items()
            if role.sends or role.receives or role.barriers
            or role.waits or role.services
        }
        return self.model

    def _collect_annotations(self) -> None:
        for module in self.index.modules.values():
            table = _annotation_table(module)
            if table is None:
                continue
            self.model.declared[module.name] = table
            for name, label in table.items():
                if label.startswith("timeout"):
                    self.timeout_functions.add(name.split(".")[-1])

    def _collect_mailboxes(self) -> None:
        for module in self.index.modules.values():
            for cls_info in module.classes.values():
                for method in cls_info.methods.values():
                    self._scan_registrations(method, module, cls_info)

    def _scan_registrations(
        self, func: FunctionInfo, module: ModuleInfo, cls_info: ClassInfo
    ) -> None:
        for node in ast.walk(func.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            chain = _call_chain(node.value)
            if chain is None or chain[-1] != "register":
                continue
            call = node.value
            assert isinstance(call, ast.Call)
            if len(call.args) < 2:
                continue
            values, _complete = self.resolver.resolve(
                call.args[1], module, func, cls_info
            )
            if len(values) != 1:
                continue
            service = next(iter(values))
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.mailboxes[(cls_info.qualname, target.attr)] = service

    def _bind_services(self) -> None:
        owners: Dict[str, Set[str]] = {}
        for (cls_qual, _attr), service in self.mailboxes.items():
            cls_info = self.index.classes.get(cls_qual)
            if cls_info is None:
                continue
            owners.setdefault(cls_info.name, set()).add(service)
        for role_name, services in owners.items():
            self.model.role(role_name).services = tuple(sorted(services))

    # -- per-function scan ------------------------------------------------

    def _role_name(
        self, func: FunctionInfo, class_ctx: Optional[ClassInfo]
    ) -> str:
        if class_ctx is not None:
            return class_ctx.name
        return func.module.rsplit(".", 1)[-1]

    def _scan_function(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        class_ctx: Optional[ClassInfo],
    ) -> None:
        role = self.model.role(self._role_name(func, class_ctx))
        has_liveness = self._function_has_liveness(func)
        send_results: Dict[str, ast.Call] = {}
        event_names: Set[str] = set()
        any_remote_send = False

        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                chain = _call_chain(node.value)
                if isinstance(target, ast.Name) and chain is not None:
                    if chain[-1] == "send":
                        send_results[target.id] = node.value  # type: ignore[assignment]
                    elif chain[-1] == "Event":
                        event_names.add(target.id)
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            tail = chain[-1]
            if tail == "send" and self._looks_like_transport_send(node):
                op = self._send_op(node, func, module, class_ctx, role,
                                   has_liveness)
                role.sends.append(op)
                if op.remote:
                    any_remote_send = True
            elif tail == "barrier_arrive":
                role.barriers.append(self._barrier_op(node, func, role,
                                                      "arrive"))
            elif tail == "barrier_release":
                role.barriers.append(self._barrier_op(node, func, role,
                                                      "release"))
            elif tail == "wait" and any(
                "barrier" in part for part in chain[:-1]
            ):
                role.barriers.append(self._barrier_op(node, func, role,
                                                      "wait"))

        self._scan_receive_loops(func, module, class_ctx, role)
        self._scan_waits(func, role, send_results, event_names, any_remote_send)

    def _looks_like_transport_send(self, call: ast.Call) -> bool:
        kwarg_names = {kw.arg for kw in call.keywords}
        if {"service", "kind"} <= kwarg_names:
            return True
        return len(call.args) >= 5 and not call.keywords

    def _kwarg(self, call: ast.Call, name: str) -> Optional[ast.AST]:
        for kw in call.keywords:
            if kw.arg == name:
                return kw.value
        return None

    def _send_op(
        self,
        call: ast.Call,
        func: FunctionInfo,
        module: ModuleInfo,
        class_ctx: Optional[ClassInfo],
        role: RoleModel,
        has_liveness: bool,
    ) -> SendOp:
        service_expr = self._kwarg(call, "service")
        kind_expr = self._kwarg(call, "kind")
        if service_expr is None and len(call.args) >= 3:
            service_expr = call.args[2]
        if kind_expr is None and len(call.args) >= 4:
            kind_expr = call.args[3]
        service: Optional[str] = None
        if service_expr is not None:
            values, complete = self.resolver.resolve(
                service_expr, module, func, class_ctx
            )
            if complete and len(values) == 1:
                service = next(iter(values))
        kinds: Set[str] = set()
        kinds_complete = False
        if kind_expr is not None:
            kinds, kinds_complete = self.resolver.resolve(
                kind_expr, module, func, class_ctx
            )
        src_expr = self._kwarg(call, "src")
        dst_expr = self._kwarg(call, "dst")
        if src_expr is None and len(call.args) >= 1:
            src_expr = call.args[0]
        if dst_expr is None and len(call.args) >= 2:
            dst_expr = call.args[1]
        remote = True
        if src_expr is not None and dst_expr is not None:
            remote = dump_expr(src_expr, 999) != dump_expr(dst_expr, 999)
        return SendOp(
            role=role.name,
            qualname=func.qualname,
            file=func.file,
            line=call.lineno,
            service=service,
            kinds=tuple(sorted(kinds)),
            kinds_complete=kinds_complete,
            has_epoch=self._kwarg(call, "epoch") is not None,
            remote=remote,
            liveness=has_liveness,
        )

    def _barrier_op(
        self, call: ast.Call, func: FunctionInfo, role: RoleModel, op: str
    ) -> BarrierOp:
        return BarrierOp(
            role=role.name,
            qualname=func.qualname,
            file=func.file,
            line=call.lineno,
            op=op,
        )

    # -- receive loops ----------------------------------------------------

    def _scan_receive_loops(
        self,
        func: FunctionInfo,
        module: ModuleInfo,
        class_ctx: Optional[ClassInfo],
        role: RoleModel,
    ) -> None:
        for node in ast.walk(func.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Yield)
                and node.value.value is not None
            ):
                continue
            chain = _call_chain(node.value.value)
            if chain is None or chain[-1] != "get":
                continue
            msg_name = node.targets[0].id
            service = None
            if (
                class_ctx is not None
                and len(chain) == 3
                and chain[0] == "self"
            ):
                service = self.mailboxes.get(
                    (class_ctx.qualname, chain[1])
                )
            kinds, wildcard, epoch_guard = self._loop_dispatch(
                func, class_ctx, msg_name
            )
            role.receives.append(
                ReceiveLoop(
                    role=role.name,
                    qualname=func.qualname,
                    file=func.file,
                    line=node.lineno,
                    service=service,
                    kinds=tuple(sorted(kinds)),
                    wildcard=wildcard,
                    epoch_guard=epoch_guard,
                    epoch_aware=self._class_is_epoch_aware(class_ctx),
                )
            )

    def _loop_dispatch(
        self,
        func: FunctionInfo,
        class_ctx: Optional[ClassInfo],
        msg_name: str,
    ) -> Tuple[Set[str], bool, bool]:
        """(handled kinds, wildcard?, epoch guard?) of one receive loop."""
        kind_names = {f"{msg_name}.kind"}
        epoch_guard = False
        kinds: Set[str] = set()
        saw_dispatch = False
        # Local aliases: ``kind = message.kind``.
        for node in ast.walk(func.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                chain = attr_chain(node.value)
                if chain is not None and ".".join(chain) in kind_names:
                    kind_names.add(node.targets[0].id)
        for node in ast.walk(func.node):
            if isinstance(node, ast.Compare):
                left_chain = attr_chain(node.left)
                left = ".".join(left_chain) if left_chain else None
                if left == f"{msg_name}.epoch":
                    epoch_guard = True
                    continue
                if left in kind_names:
                    saw_dispatch = True
                    for comparator in node.comparators:
                        kinds |= self._literal_strings(comparator)
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain is None or chain[-1] != "getattr":
                    continue
                if not any(
                    isinstance(arg, ast.JoinedStr)
                    and "_handle_" in ast.unparse(arg)
                    for arg in node.args
                ):
                    continue
                saw_dispatch = True
                if class_ctx is not None:
                    kinds |= {
                        name[len("_handle_"):]
                        for name in class_ctx.methods
                        if name.startswith("_handle_")
                    }
        return kinds, not saw_dispatch, epoch_guard

    @staticmethod
    def _literal_strings(node: ast.AST) -> Set[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return {node.value}
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return {
                elt.value
                for elt in node.elts
                if isinstance(elt, ast.Constant)
                and isinstance(elt.value, str)
            }
        return set()

    def _class_is_epoch_aware(
        self, class_ctx: Optional[ClassInfo]
    ) -> bool:
        if class_ctx is None:
            return False
        for node in ast.walk(class_ctx.node):
            chain = attr_chain(node) if isinstance(node, ast.Attribute) else None
            if chain in (["self", "epoch"], ["self", "data_epoch"]):
                return True
        return False

    # -- waits ------------------------------------------------------------

    def _function_has_liveness(self, func: FunctionInfo) -> bool:
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            if _is_any_of_with_timeout(node):
                return True
            chain = attr_chain(node.func)
            if chain is not None and chain[-1] in self.timeout_functions:
                return True
        return False

    def _scan_waits(
        self,
        func: FunctionInfo,
        role: RoleModel,
        send_results: Dict[str, ast.Call],
        event_names: Set[str],
        any_remote_send: bool,
    ) -> None:
        for node in ast.walk(func.node):
            expr = _yielded_expr(node) if isinstance(node, ast.stmt) else None
            if expr is None or not isinstance(expr, ast.Name):
                continue
            name = expr.id
            if name in send_results:
                send_call = send_results[name]
                src = self._kwarg(send_call, "src")
                dst = self._kwarg(send_call, "dst")
                remote = True
                if src is not None and dst is not None:
                    remote = dump_expr(src, 999) != dump_expr(dst, 999)
            elif name in event_names:
                remote = any_remote_send
            else:
                continue
            role.waits.append(
                WaitOp(
                    role=role.name,
                    qualname=func.qualname,
                    file=func.file,
                    line=node.lineno,
                    target=name,
                    remote=remote,
                    # A bare yield races no timer (see the module doc).
                    has_timeout=False,
                )
            )


def extract_model(index: ProjectIndex, graph=None) -> ProtocolModel:
    """Extract the protocol model from an indexed project.

    ``graph`` (a CallGraph) is accepted for future refinement but the
    extraction itself is index-driven.
    """
    return _Extractor(index).run()
