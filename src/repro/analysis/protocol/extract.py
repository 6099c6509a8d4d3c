"""Lift receive loops and blocking waits out of the code.

The message vocabulary is declared (:data:`repro.net.transport.MESSAGE_KINDS`)
and every receive loop enforces it at run time, so kinds and services
are not resolved here.  The extractor walks the
:class:`~repro.analysis.flow.project.ProjectIndex` for the two facts the
protocol rules judge:

* ``message = yield self._mailbox.get()`` opens a receive loop; a
  ``message.epoch`` comparison in the same function marks it
  epoch-fenced, and a class that reads ``self.epoch`` or
  ``self.data_epoch`` is epoch-aware (CHX020);
* a bare ``yield delivered`` on a send result or a registered reply
  :class:`Event` is a blocking wait (CHX021).  It has no timeout of its
  own: a wait that races the event against a timer (``any_of`` +
  ``timeout``) is not a blocking wait, and a timer elsewhere in the
  function does not bound this one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    attr_chain,
    dump_expr,
    enclosing_class_of,
)

from .model import ProtocolModel, ReceiveLoop, WaitOp

__all__ = ["extract_model"]


def _call_chain(node: Optional[ast.AST]) -> Optional[List[str]]:
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


def _argument(call: ast.Call, name: str, position: int) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return call.args[position] if position < len(call.args) else None


def _is_remote(send: ast.Call) -> bool:
    """The send's destination expression can differ from its source
    (the delivery event may never fire under fail-stop faults)."""
    src, dst = _argument(send, "src", 0), _argument(send, "dst", 1)
    if src is None or dst is None:
        return True
    return dump_expr(src, 999) != dump_expr(dst, 999)


def _is_transport_send(call: ast.Call) -> bool:
    """``network.send(src, dst, service, kind, size, ...)``-shaped."""
    kwarg_names = {kw.arg for kw in call.keywords}
    if {"service", "kind"} <= kwarg_names:
        return True
    return len(call.args) >= 5 and not call.keywords


def _is_epoch_aware(class_ctx: Optional[ClassInfo]) -> bool:
    if class_ctx is None:
        return False
    return any(
        attr_chain(node) in (["self", "epoch"], ["self", "data_epoch"])
        for node in ast.walk(class_ctx.node)
        if isinstance(node, ast.Attribute)
    )


def _receive_loops(
    func: FunctionInfo, class_ctx: Optional[ClassInfo], role: str
) -> Iterator[ReceiveLoop]:
    for node in ast.walk(func.node):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Yield)
        ):
            continue
        chain = _call_chain(node.value.value)
        if chain is None or chain[-1] != "get":
            continue
        epoch = f"{node.targets[0].id}.epoch"
        yield ReceiveLoop(
            role=role,
            qualname=func.qualname,
            file=func.file,
            line=node.lineno,
            epoch_guard=any(
                isinstance(test, ast.Compare)
                and ".".join(attr_chain(test.left) or ()) == epoch
                for test in ast.walk(func.node)
            ),
            epoch_aware=_is_epoch_aware(class_ctx),
        )


def _waits(func: FunctionInfo, role: str) -> Iterator[WaitOp]:
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
        if isinstance(node, ast.Call):
            chain = attr_chain(node.func)
            if (
                chain is not None
                and chain[-1] == "send"
                and _is_transport_send(node)
                and _is_remote(node)
            ):
                any_remote_send = True

    for node in ast.walk(func.node):
        expr = _yielded_expr(node) if isinstance(node, ast.stmt) else None
        if not isinstance(expr, ast.Name):
            continue
        if expr.id in send_results:
            remote = _is_remote(send_results[expr.id])
        elif expr.id in event_names:
            remote = any_remote_send
        else:
            continue
        yield WaitOp(
            role=role,
            qualname=func.qualname,
            file=func.file,
            line=node.lineno,
            target=expr.id,
            remote=remote,
        )


def extract_model(index: ProjectIndex) -> ProtocolModel:
    """Extract the receive loops and waits of an indexed project."""
    model = ProtocolModel()
    for func in index.iter_functions():
        module = index.modules.get(func.module)
        if module is None:
            continue
        class_ctx = enclosing_class_of(module, func)
        name = (
            class_ctx.name if class_ctx is not None
            else func.module.rsplit(".", 1)[-1]
        )
        receives = list(_receive_loops(func, class_ctx, name))
        waits = list(_waits(func, name))
        if receives or waits:
            role = model.role(name)
            role.receives += receives
            role.waits += waits
    return model
