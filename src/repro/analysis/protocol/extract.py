"""Find receive loops and blocking waits in the code.

The message vocabulary is declared (:data:`repro.net.transport.MESSAGE_KINDS`)
and every receive loop enforces it at run time, so kinds and services
are not resolved here.  Two helpers read an indexed function for the
facts the protocol rules judge:

* :func:`unfenced_receives` — ``message = yield self._mailbox.get()``
  opens a receive loop; a ``message.epoch`` comparison in the same
  function fences it, and only a class that reads ``self.epoch`` or
  ``self.data_epoch`` (an epoch-aware role) needs the fence (CHX020);
* :func:`remote_waits` — a bare ``yield delivered`` on a send result or
  a registered reply :class:`Event` is a blocking wait (CHX021).  It
  has no timeout of its own: a wait that races the event against a
  timer (``any_of`` + ``timeout``) is not a blocking wait, and a timer
  elsewhere in the function does not bound this one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    attr_chain,
    dump_expr,
)

__all__ = ["remote_waits", "unfenced_receives"]


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


def _is_epoch_aware(class_ctx: ClassInfo) -> bool:
    return any(
        attr_chain(node) in (["self", "epoch"], ["self", "data_epoch"])
        for node in ast.walk(class_ctx.node)
        if isinstance(node, ast.Attribute)
    )


def unfenced_receives(
    func: FunctionInfo, class_ctx: Optional[ClassInfo]
) -> Iterator[int]:
    """Lines of ``func``'s receive loops that never compare the received
    message's epoch, when the enclosing class tracks a recovery epoch."""
    for node in func.nodes:
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
        fenced = any(
            isinstance(test, ast.Compare)
            and ".".join(attr_chain(test.left) or ()) == epoch
            for test in func.nodes
        )
        if not fenced and class_ctx is not None and _is_epoch_aware(class_ctx):
            yield node.lineno


def remote_waits(func: FunctionInfo) -> Iterator[Tuple[int, str]]:
    """``(line, awaited name)`` of each bare yield in ``func`` on a
    delivery or reply event that a remote machine must complete."""
    send_results: Dict[str, ast.Call] = {}
    event_names: Set[str] = set()
    any_remote_send = False
    yields: List[Tuple[int, str]] = []
    for node in func.nodes:
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
        if isinstance(node, ast.stmt):
            expr = _yielded_expr(node)
            if isinstance(expr, ast.Name):
                yields.append((node.lineno, expr.id))

    for line, name in yields:
        if name in send_results:
            remote = _is_remote(send_results[name])
        elif name in event_names:
            remote = any_remote_send
        else:
            continue
        if remote:
            yield line, name
