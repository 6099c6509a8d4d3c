"""Find service registrations and blocking waits in the code.

The message vocabulary is declared (:data:`repro.net.transport.MESSAGE_KINDS`)
and delivery enforces it at run time, so kinds and services are not
resolved here.  Two helpers read an indexed function for the facts the
protocol rules judge:

* :func:`unfenced_receives` — ``network.register(machine, service,
  handlers, fence)`` is a service's whole receive path; a class that
  reads ``self.epoch`` or ``self.data_epoch`` (an epoch-aware role)
  must pass a ``fence``, and a ``self.<method>`` fence must compare its
  message's ``epoch`` (CHX020);
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


def _fences_epoch(fence: Optional[ast.AST], class_ctx: ClassInfo) -> bool:
    """A fence is passed and, if it is a ``self.<method>``, that method
    compares its message parameter's ``epoch`` (a fence the class does
    not define is taken on trust)."""
    if fence is None or isinstance(fence, ast.Constant):
        return False
    chain = attr_chain(fence) or []
    method = class_ctx.methods.get(chain[-1]) if chain[:-1] == ["self"] else None
    if method is None:
        return True
    epoch = [method.node.args.args[-1].arg, "epoch"]  # type: ignore[attr-defined]
    return any(
        isinstance(node, ast.Compare)
        and epoch in map(attr_chain, (node.left, *node.comparators))
        for node in method.nodes
    )


def unfenced_receives(
    func: FunctionInfo, class_ctx: Optional[ClassInfo]
) -> Iterator[int]:
    """Lines of ``func``'s service registrations that pass no fence, or
    a fence that never compares the message's epoch, when the enclosing
    class tracks a recovery epoch."""
    if class_ctx is None or not _is_epoch_aware(class_ctx):
        return
    for node in func.nodes:
        if not isinstance(node, ast.Call):
            continue
        chain = attr_chain(node.func)
        if (
            chain is not None
            and chain[-1] == "register"
            and _argument(node, "handlers", 2) is not None
            and not _fences_epoch(_argument(node, "fence", 3), class_ctx)
        ):
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
            target, value = node.targets[0], node.value
            chain = attr_chain(value.func) if isinstance(value, ast.Call) else None
            if isinstance(target, ast.Name) and chain is not None:
                if chain[-1] == "send":
                    send_results[target.id] = value
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
