"""Find service registrations that pass no epoch fence.

The message vocabulary is declared (:data:`repro.net.transport.MESSAGE_KINDS`)
and delivery enforces it at run time, so kinds and services are not
resolved here.  :func:`unfenced_receives` reads an indexed function for
the fact the protocol rule CHX020 judges: ``network.register(machine,
service, handlers, fence)`` is a service's whole receive path; a class
that reads ``self.epoch`` or ``self.data_epoch`` (an epoch-aware role)
must pass a ``fence``, and a ``self.<method>`` fence must compare its
message's ``epoch``.

Blocking waits are not judged: a wait ends when its event fires, or
when the rollback fence kills its process (the fence fires on the
lease detector's first suspicion).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.flow.project import (
    ClassInfo,
    FunctionInfo,
    attr_chain,
)

__all__ = ["unfenced_receives"]


def _argument(call: ast.Call, name: str, position: int) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return call.args[position] if position < len(call.args) else None


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
