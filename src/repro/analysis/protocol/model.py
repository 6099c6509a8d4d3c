"""Extracted protocol facts: per-role receive loops and blocking waits.

The facts are lifted from the code by
:mod:`repro.analysis.protocol.extract`: every mailbox dispatch loop
becomes a receive loop (with whether it fences stale epochs), and every
bare ``yield`` on a delivery or reply event a blocking wait.  The
protocol rules CHX020 and CHX021 (:mod:`repro.analysis.flow.rules`)
judge them.  The message vocabulary itself is not extracted: it is
declared in :data:`repro.net.transport.MESSAGE_KINDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = [
    "ProtocolModel",
    "ReceiveLoop",
    "RoleModel",
    "WaitOp",
]


@dataclass(frozen=True)
class ReceiveLoop:
    """One mailbox dispatch loop (``message = yield mailbox.get()``)."""

    role: str
    qualname: str
    file: str
    line: int
    #: The loop fences stale traffic (compares ``message.epoch``).
    epoch_guard: bool
    #: The enclosing role tracks a recovery epoch (``self.epoch`` /
    #: ``self.data_epoch``) — i.e. the guard is *required*.
    epoch_aware: bool


@dataclass(frozen=True)
class WaitOp:
    """A bare blocking ``yield`` on a transport delivery or reply event.

    A bare yield races no timer, so every recorded wait is untimed; a
    yield that races the event against a timer (``any_of`` + ``timeout``)
    is not a blocking wait and is never recorded.
    """

    role: str
    qualname: str
    file: str
    line: int
    #: What is awaited (source text of the yielded expression).
    target: str
    #: The awaited send could go to a remote machine.
    remote: bool


@dataclass
class RoleModel:
    """One communicating role (a class or module with protocol ops)."""

    name: str
    receives: List[ReceiveLoop] = field(default_factory=list)
    waits: List[WaitOp] = field(default_factory=list)


class ProtocolModel:
    """The extracted protocol facts: one :class:`RoleModel` per role."""

    def __init__(self):
        self.roles: Dict[str, RoleModel] = {}

    def role(self, name: str) -> RoleModel:
        if name not in self.roles:
            self.roles[name] = RoleModel(name=name)
        return self.roles[name]

    def all_receives(self) -> List[ReceiveLoop]:
        return [op for role in self.roles.values() for op in role.receives]

    def all_waits(self) -> List[WaitOp]:
        return [op for role in self.roles.values() for op in role.waits]
