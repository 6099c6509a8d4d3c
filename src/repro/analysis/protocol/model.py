"""Extracted protocol model: per-role send sites, receive loops and waits.

The model is a static artifact lifted from the code by
:mod:`repro.analysis.protocol.extract`: every transport ``send`` becomes
a send site, every mailbox dispatch loop a receive loop (with the
message kinds it handles and whether it fences stale epochs), and every
bare ``yield`` on a delivery or reply event a blocking wait.  Two
consumers read it: the protocol rules CHX019-021/023
(:mod:`repro.analysis.flow.rules`) judge each site statically, and the
conformance checker (:mod:`repro.analysis.protocol.conform`) replays
recorded causal DAGs against its alphabet.

Everything here is plain data plus JSON rendering — extraction logic
lives in ``extract.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "ProtocolModel",
    "ReceiveLoop",
    "RoleModel",
    "SendOp",
    "WaitOp",
]


@dataclass(frozen=True)
class SendOp:
    """One ``network.send(...)``-shaped call site."""

    role: str
    qualname: str
    file: str
    line: int
    #: Destination service name, or None when statically unresolvable
    #: (e.g. a reply service carried in the request payload).
    service: Optional[str]
    #: Possible literal message kinds at this site (empty when the kind
    #: expression is opaque).
    kinds: Tuple[str, ...]
    #: True when *every* possible kind value was resolved to a literal;
    #: rules that prove absence (CHX019) only trust complete sites.
    kinds_complete: bool
    #: The destination expression can differ from the source (the
    #: delivery event may never fire under fail-stop faults).
    remote: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "function": self.qualname,
            "file": self.file,
            "line": self.line,
            "service": self.service,
            "kinds": list(self.kinds),
            "kinds_complete": self.kinds_complete,
            "remote": self.remote,
        }


@dataclass(frozen=True)
class ReceiveLoop:
    """One mailbox dispatch loop (``message = yield mailbox.get()``)."""

    role: str
    qualname: str
    file: str
    line: int
    #: Service whose mailbox this loop drains, or None if unresolved.
    service: Optional[str]
    #: Message kinds the loop dispatches on (literal comparisons or
    #: ``_handle_<kind>`` methods behind a dynamic getattr dispatch).
    kinds: Tuple[str, ...]
    #: The loop never inspects ``message.kind`` — it accepts anything.
    wildcard: bool
    #: The loop fences stale traffic (compares ``message.epoch``).
    epoch_guard: bool
    #: The enclosing role tracks a recovery epoch (``self.epoch`` /
    #: ``self.data_epoch``) — i.e. the guard is *required*.
    epoch_aware: bool

    def handles(self, kind: str) -> bool:
        return self.wildcard or kind in self.kinds

    def to_dict(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "function": self.qualname,
            "file": self.file,
            "line": self.line,
            "service": self.service,
            "kinds": list(self.kinds),
            "wildcard": self.wildcard,
            "epoch_guard": self.epoch_guard,
            "epoch_aware": self.epoch_aware,
        }


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "function": self.qualname,
            "file": self.file,
            "line": self.line,
            "target": self.target,
            "remote": self.remote,
        }


@dataclass
class RoleModel:
    """One communicating role (a class or module with protocol ops)."""

    name: str
    services: Tuple[str, ...] = ()
    sends: List[SendOp] = field(default_factory=list)
    receives: List[ReceiveLoop] = field(default_factory=list)
    waits: List[WaitOp] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "services": list(self.services),
            "sends": [op.to_dict() for op in self.sends],
            "receives": [op.to_dict() for op in self.receives],
            "waits": [op.to_dict() for op in self.waits],
        }


class ProtocolModel:
    """The whole extracted protocol: one :class:`RoleModel` per role."""

    def __init__(self):
        self.roles: Dict[str, RoleModel] = {}

    def role(self, name: str) -> RoleModel:
        if name not in self.roles:
            self.roles[name] = RoleModel(name=name)
        return self.roles[name]

    # -- queries ---------------------------------------------------------

    def alphabet(self) -> Set[str]:
        """Every kind some send site emits or some receive loop handles."""
        return {
            kind
            for op in [*self.all_sends(), *self.all_receives()]
            for kind in op.kinds
        }

    def handlers_for(self, service: str) -> List[ReceiveLoop]:
        return [
            loop
            for role in self.roles.values()
            for loop in role.receives
            if loop.service == service
        ]

    def handles(self, service: str, kind: str) -> bool:
        """Some receive loop on ``service`` dispatches ``kind``."""
        return any(
            loop.handles(kind) for loop in self.handlers_for(service)
        )

    def all_sends(self) -> List[SendOp]:
        return [op for role in self.roles.values() for op in role.sends]

    def all_receives(self) -> List[ReceiveLoop]:
        return [op for role in self.roles.values() for op in role.receives]

    def all_waits(self) -> List[WaitOp]:
        return [op for role in self.roles.values() for op in role.waits]

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "model_version": 2,
            "roles": {
                name: role.to_dict()
                for name, role in sorted(self.roles.items())
            },
            "alphabet": sorted(self.alphabet()),
        }
