"""Extracted protocol model: per-role communicating state machines.

The model is a static artifact lifted from the code by
:mod:`repro.analysis.protocol.extract`: every transport ``send`` becomes
a labeled send transition, every mailbox dispatch loop a set of receive
transitions (one per handled message kind), barrier arrive/wait/release
calls become synchronization transitions, and epoch-fence comparisons
become transition predicates.  The bounded model checker
(:mod:`repro.analysis.protocol.mc`) instantiates the model for small
clusters; the conformance checker (:mod:`repro.analysis.protocol.conform`)
replays recorded causal DAGs against its alphabet.

Everything here is plain data plus DOT/JSON rendering — extraction
logic lives in ``extract.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "BarrierOp",
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
    #: The call passes an ``epoch=`` stamp (fence-aware traffic).
    has_epoch: bool
    #: The destination expression can differ from the source (the
    #: delivery event may never fire under fail-stop faults).
    remote: bool
    #: The enclosing function has a timeout/liveness escape (an
    #: ``any_of``+``timeout`` wait loop or a declared timeout helper),
    #: so the request is retried or abandoned rather than awaited
    #: forever.  Waits are judged one by one (:attr:`WaitOp.has_timeout`).
    liveness: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "function": self.qualname,
            "file": self.file,
            "line": self.line,
            "service": self.service,
            "kinds": list(self.kinds),
            "kinds_complete": self.kinds_complete,
            "has_epoch": self.has_epoch,
            "remote": self.remote,
            "liveness": self.liveness,
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
class BarrierOp:
    """A barrier synchronization point (arrive / wait / release)."""

    role: str
    qualname: str
    file: str
    line: int
    op: str  # "arrive" | "wait" | "release"

    def to_dict(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "function": self.qualname,
            "file": self.file,
            "line": self.line,
            "op": self.op,
        }


@dataclass(frozen=True)
class WaitOp:
    """A bare blocking ``yield`` on a transport delivery or reply event."""

    role: str
    qualname: str
    file: str
    line: int
    #: What is awaited (source text of the yielded expression).
    target: str
    #: The awaited send could go to a remote machine.
    remote: bool
    #: The wait's own yield races a timer.  False for a bare ``yield``,
    #: which is all the extractor records (a yield racing the event
    #: against a timer is not a blocking wait); kept so the model JSON
    #: states the verdict per wait.
    has_timeout: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "function": self.qualname,
            "file": self.file,
            "line": self.line,
            "target": self.target,
            "remote": self.remote,
            "has_timeout": self.has_timeout,
        }


@dataclass
class RoleModel:
    """One communicating role (a class or module with protocol ops)."""

    name: str
    services: Tuple[str, ...] = ()
    sends: List[SendOp] = field(default_factory=list)
    receives: List[ReceiveLoop] = field(default_factory=list)
    barriers: List[BarrierOp] = field(default_factory=list)
    waits: List[WaitOp] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "services": list(self.services),
            "sends": [op.to_dict() for op in self.sends],
            "receives": [op.to_dict() for op in self.receives],
            "barriers": [op.to_dict() for op in self.barriers],
            "waits": [op.to_dict() for op in self.waits],
        }


class ProtocolModel:
    """The whole extracted protocol: roles plus declared annotations."""

    def __init__(self):
        self.roles: Dict[str, RoleModel] = {}
        #: module name -> its ``PROTOCOL_TRANSITIONS`` annotation dict.
        self.declared: Dict[str, Dict[str, str]] = {}

    def role(self, name: str) -> RoleModel:
        if name not in self.roles:
            self.roles[name] = RoleModel(name=name)
        return self.roles[name]

    # -- alphabets -------------------------------------------------------

    def send_alphabet(self) -> Set[str]:
        return {
            kind
            for role in self.roles.values()
            for op in role.sends
            for kind in op.kinds
        }

    def handled_alphabet(self) -> Set[str]:
        return {
            kind
            for role in self.roles.values()
            for loop in role.receives
            for kind in loop.kinds
        }

    def alphabet(self) -> Set[str]:
        return self.send_alphabet() | self.handled_alphabet()

    # -- queries ---------------------------------------------------------

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

    def all_barriers(self) -> List[BarrierOp]:
        return [op for role in self.roles.values() for op in role.barriers]

    def service_owner(self, service: str) -> Optional[str]:
        for role in self.roles.values():
            if service in role.services:
                return role.name
        return None

    def stats(self) -> Dict[str, int]:
        return {
            "roles": len(self.roles),
            "sends": len(self.all_sends()),
            "receives": len(self.all_receives()),
            "barriers": len(self.all_barriers()),
            "waits": len(self.all_waits()),
            "kinds": len(self.alphabet()),
        }

    # -- export ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "model_version": 1,
            "roles": {
                name: role.to_dict()
                for name, role in sorted(self.roles.items())
            },
            "declared_transitions": {
                module: dict(sorted(table.items()))
                for module, table in sorted(self.declared.items())
            },
            "alphabet": sorted(self.alphabet()),
            "stats": self.stats(),
        }

    def to_dot(self) -> str:
        """Render the role/service message graph as Graphviz DOT.

        One node per role; a send with a resolved service draws an edge
        to the role registering that service (or to a free-standing
        service node when no role owns it), labeled with the message
        kind.  Receive-only kinds render as self-annotations, barrier
        ops as edges into a shared ``barrier`` node.
        """
        lines = ["digraph protocol {", "  rankdir=LR;",
                 '  node [shape=box, fontname="monospace"];']
        for name in sorted(self.roles):
            role = self.roles[name]
            services = ",".join(role.services)
            label = name if not services else f"{name}\\n[{services}]"
            lines.append(f'  "{name}" [label="{label}"];')
        edges: Set[Tuple[str, str, str]] = set()
        orphan_services: Set[str] = set()
        for role in self.roles.values():
            for op in role.sends:
                if op.service is None or not op.kinds:
                    continue
                owner = self.service_owner(op.service)
                target = owner if owner is not None else f"svc:{op.service}"
                if owner is None:
                    orphan_services.add(op.service)
                for kind in op.kinds:
                    guard = " [e]" if op.has_epoch else ""
                    edges.add((role.name, target, f"{kind}{guard}"))
            if role.barriers:
                edges.add((role.name, "barrier", "arrive/release"))
        if any(target == "barrier" for _s, target, _l in edges):
            lines.append('  "barrier" [shape=doublecircle, label="barrier"];')
        for service in sorted(orphan_services):
            lines.append(
                f'  "svc:{service}" [shape=ellipse, style=dashed, '
                f'label="{service}?"];'
            )
        for src, dst, label in sorted(edges):
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
