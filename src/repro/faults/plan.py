"""Fault plans: what to break, where, and when.

A :class:`FaultPlan` is a declarative schedule of machine faults to
inject into a simulated run (Section 6.6 evaluation methodology).  Each
:class:`FaultSpec` names a fault kind, a victim machine, and a trigger —
either an absolute simulated time (``t=``) or the start of a logical
iteration (``iter=``) — plus kind-specific knobs.

The CLI grammar (``--inject-fault SPEC``, repeatable)::

    kind:machine@trigger[,key=value ...]

    crash:1@t=0.05              # fail-stop; operator reboot during recovery
    crash:1@t=0.05,down=0.02    # fail-stop; self-reboots after 20 ms
    crash-restart:2@iter=3      # fail-stop + self-reboot (RESTART_SECONDS)
    partition:0@t=0.1,for=0.02  # network partition for 20 ms
    slow-device:1@iter=2,factor=8,for=0.05   # device 8x slower for 50 ms
    msg-corrupt:1@iter=2,count=2   # next 2 chunk frames to m1 corrupted
    msg-dup:0@t=0.05               # next message to m0 delivered twice
    msg-reorder:1@iter=1,delay=0.002  # next frame to m1 held 2 ms
    chunk-bitflip:1@iter=2         # next served chunk bit-flipped
    torn-write:0@iter=1,count=2    # next 2 persisted chunks torn
    stale-read:1@iter=2            # next vread returns prior version
    ckpt-corrupt:1@iter=3          # corrupt a durable checkpoint replica

``crash`` and ``crash-restart`` share mechanics (fail-stop, in-memory
state lost, secondary storage survives — the paper's transient-failure
assumption); they differ in who reboots the machine.  A plain ``crash``
stays down until the cluster's recovery procedure reboots it
(``RESTART_SECONDS`` after recovery begins), while
``crash-restart`` reboots on its own ``down`` seconds after the crash —
possibly before the failure detector has even noticed.

The byzantine family (message corruption / duplication / reordering,
chunk bit-flips, torn writes, stale reads, checkpoint-replica rot)
models *silent* damage rather than fail-stop: nothing crashes, data is
just wrong.  Each byzantine spec arms a budget of ``count`` damaged
operations on the victim machine; the integrity hardening
(``config.integrity_checks``) must detect and repair every one of them
for the run to stay byte-identical to the undisturbed run.

Each kind is declared once, in :data:`FAULT_TABLE` (its option keys,
whether it is byzantine, its ``arm``), and each key once, in
:data:`TRIGGERS` or :data:`OPTIONS` (its field and parser).  Parse,
validate, describe, inject and the fuzzer's shrinker all read them.

Plans round-trip through files: :meth:`FaultPlan.dump` writes one
``describe()`` line per spec (with ``#`` comments), and
:meth:`FaultPlan.load` reads them back — the chaos fuzzer's shrunk
reproducers are exactly such files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import HEARTBEAT_INTERVAL, RESTART_SECONDS
from repro.store.placement import SLOT_BASES


class FaultKind(Enum):
    """The injectable fault classes."""

    CRASH = "crash"
    CRASH_RESTART = "crash-restart"
    PARTITION = "partition"
    SLOW_DEVICE = "slow-device"
    MSG_CORRUPT = "msg-corrupt"
    MSG_DUP = "msg-dup"
    MSG_REORDER = "msg-reorder"
    CHUNK_BITFLIP = "chunk-bitflip"
    TORN_WRITE = "torn-write"
    STALE_READ = "stale-read"
    CKPT_CORRUPT = "ckpt-corrupt"


#: Default partition duration, in lease units: long enough that the
#: failure detector is guaranteed to notice before the link heals.
DEFAULT_PARTITION_LEASES = 3.0


@dataclass(frozen=True)
class Key:
    """One ``key=value`` of the grammar and the spec field it sets."""

    name: str
    field: str
    integer: bool = False
    #: Triggers: ``(supervisor, value) -> Event`` the fault waits for.
    wait: Optional[Callable] = None
    #: Options: the kinds it applies to, as the validation error says.
    scope: str = ""
    #: Options: a value that means the same as leaving the key out.
    default: Optional[int] = None

    def parse(self, text: str, value: str):
        try:
            number = int(value) if self.integer else float(value)
        except ValueError:
            number = None
        if number is None or not math.isfinite(number):
            problem = "bad" if number is None else "non-finite"
            raise ValueError(
                f"fault spec {text!r}: {problem} {self.name}= value {value!r}"
            )
        return number

    def format(self, value) -> str:
        """``:g`` where it parses back to ``value``, else ``repr``."""
        if self.integer:
            return str(value)
        text = f"{value:g}"
        return text if float(text) == value else repr(value)


#: Exactly one trigger per spec: a simulated time, or the first start of
#: a logical iteration (which a rollback's re-execution does not repeat).
TRIGGERS = (
    Key("t", "at_time", wait=lambda supervisor, t: supervisor.sim.timeout(t)),
    Key(
        "iter", "at_iteration", integer=True,
        wait=lambda supervisor, n: supervisor.iteration_reached(n),
    ),
)

#: The optional keys, in ``describe()`` order.
OPTIONS = (
    Key("down", "down", scope="crashes"),
    Key("for", "duration", scope="partition and slow-device"),
    Key("factor", "factor", scope="slow-device"),
    Key("count", "count", integer=True, scope="byzantine faults", default=1),
    Key("delay", "delay", scope="msg-reorder"),
)


def _names(keys, last: str) -> str:
    names = [f"{key.name}=" for key in keys]
    return ", ".join(names[:-1]) + last + names[-1]


# -- arms: apply one fired spec to the live cluster ------------------------


def _arm_crash(supervisor, spec, config) -> None:
    down = spec.effective_down()
    supervisor.crash_machine(spec.machine, operator_reboot=down is None)
    if down is not None:
        supervisor.sim.schedule(down, supervisor.revive_machine, spec.machine)


def _arm_partition(supervisor, spec, config) -> None:
    supervisor.partition_machine(spec.machine)
    supervisor.sim.schedule(
        spec.effective_duration(config), supervisor.heal_machine, spec.machine
    )


def _arm_slow_device(supervisor, spec, config) -> None:
    device = supervisor.stores[spec.machine].device
    device.degrade(spec.factor)
    supervisor.sim.schedule(
        spec.effective_duration(config), device.restore_bandwidth
    )


def _network(kind: str) -> Callable:
    """Damage the next ``count`` frames the victim receives (only
    ``reorder`` reads ``delay``)."""
    return lambda supervisor, spec, config: supervisor.network.inject_fault(
        spec.machine, kind, count=spec.effective_count(),
        delay=spec.effective_delay(),
    )


def _storage(budget: str) -> Callable:
    """Damage the victim's next ``count`` device operations of a kind."""

    def arm(supervisor, spec, config) -> None:
        faults = supervisor.stores[spec.machine].faults
        setattr(faults, budget, getattr(faults, budget) + spec.effective_count())

    return arm


def _arm_ckpt_corrupt(supervisor, spec, config) -> None:
    """Persistent rot: it lasts until the restore step quarantines and
    re-replicates the damaged replicas."""
    supervisor.stores[spec.machine].corrupt_stored_checkpoint(
        spec.effective_count(), SLOT_BASES[0]
    )


@dataclass(frozen=True)
class KindRow:
    """One fault kind: the option keys it takes, and how it is armed."""

    keys: Tuple[str, ...]
    #: ``(supervisor, spec, config)``, called once when the trigger fires.
    arm: Callable
    #: Silent damage rather than fail-stop.
    byzantine: bool = False


FAULT_TABLE: Dict[FaultKind, KindRow] = {
    FaultKind.CRASH: KindRow(("down",), _arm_crash),
    FaultKind.CRASH_RESTART: KindRow(("down",), _arm_crash),
    FaultKind.PARTITION: KindRow(("for",), _arm_partition),
    FaultKind.SLOW_DEVICE: KindRow(("factor", "for"), _arm_slow_device),
    FaultKind.MSG_CORRUPT: KindRow(("count",), _network("corrupt"), True),
    FaultKind.MSG_DUP: KindRow(("count",), _network("dup"), True),
    FaultKind.MSG_REORDER: KindRow(
        ("count", "delay"), _network("reorder"), True
    ),
    FaultKind.CHUNK_BITFLIP: KindRow(("count",), _storage("read_corrupt"), True),
    FaultKind.TORN_WRITE: KindRow(("count",), _storage("write_corrupt"), True),
    FaultKind.STALE_READ: KindRow(("count",), _storage("stale_reads"), True),
    FaultKind.CKPT_CORRUPT: KindRow(("count",), _arm_ckpt_corrupt, True),
}

#: The silent-damage fault family (no fail-stop, just wrong data).
BYZANTINE_KINDS = frozenset(k for k, row in FAULT_TABLE.items() if row.byzantine)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: FaultKind
    machine: int
    #: Absolute simulated trigger time (exclusive with ``at_iteration``).
    at_time: Optional[float] = None
    #: Trigger at the first scatter of this logical iteration.
    at_iteration: Optional[int] = None
    #: Downtime before a self-reboot (crash / crash-restart).
    down: Optional[float] = None
    #: Fault duration (partition / slow-device).
    duration: Optional[float] = None
    #: Device slowdown factor (slow-device only).
    factor: Optional[float] = None
    #: Budget of damaged operations (byzantine kinds; default 1).
    count: Optional[int] = None
    #: Hold time for reordered frames (msg-reorder only).
    delay: Optional[float] = None

    def _given(self, keys):
        """``(key, value)`` for each of ``keys`` this spec sets."""
        return [
            (key, getattr(self, key.field))
            for key in keys
            if getattr(self, key.field) is not None
        ]

    @property
    def trigger(self):
        """The ``(key, value)`` the fault waits for."""
        return self._given(TRIGGERS)[0]

    def validate(self, config) -> None:
        """Check the spec against a concrete cluster configuration."""
        name = self.describe()
        if len(self._given(TRIGGERS)) != 1:
            raise ValueError(
                f"fault {name}: exactly one of {_names(TRIGGERS, '/')} required"
            )
        key, value = self.trigger
        if value < 0:
            raise ValueError(f"fault {name}: {key.name}= must be >= 0")
        if not 0 <= self.machine < config.machines:
            raise ValueError(
                f"fault {name}: machine {self.machine} outside "
                f"cluster of {config.machines}"
            )
        row = FAULT_TABLE[self.kind]
        for key, _ in self._given(OPTIONS):
            if key.name not in row.keys:
                takes = ", ".join(f"{k}=" for k in row.keys)
                raise ValueError(
                    f"fault {name}: {key.name}= only applies to {key.scope} "
                    f"({self.kind.value} takes {takes})"
                )
        kind, lease = self.kind, config.effective_lease_timeout()
        duration = self.effective_duration(config)
        if kind is FaultKind.PARTITION and config.machines < 2:
            raise ValueError("a partition fault needs at least two machines")
        if kind is FaultKind.PARTITION and duration < 2 * lease:
            raise ValueError(
                f"fault {name}: partition duration {duration:g}s is shorter "
                f"than two leases ({2 * lease:g}s); the failure detector "
                f"could not reliably observe it"
            )
        if kind is FaultKind.SLOW_DEVICE and (self.factor or 0) <= 1:
            raise ValueError(f"fault {name}: slow-device needs factor= > 1")
        if kind is FaultKind.SLOW_DEVICE and (self.duration or 0) <= 0:
            raise ValueError(f"fault {name}: slow-device needs for= > 0")
        if kind is FaultKind.CKPT_CORRUPT and not config.checkpointing:
            raise ValueError(
                f"fault {name}: ckpt-corrupt needs checkpointing enabled"
            )
        if self.down is not None and self.down <= 0:
            raise ValueError(f"fault {name}: down= must be > 0")
        if self.delay is not None and self.delay <= 0:
            raise ValueError(f"fault {name}: delay= must be > 0")
        if self.count is not None and self.count < 1:
            raise ValueError(f"fault {name}: count= must be >= 1")

    def effective_duration(self, config) -> float:
        """Partition / slow-device duration with the config default."""
        if self.duration is not None:
            return self.duration
        return DEFAULT_PARTITION_LEASES * config.effective_lease_timeout()

    def effective_down(self) -> Optional[float]:
        """Self-reboot delay: ``None`` means operator-rebooted (crash)."""
        if self.down is not None:
            return self.down
        if self.kind is FaultKind.CRASH_RESTART:
            return RESTART_SECONDS
        return None

    def effective_count(self) -> int:
        """Damaged-operation budget (byzantine kinds; default 1)."""
        return 1 if self.count is None else self.count

    def effective_delay(self) -> float:
        """Reorder hold time, by default one heartbeat."""
        if self.delay is not None:
            return self.delay
        return HEARTBEAT_INTERVAL

    def describe(self) -> str:
        """Canonical spec string; parses back to an equal spec."""
        keys = ",".join(
            f"{key.name}={key.format(value)}"
            for key, value in self._given(TRIGGERS + OPTIONS)
        )
        return f"{self.kind.value}:{self.machine}@{keys}"


_TRIGGER_KEYS = {key.name: key for key in TRIGGERS}
_OPTION_KEYS = {key.name: key for key in OPTIONS}


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one ``kind:machine@trigger[,key=value...]`` spec string."""
    head, _, tail = text.partition("@")
    if not tail:
        raise ValueError(f"fault spec {text!r}: missing @trigger")
    kind_text, _, machine_text = head.partition(":")
    try:
        kind = FaultKind(kind_text.strip())
    except ValueError:
        known = ", ".join(k.value for k in FaultKind)
        raise ValueError(
            f"fault spec {text!r}: unknown kind {kind_text!r} "
            f"(expected one of {known})"
        ) from None
    try:
        machine = int(machine_text)
    except ValueError:
        raise ValueError(
            f"fault spec {text!r}: bad machine id {machine_text!r}"
        ) from None

    trigger, *options = tail.split(",")
    name, _, value = trigger.strip().partition("=")
    key = _TRIGGER_KEYS.get(name)
    if key is None:
        raise ValueError(
            f"fault spec {text!r}: trigger must be {_names(TRIGGERS, ' or ')}"
        )
    fields = {key.field: key.parse(text, value)}
    for part in options:
        name, _, value = part.strip().partition("=")
        key = _OPTION_KEYS.get(name)
        if key is None:
            raise ValueError(
                f"fault spec {text!r}: unknown option {name!r} "
                f"(expected {_names(OPTIONS, ', or ')})"
            )
        fields[key.field] = key.parse(text, value)
    return FaultSpec(kind=kind, machine=machine, **fields)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults for one run."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, spec_texts) -> "FaultPlan":
        """Build a plan from CLI ``--inject-fault`` spec strings."""
        return cls(specs=tuple(parse_fault_spec(t) for t in spec_texts))

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan file: one spec per line, ``#`` starts a comment."""
        specs = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                specs.append(parse_fault_spec(text))
        return cls(specs=tuple(specs))

    def dump(self, path, header=()) -> None:
        """Write the plan as a replayable ``--inject-fault`` file."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in header:
                handle.write(f"# {line}\n")
            for spec in self.specs:
                handle.write(spec.describe() + "\n")

    def validate(self, config) -> None:
        for spec in self.specs:
            spec.validate(config)

    def __bool__(self) -> bool:
        return bool(self.specs)
