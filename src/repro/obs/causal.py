"""Causal message-level tracing: the run's event DAG and its analyzers.

Every simulated message (chunk read/write, steal request/response,
accumulator flush, checkpoint replica, heartbeat, retry/resend) carries
a ``(trace_id, span_id, parent_span_id)`` context, injected by
:class:`repro.net.transport.Network` at send time and threaded through
the protocol handlers, so the full causal DAG of a run — who caused
whom, at message granularity — is reconstructable from the saved trace.

The layer has three parts:

* :class:`CausalRecorder` — attached to every :class:`~repro.obs.tracer.
  Tracer` as ``tracer.causal``.  Records one event per message send
  (completed at delivery), plus barrier arrival/release events and
  checkpoint-durability marks.  It is a *passive annotation*: recording
  never touches simulation state, draws no randomness and creates no
  events, so traced runs stay byte-identical to untraced runs per
  (config, seed).
* the chain analyzers — :func:`barrier_chains` rebuilds, for every
  barrier release, the exact backward chain (machine → message →
  device/NIC span) that held the barrier open; :func:`slowest_chains`
  ranks them; :func:`cross_check` reconciles each chain against
  critpath's interval decomposition (the chain must explain the
  barrier-bound machine's measured wait within tolerance).
* the query engine — :func:`parse_where` compiles the small filter
  language behind ``repro trace query`` (``cat=steal_request and
  machine=3 and dur>5ms``) into a predicate over causal events.

Causal events are plain JSON-safe dicts so they serialize losslessly
into the Chrome trace document (top-level ``causalEvents`` key; the
message edges are additionally emitted as Chrome ``flow`` events for
Perfetto's arrow rendering — see :mod:`repro.obs.export`).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.log import EventLog, rows_from_causal

__all__ = [
    "CausalError",
    "CausalRecorder",
    "BarrierChain",
    "barrier_chains",
    "causal_events_from_trace",
    "chain_of",
    "cross_check",
    "event_duration",
    "filter_events",
    "format_chain",
    "format_chain_table",
    "format_event",
    "message_kind_counts",
    "parse_duration",
    "parse_where",
    "slowest_chains",
    "undelivered_messages",
    "unreleased_barriers",
]


class CausalError(ValueError):
    """Raised for malformed causal queries or trace documents."""


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


class CausalRecorder:
    """Collects the causal event DAG of a run.

    Span ids are a deterministic integer counter; timestamps come from
    the owning tracer's offset-adjusted clock, so multi-run drivers
    (recovery re-execution, MCST) compose on one timeline exactly like
    the span events do.  Events are rows of the tracer's
    :class:`~repro.obs.log.EventLog` — a send is one ``m`` row, its
    delivery one ``d`` row; :attr:`events` is the dict view.

    The recorder keeps, per machine, a *chain head*: the id of the last
    causal event known to have affected that machine (the last message
    its engine dispatched, or the last barrier release it resumed
    from).  Sends without an explicit parent inherit the sender's chain
    head — the standard single-parent approximation of causal tracing.
    Heads and barrier rounds belong to one run: :meth:`on_bind` drops
    them.
    """

    enabled = True

    def __init__(self, tracer, log: Optional[EventLog] = None):
        self._now = tracer.now
        self._log = log if log is not None else EventLog()
        self._append = self._log.rows.append
        self._head: Dict[int, int] = {}
        #: (epoch, label, phase) -> release event, once released.
        self._barriers: Dict[Tuple[int, str, str], Dict[str, Any]] = {}
        #: (epoch, label, phase) -> ``(t0, machine, id)`` per arrival.
        self._arrivals: Dict[Tuple[int, str, str], List[tuple]] = {}
        self._next_id = 0
        #: Run index within this tracer's timeline (bumped by bind_run).
        self.trace_id = 0

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Read-only view: events in id order, as JSON-safe dicts."""
        return self._log.columns().causal_events

    # -- plumbing ----------------------------------------------------------

    def on_bind(self) -> None:
        """A new simulation run was bound to the owning tracer."""
        self.trace_id += 1
        self._head.clear()
        self._barriers.clear()
        self._arrivals.clear()

    def _new(self, kind: str, cat: str, /, **fields) -> Dict[str, Any]:
        """Record a non-message event, instantaneous at the current time."""
        now = self._now()
        event = {
            "id": self._next_id, "trace": self.trace_id, "kind": kind,
            "cat": cat, "t0": now, "t1": now, **fields,
        }
        self._next_id += 1
        self._append(("e", event["id"], event))
        return event

    def head(self, machine: int) -> Optional[int]:
        """Chain head of ``machine`` (last causal event id), or None."""
        return self._head.get(machine)

    # -- message edges -----------------------------------------------------

    def on_send(
        self, kind: str, src: int, dst: int, size: int, parent=None, attempt: int = 0
    ) -> Tuple[int, int, Optional[int]]:
        """Record a message send; returns its ``(trace, span, parent)``
        context for stamping onto the in-flight message."""
        if isinstance(parent, tuple):
            parent = parent[1]
        if parent is None:
            parent = self._head.get(src)
        span = self._next_id
        self._next_id = span + 1
        self._append(
            ("m", span, self.trace_id, kind, self._now(), src, dst, size,
             parent, attempt)
        )
        return (self.trace_id, span, parent)

    def on_deliver(self, ctx) -> None:
        """Stamp the delivery time onto a message's causal event.

        Duplicate deliveries (byzantine ``dup`` faults) keep the first
        arrival time — the one that actually advanced the receiver.
        """
        self._append(
            ("d", ctx[1] if isinstance(ctx, tuple) else ctx, self._now())
        )

    def on_dispatch(self, machine: int, ctx) -> None:
        """A handler on ``machine`` started processing a message: its
        span becomes the machine's chain head."""
        span = ctx[1] if isinstance(ctx, tuple) else ctx
        if span is not None:
            self._head[machine] = span

    # -- barrier events ----------------------------------------------------

    def barrier_key(self, epoch: int, label: str, phase: str) -> str:
        """The round's name in the trace.  Multi-run drivers reuse
        ``(epoch, label, phase)`` in every run, so runs after the first
        carry their run index (the first run's keys — every single-run
        trace — stay as they always were)."""
        key = f"e{epoch}/{label}/{phase}"
        return key if self.trace_id < 2 else f"r{self.trace_id}:{key}"

    def barrier_arrive(
        self, machine: int, epoch: int, label: str, phase: str
    ) -> Dict[str, Any]:
        """``machine`` reached the barrier (before blocking on it)."""
        event = self._new(
            "arrive", "barrier", machine=machine, epoch=epoch, label=label,
            phase=phase, barrier=self.barrier_key(epoch, label, phase),
            parent=self._head.get(machine),
        )
        self._arrivals.setdefault((epoch, label, phase), []).append(
            (event["t0"], machine, event["id"])
        )
        return event

    def barrier_release(
        self, machine: int, epoch: int, label: str, phase: str
    ) -> Dict[str, Any]:
        """``machine`` resumed from the barrier.

        The first resumer materializes the single release event, whose
        parents are every arrival of the round and whose ``machine`` is
        the straggler (last arriver) that actually opened the barrier.
        Every resumer's chain head becomes the release, so post-barrier
        work is causally downstream of the release.
        """
        key = (epoch, label, phase)
        release = self._barriers.get(key)
        if release is None:
            # The next round of this barrier (labels repeat only across
            # epochs, which the key carries) starts a fresh arrival list.
            arrivals = self._arrivals.pop(key, [])
            if arrivals:
                machine_of_release = max(arrivals, key=lambda a: a[:2])[1]
            else:
                machine_of_release = machine
            release = self._barriers[key] = self._new(
                "release", "barrier", epoch=epoch, label=label, phase=phase,
                barrier=self.barrier_key(epoch, label, phase),
                parents=[arrival[2] for arrival in arrivals],
                machine=machine_of_release,
            )
        self._head[machine] = release["id"]
        return release

    # -- generic marks (checkpoint durability, recovery milestones) --------

    def mark(
        self, cat: str, machine: Optional[int] = None, parent=None,
        parents: Optional[List[int]] = None, args: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record a protocol milestone in the DAG (no chain-head move)."""
        fields: Dict[str, Any] = {}
        if machine is not None:
            fields["machine"] = machine
        parent_id = parent[1] if isinstance(parent, tuple) else parent
        if parent_id is None and machine is not None:
            parent_id = self._head.get(machine)
        fields["parent"] = parent_id
        if parents is not None:
            fields["parents"] = list(parents)
        if args:
            fields.update(args)
        return self._new("mark", cat, **fields)


# ---------------------------------------------------------------------------
# Loading saved traces
# ---------------------------------------------------------------------------


def causal_events_from_trace(trace: dict) -> List[Dict[str, Any]]:
    """The lossless causal event list of a saved Chrome trace document.

    Raises :class:`CausalError` when the trace was recorded before
    causal tracing existed (no ``causalEvents`` key).
    """
    events = trace.get("causalEvents")
    if events is None:
        raise CausalError(
            "trace has no 'causalEvents' — record it with --trace on a "
            "causal-tracing build"
        )
    # Through the log, like a live recording: one path to the analyzers.
    return EventLog(rows_from_causal(events)).columns().causal_events


def message_kind_counts(events: Iterable[Dict[str, Any]]) -> Dict[str, int]:
    """Observed message kinds -> send count (``cat`` of ``msg`` events)."""
    return dict(
        Counter(e["cat"] for e in events if e.get("kind") == "msg")
    )


def undelivered_messages(
    events: Iterable[Dict[str, Any]],
) -> List[Tuple[str, int, int, int]]:
    """Messages sent but never delivered: ``(kind, src, dst, count)``.

    An undelivered message in a *complete* trace is normal fail-stop
    fallout (a send to a crashed machine); in a deadlock capture it is
    the transition the cluster hung on.
    """
    counts = Counter(
        (e["cat"], e.get("src", -1), e.get("dst", -1))
        for e in events
        if e.get("kind") == "msg" and e.get("t1") is None
    )
    return [key + (count,) for key, count in sorted(counts.items())]


def unreleased_barriers(
    events: Iterable[Dict[str, Any]],
) -> List[Tuple[str, List[int]]]:
    """Barrier rounds with arrivals but no release, with their waiters.

    Keyed by ``(trace, barrier)`` internally so re-run epochs of the
    same label stay distinct; returns ``(barrier_key, machines)``.
    """
    arrivals: Dict[Tuple[Any, str], List[int]] = {}
    released: set = set()
    for event in events:
        key = event.get("barrier")
        if key is None:
            continue
        bucket = (event.get("trace"), key)
        if event.get("kind") == "arrive":
            arrivals.setdefault(bucket, []).append(event.get("machine", -1))
        elif event.get("kind") == "release":
            released.add(bucket)
    return [
        (bucket[1], sorted(machines))
        for bucket, machines in sorted(arrivals.items(), key=str)
        if bucket not in released
    ]


# ---------------------------------------------------------------------------
# Chain analysis
# ---------------------------------------------------------------------------


def event_duration(event: Dict[str, Any]) -> Optional[float]:
    """Send-to-delivery latency of a message edge (None if undelivered,
    0 for instantaneous events)."""
    t1 = event.get("t1")
    if t1 is None:
        return None
    return t1 - event["t0"]


def _index(events: Iterable[Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
    return {event["id"]: event for event in events}


def chain_of(
    events: List[Dict[str, Any]], span_id: int
) -> List[Dict[str, Any]]:
    """The backward causal chain ending at ``span_id``, root first.

    Release events continue through their straggler arrival (the last
    arriver — the parent that actually gated the release); other events
    follow their single ``parent`` link.  Cycles are impossible by
    construction (parents always have smaller ids) but guarded anyway.
    """
    by_id = _index(events)
    if span_id not in by_id:
        raise CausalError(f"no causal event with id {span_id}")
    chain: List[Dict[str, Any]] = []
    seen = set()
    cursor: Optional[int] = span_id
    while cursor is not None and cursor not in seen:
        seen.add(cursor)
        event = by_id.get(cursor)
        if event is None:
            break
        chain.append(event)
        parents = event.get("parents")
        if parents:
            arrivals = [by_id[p] for p in parents if p in by_id]
            if not arrivals:
                break
            straggler = max(
                arrivals, key=lambda a: (a["t0"], a.get("machine", -1))
            )
            cursor = straggler["id"]
        else:
            cursor = event.get("parent")
    chain.reverse()
    return chain


@dataclass
class BarrierChain:
    """The backward chain that held one barrier release open."""

    release: Dict[str, Any]
    arrivals: List[Dict[str, Any]]
    #: Root-first: ... message ... -> straggler arrival -> release.
    links: List[Dict[str, Any]]

    #: The release's own fields; ``machine`` is the straggler the chain
    #: terminates at.
    barrier = property(lambda self: self.release["barrier"])
    epoch = property(lambda self: self.release["epoch"])
    label = property(lambda self: self.release["label"])
    phase = property(lambda self: self.release["phase"])
    machine = property(lambda self: self.release["machine"])
    release_t = property(lambda self: self.release["t0"])

    @property
    def start_t(self) -> float:
        return self.links[0]["t0"] if self.links else self.release["t0"]

    @property
    def duration(self) -> float:
        """End-to-end extent of the chain on the trace timeline."""
        return self.release_t - self.start_t

    def waits(self) -> Dict[int, float]:
        """Per-machine barrier wait measured from the causal events."""
        return {
            a["machine"]: self.release_t - a["t0"] for a in self.arrivals
        }

    def explained_wait(self, machine: int) -> Optional[float]:
        """The portion of ``machine``'s barrier wait the chain covers.

        The machine waits on ``[arrival, release]``; the chain spans
        ``[start_t, release_t]`` — their overlap is the wait the chain
        *explains*.  A chain rooted at (or before) the previous barrier
        release explains every machine's wait in full.
        """
        waits = self.waits()
        if machine not in waits:
            return None
        arrival_t = self.release_t - waits[machine]
        return max(0.0, self.release_t - max(self.start_t, arrival_t))

    def to_dict(self) -> dict:
        return {
            "barrier": self.barrier,
            "epoch": self.epoch,
            "label": self.label,
            "phase": self.phase,
            "machine": self.machine,
            "release_t": self.release_t,
            "start_t": self.start_t,
            "duration": self.duration,
            "waits": {str(m): w for m, w in sorted(self.waits().items())},
            "links": [dict(link) for link in self.links],
        }


def barrier_chains(events: List[Dict[str, Any]]) -> List[BarrierChain]:
    """One chain per barrier release, in release order."""
    by_id = _index(events)
    chains: List[BarrierChain] = []
    for event in events:
        if event.get("kind") != "release":
            continue
        arrivals = [
            by_id[p] for p in event.get("parents", []) if p in by_id
        ]
        chains.append(
            BarrierChain(
                release=event,
                arrivals=arrivals,
                links=chain_of(events, event["id"]),
            )
        )
    chains.sort(key=lambda c: (c.release_t, c.release["id"]))
    return chains


def slowest_chains(
    events: List[Dict[str, Any]], n: Optional[int] = None
) -> List[BarrierChain]:
    """Barrier chains ranked by end-to-end duration, slowest first."""
    chains = sorted(
        barrier_chains(events),
        key=lambda c: (-c.duration, c.release_t, c.release["id"]),
    )
    return chains if n is None else chains[:n]


def cross_check(
    events: List[Dict[str, Any]],
    report,
    tolerance: float = 0.05,
) -> List[dict]:
    """Reconcile every iteration barrier chain against critpath.

    For each released scatter/gather barrier the chain analyzer derives,
    independently of critpath's interval sweep:

    * the straggler (the machine the slowest chain terminates at) — it
      must be the machine critpath charges the *least* barrier wait for
      that (iteration, phase), i.e. the machine that bound the barrier;
    * the barrier-bound waiter's wait (the machine critpath charges the
      most) — the chain must explain it within ``tolerance``.

    ``report`` is a :class:`repro.obs.critpath.AttributionReport`; its
    ``barrier_waits`` map is keyed ``(machine, label, phase)``.  Returns
    one record per checked barrier with an ``ok`` verdict; barriers of
    re-executed epochs are aggregated per (label, phase) exactly like
    critpath aggregates them.
    """
    crit_waits: Dict[Tuple[int, str, str], float] = getattr(
        report, "barrier_waits", {}
    )
    # Aggregate causal waits exactly like critpath does: per
    # (machine, label, phase), summed over epochs/re-executions.
    causal_waits: Dict[Tuple[int, str, str], float] = {}
    explained_waits: Dict[Tuple[int, str, str], float] = {}
    groups: Dict[Tuple[str, str], List[BarrierChain]] = {}
    for chain in barrier_chains(events):
        if not chain.label.isdigit() or chain.phase not in (
            "scatter",
            "gather",
        ):
            continue
        groups.setdefault((chain.label, chain.phase), []).append(chain)
        for machine, wait in chain.waits().items():
            key = (machine, chain.label, chain.phase)
            causal_waits[key] = causal_waits.get(key, 0.0) + wait
            explained_waits[key] = explained_waits.get(key, 0.0) + (
                chain.explained_wait(machine) or 0.0
            )
    records: List[dict] = []
    for (label, phase), chains in sorted(groups.items()):
        machines = sorted(
            {m for chain in chains for m in chain.waits()}
        )
        if not machines:
            continue
        bound_machine = max(
            machines, key=lambda m: (causal_waits[(m, label, phase)], m)
        )
        # A machine whose wait rounds to zero never accumulates a
        # barrier interval, so it is absent from critpath's map — that
        # absence *is* a zero-wait measurement.
        crit_for_phase = {
            machine: crit_waits.get((machine, label, phase), 0.0)
            for machine in machines
        }
        crit_wait = crit_for_phase[bound_machine]
        explained = explained_waits[(bound_machine, label, phase)]
        if crit_wait <= 0.0:
            rel_err = abs(explained - crit_wait)
            wait_ok = rel_err <= 1e-9
        else:
            rel_err = abs(explained - crit_wait) / crit_wait
            wait_ok = rel_err <= tolerance
        # The machine critpath names barrier-bound: the one that made
        # the others wait, i.e. with the smallest charged barrier wait.
        min_wait = min(crit_for_phase.values())
        crit_straggler = min(
            crit_for_phase, key=lambda m: (crit_for_phase[m], m)
        )
        # The chain terminus must sit at critpath's minimum wait (ties
        # allowed: several machines can arrive in the same instant).
        # With re-executed epochs the aggregate argmin no longer
        # identifies a single barrier instance's straggler; only hold
        # the terminus check when the barrier ran exactly once.
        straggler_ok = (
            len(chains) > 1
            or crit_for_phase[chains[0].machine] <= min_wait + 1e-9
        )
        last_chain = chains[-1]
        records.append(
            {
                "barrier": last_chain.barrier,
                "label": label,
                "phase": phase,
                "instances": len(chains),
                "straggler": last_chain.machine,
                "critpath_straggler": crit_straggler,
                "bound_machine": bound_machine,
                "wait_causal": causal_waits[(bound_machine, label, phase)],
                "wait_explained": explained,
                "wait_critpath": crit_wait,
                "rel_err": rel_err,
                "chain_duration": last_chain.duration,
                "chain_links": len(last_chain.links),
                "straggler_ok": straggler_ok,
                "wait_ok": wait_ok,
                "ok": straggler_ok and wait_ok,
            }
        )
    return records


# ---------------------------------------------------------------------------
# The query filter language
# ---------------------------------------------------------------------------

#: Longest operators first so ``>=`` never lexes as ``>`` + ``=``.
_OPERATORS = (">=", "<=", "!=", "=", ">", "<")

#: Fields holding times/durations: values accept s/ms/us/ns suffixes.
_TIME_FIELDS = frozenset({"dur", "t", "t0", "t1"})

_UNIT_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}

#: Query-field aliases -> event accessor.  "machine" means "the machine
#: the event happened on": the receiver for message edges, the
#: arriving/straggler machine for the rest.
_FIELD_GETTERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    **{
        name: (lambda e, name=name: e.get(name))
        for name in ("id", "parent", "kind", "cat", "src", "dst", "size",
                     "epoch", "label", "phase", "barrier", "trace", "t0", "t1")
    },
    "machine": lambda e: e.get("machine", e.get("dst")),
    "attempt": lambda e: e.get("attempt", 0),
    "t": lambda e: e.get("t0"),
    "dur": event_duration,
}


def parse_duration(text: str) -> float:
    """``"5ms"`` → 0.005; bare numbers are seconds."""
    raw = text.strip()
    for unit in ("ms", "us", "ns", "s"):
        if raw.endswith(unit):
            try:
                return float(raw[: -len(unit)]) * _UNIT_SCALE[unit]
            except ValueError:
                raise CausalError(f"bad duration literal {text!r}") from None
    try:
        return float(raw)
    except ValueError:
        raise CausalError(f"bad duration literal {text!r}") from None


def _parse_value(field: str, text: str) -> Any:
    if text == "none":
        return None  # e.g. "t1=none": messages never delivered
    if field in _TIME_FIELDS:
        return parse_duration(text)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _compare(op: str, actual: Any, wanted: Any) -> bool:
    if op == "=":
        return actual == wanted
    if op == "!=":
        return actual != wanted
    if actual is None or wanted is None:
        return False  # ordered comparison against missing data
    try:
        if op == ">":
            return actual > wanted
        if op == ">=":
            return actual >= wanted
        if op == "<":
            return actual < wanted
        if op == "<=":
            return actual <= wanted
    except TypeError:
        return False
    raise CausalError(f"unknown operator {op!r}")


def parse_where(text: str) -> Callable[[Dict[str, Any]], bool]:
    """Compile a ``--where`` expression into an event predicate.

    Grammar: ``clause (and clause)*`` with ``clause := field OP value``
    and ``OP`` one of ``= != > >= < <=``.  Fields: ``id parent kind cat
    src dst machine size epoch label phase barrier attempt trace t t0
    t1 dur``; time-valued fields accept ``s``/``ms``/``us``/``ns``
    suffixes (``dur>5ms``).
    """
    clauses: List[Tuple[Callable, str, Any]] = []
    for raw_clause in text.split(" and "):
        clause = raw_clause.strip()
        if not clause:
            raise CausalError(f"empty clause in where expression {text!r}")
        for op in _OPERATORS:
            if op in clause:
                field, _, value_text = clause.partition(op)
                field = field.strip()
                value_text = value_text.strip()
                if field not in _FIELD_GETTERS:
                    raise CausalError(
                        f"unknown field {field!r}; known: "
                        + " ".join(sorted(_FIELD_GETTERS))
                    )
                if not value_text:
                    raise CausalError(f"missing value in clause {clause!r}")
                clauses.append(
                    (
                        _FIELD_GETTERS[field],
                        op,
                        _parse_value(field, value_text),
                    )
                )
                break
        else:
            raise CausalError(
                f"clause {clause!r} has no operator (= != > >= < <=)"
            )

    def predicate(event: Dict[str, Any]) -> bool:
        return all(
            _compare(op, getter(event), wanted)
            for getter, op, wanted in clauses
        )

    return predicate


def filter_events(
    events: List[Dict[str, Any]], where: str
) -> List[Dict[str, Any]]:
    predicate = parse_where(where)
    return [event for event in events if predicate(event)]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def format_event(event: Dict[str, Any]) -> str:
    """One query-result line for a causal event."""
    kind = event.get("kind")
    if kind == "msg":
        dur = event_duration(event)
        dur_text = f"{dur * 1e6:9.2f}us" if dur is not None else "  (lost) "
        attempt = event.get("attempt")
        suffix = f" attempt={attempt}" if attempt else ""
        return (
            f"#{event['id']:<6d} msg     {event.get('cat', ''):<16s} "
            f"m{event.get('src')}->m{event.get('dst')}  "
            f"t={event['t0']:.6f}s  dur={dur_text}  "
            f"size={event.get('size', 0)}{suffix}"
        )
    where = event.get("barrier", event.get("cat", ""))
    return (
        f"#{event['id']:<6d} {kind:<7s} {where:<16s} "
        f"m{event.get('machine', '?')}       t={event['t0']:.6f}s"
    )


def format_chain(chain: BarrierChain) -> str:
    """Multi-line rendering of one barrier chain, root first."""
    lines = [
        f"barrier {chain.barrier}: released at {chain.release_t:.6f}s by "
        f"machine {chain.machine}, chain of {len(chain.links)} events "
        f"spanning {chain.duration * 1e3:.3f}ms"
    ]
    for link in chain.links:
        lines.append("  " + format_event(link))
    return "\n".join(lines)


def format_chain_table(chains: List[dict]) -> str:
    """The compact per-barrier chain table (``trace-report`` section) of
    :meth:`BarrierChain.to_dict` documents."""
    lines = [
        f"{'barrier':<26s} {'machine':>7s} {'links':>5s} "
        f"{'span':>12s} {'released at':>12s}"
    ]
    for chain in chains:
        lines.append(
            f"{chain['barrier']:<26s} {chain['machine']:>7d} "
            f"{len(chain['links']):>5d} {chain['duration'] * 1e3:>10.3f}ms "
            f"{chain['release_t']:>11.6f}s"
        )
    return "\n".join(lines)


def dumps_events(events: List[Dict[str, Any]]) -> str:
    """Deterministic JSON of a causal event list."""
    return json.dumps(events, sort_keys=True, separators=(",", ":"))
